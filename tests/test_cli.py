"""Command-line behavior: subcommand output, exit codes, config precedence,
and the JSON round trips between subcommands."""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdmlotto.backtest import (
    classify_stretches,
    extrapolate_gaps,
    gap_report,
    gap_stats,
    run_backtest,
)
from cdmlotto.cli import _parse_decimal, build_parser, main, parse_args
from cdmlotto.estimators import EstimatorConfig, EstimatorKind
from cdmlotto.ingest import GameKind, GameSpec, parse_history, serialize_history, synthetic_history
from cdmlotto.strategy import (
    AccountingMode,
    StrategyConfig,
    format_cents,
    ledger_to_dict,
    render_ledger,
    required_budget,
    simulate_stream,
)

ROOT = Path(__file__).resolve().parents[1]

# More digits than Python's int() converts by default (4,300).
HUGE = "9" * 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_line_per_field_and_item(text, list_key):
    """The JSON layout, read from the text alone: each top-level field on
    one line, in sorted-key order, and each object of the ``list_key`` list
    on a line of its own."""
    lines = iter(text.split("\n"))
    assert next(lines) == "{"
    fields, blocks = {}, []
    for line in itertools.takewhile(lambda row: row != "}", lines):
        key, _, value = line.removesuffix(",").partition(":")
        if value.strip() == "[":
            block = itertools.takewhile(lambda row: row.strip().removesuffix(",") != "]", lines)
            items = [json.loads(row.removesuffix(",")) for row in block]
            assert all(isinstance(item, dict) and list(item) == sorted(item) for item in items)
            blocks.append(json.loads(key))
            value = json.dumps(items)
        fields[json.loads(key)] = json.loads(value)
    assert list(lines) == [""]
    assert list(fields) == sorted(fields)
    assert blocks == ([list_key] if fields[list_key] else [])
    assert fields == json.loads(text)


@pytest.fixture
def history_csv(tmp_path, capsys):
    path = tmp_path / "history.csv"
    code = main(["synth", "--game", "set", "--pool", "52", "--picks", "6",
                 "--draws", "80", "--seed", "7", "--output", str(path)])
    assert code == 0
    capsys.readouterr()  # drop the confirmation line before the test captures
    return path


class TestSynth:
    def test_writes_valid_rows(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        code, out, _ = run(capsys, "synth", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "100", "--seed", "3", "--output", str(path))
        assert code == 0
        spec = GameSpec(GameKind.SET_DRAW, 52, 6)
        history = parse_history(path.read_text(), spec)
        assert len(history) == 100

    def test_reproducible_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "50", "--seed", "9", "--output", str(a))
        run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "50", "--seed", "9", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_output_path(self, capsys):
        code, out, _ = run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "5", "--seed", "1")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_json_metadata_names_the_generator(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        code, out, _ = run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "5",
                           "--seed", "1", "--output", str(path), "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["generator"] == "pcg64+floyd"
        assert document["config"]["seed"] == 1

    def test_invalid_spec_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--game", "set", "--pool", "6", "--picks", "6", "--draws", "5")
        assert code == 2
        assert "picks" in err

    def test_json_without_output_path_is_a_usage_error(self, capsys):
        # The JSON document describes a written CSV file, so there must be one.
        code, out, err = run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "2", "--seed", "1",
                             "--format", "json")
        assert (code, out) == (2, "")
        assert "--output" in err


class TestPredict:
    def test_default_estimators_give_md_and_mm_lines(self, capsys, history_csv):
        code, out, _ = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                           "--input", str(history_csv))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("[MD]") and lines[1].endswith("[MM]")
        assert all(len(line.split()) == 7 for line in lines)

    def test_pick_game_positional_format(self, capsys, tmp_path):
        path = tmp_path / "p3.csv"
        run(capsys, "synth", "--game", "pick", "--picks", "3", "--draws", "30", "--seed", "2",
            "--output", str(path))
        code, out, _ = run(capsys, "predict", "--game", "pick", "--picks", "3",
                           "--input", str(path), "--estimator", "mm")
        assert code == 0
        line = out.strip()
        assert line.endswith("[MM]") and len(line.split()) == 4

    def test_missing_file_exits_2_and_names_the_path(self, capsys):
        code, _, err = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                           "--input", "/nonexistent/h.csv")
        assert code == 2
        assert "/nonexistent/h.csv" in err

    def test_json_scores_sum_to_picks(self, capsys, history_csv):
        code, out, _ = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                           "--input", str(history_csv), "--estimator", "mm", "--format", "json")
        assert code == 0
        document = json.loads(out)
        (prediction,) = document["predictions"]
        assert prediction["estimator"] == "mm"
        assert sum(prediction["scores"][0]) == pytest.approx(6.0, rel=1e-9)
        assert prediction["numbers"] == sorted(prediction["numbers"])

    def test_unknown_estimator_is_a_usage_error(self, capsys, history_csv):
        code, _, err = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                           "--input", str(history_csv), "--estimator", "bogus")
        assert code == 2

    @pytest.mark.parametrize("draws,flags,code,err", [
        pytest.param(5, ("--estimator", "md"), 1,
                     "error: need at least 52 rows for a trailing 52x52 window, got 5\n", id="md-5-draws"),
        pytest.param(80, ("--estimator", "md", "--window", "20"), 1,
                     "error: need at least 52 rows for a trailing 52x52 window, got 20\n", id="md-window-20"),
        pytest.param(80, ("--estimator", "mle"), 1,
                     "error: window has zero entries after smoothing; the total-mass formula takes logs of every entry\n",
                     id="mle-unsmoothed"),
        pytest.param(300, ("--window", "301"), 2, "error: window 301 exceeds the 300 available draws\n",
                     id="window-above-n"),
        pytest.param(0, (), 2, "error: history is empty\n", id="empty"),
        # predict has no --draws route, so the message names only --input.
        pytest.param(None, (), 2, "error: provide --input PATH\n", id="no-input"),
    ])
    def test_error_battery(self, capsys, tmp_path, draws, flags, code, err):
        path = tmp_path / "history.csv"
        if draws:
            run(capsys, "synth", "--game", "set", "--pool", "52", "--picks", "6", "--draws", str(draws),
                "--seed", "5", "--output", str(path))
        else:
            path.write_text("", encoding="utf-8")
        source = () if draws is None else ("--input", str(path))
        got = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6", *source, *flags)
        assert got == (code, "", err)


    @pytest.mark.parametrize("row,message", [
        pytest.param("2,," + "x" * 5000, "numbers field 'xxxxxxxxxx'... of 5000 characters "
                     "is not a space-separated integer list", id="numbers"),
        pytest.param("x" * 5000 + ",,1 2 3 4 5 6", "draw index 'xxxxxxxxxx'... of 5000 characters "
                     "is not an integer of ASCII digits", id="index"),
        pytest.param("x" * 5000, "expected 'draw_index,date,numbers', got 'xxxxxxxxxx'... of 5000 characters",
                     id="row"),
    ])
    def test_an_overlong_history_field_is_named_by_its_length(self, capsys, tmp_path, row, message):
        path = tmp_path / "history.csv"
        path.write_text(f"0,,1 2 3 4 5 6\n1,,7 8 9 10 11 12\n{row}\n", encoding="utf-8")
        got = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6", "--input", str(path))
        assert got == (2, "", f"error: line 3: {message}\n")


class TestBacktest:
    def test_synthetic_runs_are_byte_identical(self, capsys):
        argv = ["backtest", "--game", "set", "--pool", "52", "--picks", "6",
                "--draws", "300", "--seed", "5", "--threshold", "2", "--format", "json"]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_document_fields(self, capsys):
        code, out, _ = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "300", "--seed", "5", "--threshold", "2", "--format", "json")
        document = json.loads(out)
        for field in ("records", "hit_indices", "gaps", "average_gap", "max_gap"):
            assert field in document
        assert document["config"]["estimator"] == "mm"
        assert document["config"]["seed"] == 5

    def test_no_history_names_both_routes(self, capsys):
        got = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6")
        assert got == (2, "", "error: provide --input PATH, or --draws N with --seed for a synthetic history\n")

    def test_threshold_above_picks_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "300", "--seed", "5", "--threshold", "7")
        assert code == 2

    def test_unsmoothed_mle_is_a_model_error(self, capsys):
        code, _, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "300", "--seed", "5", "--estimator", "mle", "--threshold", "2")
        assert code == 1
        assert "draw" in err

    def test_non_positive_mle_total_mass_is_a_model_error(self, capsys, history_csv):
        # At this smoothing the total-mass denominator is below the rounding
        # of its terms, so its sign (here negative) is set by rounding.
        flags = ("--game", "set", "--pool", "52", "--picks", "6", "--input", str(history_csv),
                 "--estimator", "mle", "--smoothing", "1e305")
        code, out, err = run(capsys, "backtest", *flags, "--threshold", "2")
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: draw 52: estimated total mass -\S+ is not positive\n", err)
        code, out, err = run(capsys, "predict", *flags)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: estimated total mass -\S+ is not positive\n", err)

    def test_hits_replay_reports_the_reference_average(self, capsys):
        code, out, _ = run(capsys, "backtest",
                           "--hits", "0,44,659,1357,1369,1915,2039,3449,3685,4285")
        assert code == 0
        assert "average gap: 476.111 (rounded 476)" in out
        assert "max gap: 1410\n" in out
        assert "S L L S L S L S L" in out
        assert "alternation fraction: 0.8750\n" in out
        assert "60%" in out and "not reproduced" in out

    def test_backtest_json_feeds_hits_replay(self, capsys, tmp_path):
        report = tmp_path / "bt.json"
        code, _, _ = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                         "--draws", "400", "--seed", "5", "--threshold", "2",
                         "--format", "json", "--output", str(report))
        assert code == 0
        document = json.loads(report.read_text())
        assert len(document["gaps"]) >= 2
        code, out, err = run(capsys, "backtest", "--hits-file", str(report), "--format", "json")
        assert code == 0, err
        replay = json.loads(out)
        for field in ("hit_indices", "gaps", "average_gap", "max_gap", "stretch"):
            assert replay[field] == document[field]

    def test_documents_are_the_library_reports(self, capsys, tmp_path):
        spec = GameSpec(GameKind.SET_DRAW, 52, 6)
        history = synthetic_history(spec, 400, seed=5)
        path = tmp_path / "history.csv"
        path.write_text(serialize_history(history), encoding="utf-8")
        code, out, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                             "--input", str(path), "--threshold", "2", "--format", "json")
        assert code == 0, err
        document = json.loads(out)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        del document["config"], document["records"]
        assert result.summary() == document
        code, out, err = run(capsys, "backtest", "--hits", ",".join(map(str, result.hit_indices)), "--format", "json")
        assert code == 0, err
        replay = json.loads(out)
        del replay["config"]
        assert gap_report(result.hit_indices) == replay

    def test_draw_indices_are_positions_not_the_csv_column(self, capsys, tmp_path):
        # A pick-1 history whose CSV draw_index column starts at 1000: the
        # backtest counts rows from 0 in file order, so its 11th row, CSV
        # index 1010, is draw 10 in every report and error.
        spec = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 1)
        digits = synthetic_history(spec, 30, seed=4).numbers[:, 0].tolist()
        path = tmp_path / "history.csv"
        path.write_text("".join(f"{1000 + i},,{d}\n" for i, d in enumerate(digits)), encoding="utf-8")
        flags = ("--game", "pick", "--picks", "1", "--input", str(path))
        code, out, err = run(capsys, "backtest", *flags, "--format", "json")
        assert code == 0, err
        document = json.loads(out)
        assert [r["draw_index"] for r in document["records"]] == list(range(10, 30))
        assert document["hit_indices"] and all(10 <= i < 30 for i in document["hit_indices"])
        hits = [i for i, r in enumerate(document["records"], start=10) if r["match_count"] >= 1]
        assert document["hit_indices"] == hits
        code, out, err = run(capsys, "backtest", *flags)
        assert code == 0, err
        assert re.findall(r"^draw (\d+) \(", out, flags=re.M) == [str(i) for i in hits]
        code, out, err = run(capsys, "backtest", *flags, "--estimator", "mle")
        assert (code, out) == (1, "")
        assert err.startswith("error: draw 10: ")

    def test_text_report_sections(self, capsys):
        code, out, _ = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "400", "--seed", "5", "--threshold", "2")
        assert code == 0
        assert "[MM]" in out and "[AC]" in out  # labelled comparison block per hit
        assert "match-count histogram:" in out
        assert "average gap by minimum match count:" in out
        assert "[PROJECTION]" in out  # 400 uniform draws never reach 6 matches


class TestSimulate:
    def test_single_gap_quarter_one_profit(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gaps", "44", "--format", "json")
        assert code == 0
        document = json.loads(out)
        (stream,) = document["streams"]
        assert stream["gap_draws"] == 44
        assert stream["profit_cents"] == 38_000
        assert document["aggregate"]["profit_cents"] == 38_000

    def test_no_win_horizon_spends_the_schedule(self, capsys):
        code, out, _ = run(capsys, "simulate", "--no-win-horizon", "240", "--format", "json")
        document = json.loads(out)
        assert document["aggregate"]["total_spend_cents"] == 240_000
        assert document["streams"][0]["outcome"] == "open"

    def test_text_report_mentions_the_profit(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gaps", "44")
        assert code == 0
        assert "$380.00" in out
        assert "one combination per draw" in out

    def test_the_paper_quarter_nets_end_the_ledgers(self, capsys):
        # README's recipe: a first win in quarter 1, 2, 3 or 4 nets the
        # paper's $380, $640, $1540 or $3600, the last row of its ledger.
        argv = ("simulate", "--gaps", "120,240,360,480")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.split("\n")
        last_rows = [lines[i - 1].split() for i, line in enumerate(lines) if line.startswith("  outcome:")]
        assert [(row[0], row[4]) for row in last_rows] == [
            ("1", "$380.00"), ("2", "$640.00"), ("3", "$1540.00"), ("4", "$3600.00"),
        ]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        nets = [stream["quarters"][-1]["net_cents"] for stream in json.loads(out)["streams"]]
        assert nets == [38_000, 64_000, 154_000, 360_000]

    def test_reference_gaps_aggregate(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gaps", "44,615,698,12,546,124,1410,236,600")
        assert code == 0
        assert ("aggregate: streams 9, spend $78480.00, payout $101000.00, profit $22520.00,"
                " max drawdown $40560.00\n") in out
        assert "required budget for the longest gap (1410 draws): $54960.00\n" in out

    def test_stream_totals_are_the_required_budgets(self, capsys):
        # Paper accounting charges a stream's last quarter in full, as the
        # budget does, so a stream winning on its gap-th draw spends exactly
        # the budget for that gap.
        gaps = (120, 480, 960, 1410, 2000)
        code, out, _ = run(capsys, "simulate", "--gaps", ",".join(map(str, gaps)), "--format", "json")
        assert code == 0
        spend = [stream["total_spend_cents"] for stream in json.loads(out)["streams"]]
        assert spend == [required_budget(gap, StrategyConfig()) for gap in gaps]
        assert spend == [12_000, 240_000, 1_512_000, 5_496_000, 23_208_000]

    def test_zero_streams_from_an_empty_gaps_file(self, capsys, tmp_path):
        # A backtest with fewer than two hits writes no gaps.
        path = tmp_path / "bt.json"
        path.write_text('{"gaps": []}')
        code, out, _ = run(capsys, "simulate", "--gaps-file", str(path))
        assert code == 0
        assert out == (
            "aggregate: streams 0, spend $0.00, payout $0.00, profit $0.00, max drawdown $0.00\n"
            "note: each player plays one combination per draw; the 21-combination per-player cap is not binding\n"
        )
        code, out, _ = run(capsys, "simulate", "--gaps-file", str(path), "--format", "json")
        assert code == 0
        assert '\n  "streams": []\n' in out
        document = json.loads(out)
        assert document["streams"] == []
        assert document["aggregate"] == {"total_spend_cents": 0, "total_payout_cents": 0, "profit_cents": 0,
                                         "max_drawdown_cents": 0, "required_budget_cents": None}

    def test_backtest_json_feeds_simulate(self, capsys, tmp_path):
        report = tmp_path / "bt.json"
        code, _, _ = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                         "--draws", "400", "--seed", "5", "--threshold", "2",
                         "--format", "json", "--output", str(report))
        assert code == 0
        gaps = json.loads(report.read_text())["gaps"]
        code, out, _ = run(capsys, "simulate", "--gaps-file", str(report), "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert [s["gap_draws"] for s in document["streams"]] == gaps

    def test_cap_exceeded_is_a_runtime_error(self, capsys):
        # The fifth quarter needs the extension rule, and a $100 payout can
        # never out-earn a $120 quarter, so no player count recovers.
        code, _, err = run(capsys, "simulate", "--gaps", "600", "--payout", "100")
        assert code == 1
        assert "stream" in err

    @pytest.mark.parametrize("gaps,code,message", [
        ("44,100000", 1, "stream 2 (gap 100000 draws): required player count 1034254 exceeds the cap 1000000"),
        ("44,0", 2, "stream 2: gap must be a positive draw count, got 0"),
    ])
    def test_staking_errors_number_streams_as_the_report_does(self, capsys, gaps, code, message):
        assert run(capsys, "simulate", "--gaps", gaps)[::2] == (code, f"error: {message}\n")

    def test_requires_exactly_one_gap_source(self, capsys):
        code, _, err = run(capsys, "simulate", "--gaps", "44", "--no-win-horizon", "10")
        assert code == 2

    @pytest.mark.parametrize("from_config", [False, True])
    def test_hits_replay_requires_exactly_one_hits_source(self, capsys, tmp_path, from_config):
        hits_file = tmp_path / "hits.txt"
        hits_file.write_text("3 40\n")
        if from_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"hits_file = {hits_file}\n")
            sources = ("--config", str(config))
        else:
            sources = ("--hits-file", str(hits_file))
        code, out, err = run(capsys, "backtest", "--hits", "1,5", *sources)
        assert code == 2
        assert out == ""
        assert err == "error: provide exactly one of --hits, --hits-file\n"

    def test_ratio_extension_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gaps", "1410", "--extension", "ratio:2.4",
                           "--format", "json")
        assert code == 0
        document = json.loads(out)
        players = [q["players"] for q in document["streams"][0]["quarters"]]
        assert players[:5] == [1, 2, 5, 12, 29]  # ceil(2.4 * 12)

    @pytest.mark.parametrize("ratio", ["2.4", "12/5", "4.8/2", "24e-1"])
    def test_a_ratio_reads_back_from_its_echo(self, capsys, ratio):
        # The echo writes N/D, so N/D is read, each part by the decimal grammar.
        code, out, err = run(capsys, "simulate", "--gaps", "1410", "--extension", f"ratio:{ratio}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["extension"] == "ratio:12/5"


class TestEarlierLayoutDocuments:
    """A backtest document in the earlier indent-2 layout still feeds
    simulate and hits replays, which print what the current layout gives."""

    @pytest.mark.parametrize("argv", [("simulate", "--gaps-file"), ("backtest", "--hits-file")])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_same_report_from_either_layout(self, capsys, tmp_path, argv, fmt):
        report = tmp_path / "bt.json"
        code, _, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6", "--draws", "400",
                           "--seed", "5", "--threshold", "2", "--format", "json", "--output", str(report))
        assert code == 0, err
        current = report.read_text()
        assert len(json.loads(current)["gaps"]) >= 2
        from_current = run(capsys, *argv, str(report), "--format", fmt)
        assert from_current[0] == 0
        earlier = json.dumps(json.loads(current), sort_keys=True, indent=2) + "\n"
        assert earlier != current
        report.write_text(earlier)
        assert run(capsys, *argv, str(report), "--format", fmt) == from_current


class TestSimulateMatchesPerStreamOracle:
    """simulate renders each distinct stream once and repeats its text; the
    report must equal one built stream by stream: the document of
    ``ledger_to_dict`` items, one stream per line, or ``render_ledger``."""

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.sampled_from([1, 2, 120, 121, 615, 1410]), min_size=1, max_size=30),
        accounting=st.sampled_from(["paper", "exact"]),
        fmt=st.sampled_from(["json", "text"]),
    )
    @example(gaps=None, accounting="exact", fmt="json")  # None: --no-win-horizon
    @example(gaps=None, accounting="paper", fmt="text")
    def test_report_equals_the_oracle(self, gaps, accounting, fmt):
        source = ["--no-win-horizon", "200"] if gaps is None else ["--gaps", ",".join(map(str, gaps))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", *source, "--accounting", accounting, "--format", fmt]) == 0

        config = StrategyConfig(accounting=AccountingMode(accounting))
        if gaps is None:
            streams = [(None, "stream 1: no win", simulate_stream(None, config, horizon_days=200))]
        else:
            streams = [(g, f"stream {i + 1}: gap {g} draws", simulate_stream(g - 1, config))
                       for i, g in enumerate(gaps)]
        spend = sum(ledger.total_spend_cents for _, _, ledger in streams)
        payout = sum(ledger.total_payout_cents for _, _, ledger in streams)
        drawdown = max(ledger.drawdown_cents for _, _, ledger in streams)
        budget = required_budget(max(gaps), config) if gaps else None
        if fmt == "json":
            document = {
                "config": json.loads(out.getvalue())["config"],
                "streams": [{**({"gap_draws": g} if g is not None else {}), **ledger_to_dict(ledger)}
                            for g, _, ledger in streams],
                "aggregate": {
                    "total_spend_cents": spend,
                    "total_payout_cents": payout,
                    "profit_cents": payout - spend,
                    "max_drawdown_cents": drawdown,
                    "required_budget_cents": budget,
                },
            }
            assert json.loads(out.getvalue()) == document
            assert_line_per_field_and_item(out.getvalue(), "streams")
            return
        lines = [line for _, title, ledger in streams for line in (title, *render_ledger(ledger), "")]
        lines.append(
            f"aggregate: streams {len(streams)}, spend {format_cents(spend)},"
            f" payout {format_cents(payout)}, profit {format_cents(payout - spend)},"
            f" max drawdown {format_cents(drawdown)}"
        )
        if budget is not None:
            lines.append(f"required budget for the longest gap ({max(gaps)} draws): {format_cents(budget)}")
        lines.append("note: each player plays one combination per draw; the 21-combination per-player cap is not binding")
        assert out.getvalue() == "\n".join(lines) + "\n"


# One sample value per flag; a new flag needs a sample here.
CONFIG_SAMPLES = {
    "format": "json", "output": "report.txt", "game": "pick", "pool": "10", "picks": "3",
    "draws": "40", "seed": "7", "input": "history.csv", "estimator": "mle",
    "smoothing": "0.5", "window": "25", "warmup": "30", "threshold": "2",
    "hits": "0,44,659", "hits_file": "hits.json", "gaps": "44, 615", "gaps_file": "bt.json",
    "no_win_horizon": "240", "ticket_price": "2.5", "payout": "400", "quarter_days": "30",
    "schedule": "1,3,7", "extension": "ratio:2.4", "accounting": "exact",
}


class TestConfigFile:
    def test_every_config_key_parses_like_its_flag(self, tmp_path):
        parser = build_parser()
        (subcommands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        config = tmp_path / "run.cfg"
        checked = set()
        for command, sub in subcommands.items():
            for action in sub._actions:
                if not action.option_strings or action.dest in ("help", "config"):
                    continue
                value = CONFIG_SAMPLES[action.dest]
                from_flag = getattr(parse_args([command, action.option_strings[0], value]), action.dest)
                config.write_text(f"{action.option_strings[0][2:]} = {value}\n")
                from_file = getattr(parse_args([command, "--config", str(config)]), action.dest)
                assert from_file == from_flag, (command, action.dest)
                assert from_file != action.default, (command, action.dest)
                checked.add(action.dest)
        assert checked == set(CONFIG_SAMPLES)

    def test_file_values_fill_in_missing_flags(self, capsys, tmp_path, history_csv):
        config = tmp_path / "run.cfg"
        config.write_text("game = set\npool = 52\npicks = 6\nestimator = mm\n")
        code, out, _ = run(capsys, "predict", "--config", str(config), "--input", str(history_csv))
        assert code == 0
        assert out.strip().endswith("[MM]")

    def test_cli_flags_override_file_values(self, capsys, tmp_path, history_csv):
        config = tmp_path / "run.cfg"
        config.write_text("estimator = mm\n")
        code, out, _ = run(capsys, "predict", "--config", str(config), "--game", "set",
                           "--pool", "52", "--picks", "6", "--input", str(history_csv),
                           "--estimator", "md")
        assert code == 0
        assert out.strip().endswith("[MD]")

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_only_newlines_end_a_config_line(self, capsys, tmp_path, separator):
        config = tmp_path / "ff.cfg"
        config.write_text(f"# seed note{separator} see below\nseed = 5\n", encoding="utf-8")
        assert parse_args(["backtest", "--config", str(config)]).seed == 5
        config.write_text(f"# seed note{separator} see below\nseed 5\n", encoding="utf-8")
        code, _, err = run(capsys, "backtest", "--config", str(config))
        assert (code, err) == (2, f"error: {config}:2: expected key=value\n")

    def test_missing_config_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "predict", "--config", "/nonexistent.cfg",
                           "--game", "set", "--pool", "52", "--picks", "6", "--input", "x.csv")
        assert code == 2


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        assert main(["backtest", "--window", "zero"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_success_is_zero(self, capsys, history_csv):
        assert main(["predict", "--game", "set", "--pool", "52", "--picks", "6",
                     "--input", str(history_csv), "--estimator", "mm"]) == 0

    @pytest.mark.parametrize("argv,message", [
        pytest.param(("predict", "--game", "lotto"), "game must be 'set' or 'pick'", id="game"),
        pytest.param(("predict", "--format", "xml"), "format must be 'text' or 'json'", id="format"),
        pytest.param(("simulate", "--gaps", "44", "--extension", "fibonacci"),
                     "extension must be 'min-recover' or 'ratio:R'", id="extension"),
        pytest.param(("predict", "--estimator", ","), "no estimator given", id="no-estimator"),
        pytest.param(("predict", "--game", "set", "--picks", "6"), "set games need --pool and --picks",
                     id="set-without-pool"),
        pytest.param(("predict", "--game", "pick"), "pick games need --picks", id="pick-without-picks"),
        pytest.param(("predict", "--game", "pick", "--picks", "3", "--pool", "52"),
                     "pick games draw from the 10 digits; --pool must be 10 or omitted", id="pick-pool-52"),
        pytest.param(("synth", "--game", "pick", "--picks", "3"), "synth needs --draws", id="synth-without-draws"),
        pytest.param(("backtest", "--pool", "52", "--picks", "6", "--draws", "60", "--estimator", "md,mm"),
                     "backtest runs one estimator at a time; repeat the command per estimator", id="backtest-two"),
        pytest.param(("simulate", "--gaps-file", "{doc}"), "{doc}: JSON document has no 'gaps' field",
                     id="gaps-file-field"),
        pytest.param(("backtest", "--hits-file", "{doc}"), "{doc}: JSON document has no 'hit_indices' field",
                     id="hits-file-field"),
    ])
    def test_each_refusal_exits_2_with_its_message(self, capsys, tmp_path, argv, message):
        doc = tmp_path / "doc.json"
        doc.write_text('{"hits": [1]}', encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(doc=doc) for arg in argv))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(message.format(doc=doc))


class TestStrictValues:
    """Integers follow the history files' ASCII-digit rule; dollar amounts,
    ratios and smoothing follow one decimal grammar of ASCII digits.
    Without those rules most of these commands exit 0 or crash."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--gaps", "1_0,+4"),
        ("simulate", "--gaps", "44", "--schedule", "1,٢"),
        ("simulate", "--no-win-horizon", "2_40"),
        ("backtest", "--hits", "٣,1_0"),
        ("backtest", "--hits", "-5"),
        ("backtest", "--game", "set", "--pool", "52", "--picks", "6", "--draws", "1_00"),
        ("backtest", "--game", "set", "--pool", "52", "--picks", "6", "--draws", "100", "--window", "٦٠",
         "--warmup", "60"),
        ("synth", "--game", "pick", "--picks", "+3", "--draws", "5"),
    ])
    def test_non_ascii_digit_integers_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("name,text,message", [
        pytest.param("gaps.txt", "٣ 1_0 +20\n", "expected JSON or an integer list", id="gaps.txt"),
        pytest.param("hits.txt", "٣ 1_0 +20\n", "expected JSON or an integer list", id="hits.txt"),
        # Past 4,300 digits int() refuses a value, and json.loads raises its ValueError.
        pytest.param("gaps.txt", f"44 {HUGE}\n", "an integer of 5000 digits is too long", id="gaps.txt-huge"),
        pytest.param("hits.txt", f"{HUGE}\n", "an integer is too long", id="hits.txt-huge"),
        pytest.param("gaps.json", f'{{"gaps": [44, {HUGE}]}}', "an integer is too long", id="gaps.json-huge"),
        pytest.param("hits.json", f"[0, {HUGE}]", "an integer is too long", id="hits.json-huge"),
        # json.loads recurses once per nested list.
        pytest.param("gaps.json", "[" * 100_000 + "]" * 100_000, "JSON nests too deeply", id="gaps.json-deep"),
        pytest.param("hits.json", "[" * 100_000, "JSON nests too deeply", id="hits.json-deep"),
    ])
    def test_integer_list_files_follow_the_same_rule(self, capsys, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        argv = ("simulate", "--gaps-file") if name.startswith("gaps") else ("backtest", "--hits-file")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ")
        assert message in err

    @pytest.mark.parametrize("flag,message", [
        ("--draws", "an integer of 5000 digits is too long to read"),
        ("--window", "an integer of 5000 digits is too long to read"),
        ("--window", "window must be a positive integer or 'all'"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_integer_flags_too_long_to_read(self, capsys, tmp_path, flag, message, route):
        """A huge integer is named as such on both routes, never by the
        converter's name or int()'s own limit message; a window of 0 keeps
        its own message."""
        value = "0" if message.startswith("window") else HUGE
        argv = ["backtest", "--game", "set", "--pool", "52", "--picks", "6"]
        if flag != "--draws":
            argv += ["--draws", "60"]
        if route == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
        assert "_parse" not in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv,text,field", [
        (("simulate", "--gaps-file"), "44 615 698\n", "streams"),
        (("simulate", "--gaps-file"), '{"gaps": [44, 615, 698]}', "streams"),
        (("backtest", "--hits-file"), "0,44,659,1357\n", "gaps"),
        (("backtest", "--hits-file"), '{"hit_indices": [0, 44, 659, 1357]}', "gaps"),
    ])
    def test_integer_list_files_may_start_with_a_byte_order_mark(self, capsys, tmp_path, argv, text, field):
        path = tmp_path / "series"
        path.write_text(text, encoding="utf-8-sig")
        code, out, err = run(capsys, *argv, str(path), "--format", "json")
        assert (code, err) == (0, "")
        read = json.loads(out)[field]
        assert (read if field == "gaps" else [s["gap_draws"] for s in read]) == [44, 615, 698]

    @pytest.mark.parametrize("argv,text", [
        (("simulate", "--gaps-file"), "[true, 44]"),
        (("simulate", "--gaps-file"), '{"gaps": [44, -3]}'),
        (("backtest", "--hits-file"), '{"hit_indices": [-3, 7]}'),
        (("backtest", "--hits-file"), "[1, false]"),
        (("simulate", "--gaps-file"), "-3"),
        (("backtest", "--hits-file"), "true"),
        (("simulate", "--gaps-file"), "1.5"),
    ])
    def test_json_integer_lists_follow_the_same_rule(self, capsys, tmp_path, argv, text):
        path = tmp_path / "series.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert "expected a list of nonnegative integers" in err

    @pytest.mark.parametrize("argv,field", [(("simulate", "--gaps-file"), "streams"),
                                            (("backtest", "--hits-file"), "hit_indices")])
    def test_one_integer_list_file_is_a_one_item_list(self, capsys, tmp_path, argv, field):
        path = tmp_path / "series"
        path.write_text("44\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path), "--format", "json")
        assert (code, err) == (0, "")
        read = json.loads(out)[field]
        assert (read if field == "hit_indices" else [s["gap_draws"] for s in read]) == [44]

    @pytest.mark.parametrize("flag,value", [("--payout", "inf"), ("--ticket-price", "1e400"),
                                            ("--ticket-price", "nan")])
    def test_non_finite_money_is_a_usage_error(self, capsys, flag, value):
        code, _, err = run(capsys, "simulate", "--gaps", "10", flag, value)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
    def test_nan_and_infinite_money_must_be_finite(self, capsys, value):
        code, out, err = run(capsys, "simulate", "--gaps", "10", "--payout", value)
        assert (code, out) == (2, "")
        assert f"dollar amount must be an unsigned decimal of ASCII digits, got {value!r}" in err

    @pytest.mark.parametrize("value,message", [
        pytest.param("1e309", "dollar amount '1e309' is out of range", id="1e309"),
        # A subnormal float, so in range, and a fraction of a cent.
        pytest.param("1e-309", "dollar amounts must be a whole number of cents, got '1e-309'", id="1e-309"),
    ])
    def test_money_keeps_the_exponent_range_of_float(self, capsys, value, message):
        code, out, err = run(capsys, "simulate", "--gaps", "10", "--payout", value)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("flag,value", [("--ticket-price", "1.004"), ("--payout", "500.006"),
                                            ("--ticket-price", "0.015"), ("--ticket-price", "0.004")])
    def test_money_that_is_not_whole_cents_is_refused(self, capsys, tmp_path, flag, value, route):
        """Never rounded to the cent: 1.004 would play $1.00 tickets, 0.015
        $0.02 ones, and 0.004 would be called nonpositive."""
        argv = ["simulate", "--gaps", "120"]
        if route == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"dollar amounts must be a whole number of cents, got {value!r}" in err

    @pytest.mark.parametrize("value,cents", [
        pytest.param("2.5", 250, id="2.5"),
        pytest.param("1e2", 10_000, id="1e2"),
        pytest.param(" 0.10 ", 10, id="0.10"),
        pytest.param(".5", 50, id=".5"),
        # float overflowed once multiplied by 100; the amounts are whole cents.
        pytest.param("1e307", 10**309, id="1e307"),
        pytest.param("1e308", 10**310, id="1e308"),
    ])
    def test_whole_cent_spellings_are_read_exactly(self, capsys, value, cents):
        code, out, err = run(capsys, "simulate", "--gaps", "120", "--ticket-price", value, "--payout", value,
                             "--format", "json")
        assert (code, err) == (0, "")
        config = json.loads(out)["config"]
        assert config["ticket_price"] == config["payout"] == cents

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_smoothing_must_be_finite_and_nonnegative(self, capsys, history_csv, value):
        code, out, err = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                             "--input", str(history_csv), "--estimator", "mm",
                             "--smoothing", value, "--format", "json")
        assert code == 2
        assert out == ""
        assert f"smoothing must be an unsigned decimal of ASCII digits, got {value!r}" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_hits_replay_smoothing_must_be_finite_and_nonnegative(self, capsys, value):
        # A hits replay fits no estimator, so only the flag's converter sees the value.
        code, out, err = run(capsys, "backtest", "--hits", "1,5", "--smoothing", value, "--format", "json")
        assert code == 2
        assert out == ""
        assert f"smoothing must be an unsigned decimal of ASCII digits, got {value!r}" in err

    @pytest.mark.parametrize("value,message", [
        *[pytest.param(v, "must be an unsigned decimal of ASCII digits", id=v or "empty") for v in
          ["٣", "1_0", "nan", "inf", "Infinity", "0x10", "-1", "+1", ""]],
        pytest.param("1e400", "is out of range", id="1e400"),
        pytest.param("1e-400", "is out of range", id="1e-400"),
        pytest.param(HUGE, "is out of range", id="huge"),
        # In range, but its digits are more than int() converts.
        pytest.param("0." + "0" * 300 + HUGE, "characters is too long to read", id="long-mantissa"),
    ])
    @pytest.mark.parametrize("flag", ["--ticket-price", "--payout", "--smoothing", "--extension"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_refused_decimal_spellings(self, capsys, tmp_path, route, flag, value, message):
        """Signs, underscores, non-ASCII digits, nan, inf and values float
        reads as infinite or as zero exit 2 on both routes, never rounded
        to 0 or read by another library's rules."""
        value = FLAG_PREFIX.get(flag, "") + value
        command, *rest = NUMERIC_FLAGS[flag]
        if route == "flag":
            value_args = [f"{flag}={value}"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
            value_args = ["--config", str(config)]
        code, out, err = run(capsys, command, *rest, *value_args)
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    @given(st.from_regex(r"[ \t]?[0-9]{0,25}(\.[0-9]{0,25})?([eE][-+]?[0-9]{1,3})?[ \t]?", fullmatch=True))
    def test_the_decimal_reader_is_fraction_in_range(self, text):
        assume(any(c.isdigit() for c in text.lower().partition("e")[0]))
        exact = Fraction(text)
        if exact == 0 or float(text) not in (0, math.inf):
            assert _parse_decimal(text, "value") == exact
        else:
            with pytest.raises(argparse.ArgumentTypeError, match="out of range"):
                _parse_decimal(text, "value")

    @pytest.mark.parametrize("value", ["1", "0.5", ".5", "1e305", "1e-320", " 2 ", "0"])
    def test_smoothing_is_the_float_of_its_text(self, capsys, value):
        code, out, err = run(capsys, "backtest", "--hits", "1,5", "--smoothing", value, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["smoothing"] == float(value)
        assert f'"smoothing":{float(value)!r}' in out

    @pytest.mark.parametrize("argv,code,message", [
        pytest.param(("simulate", "--gaps", "2000", "--extension", "ratio:1e3000000"), 2,
                     "ratio '1e3000000' is out of range", id="ratio"),
        pytest.param(("backtest", "--hits", "1,5", "--smoothing", "0e3000000", "--format", "json"), 0, "",
                     id="zero-smoothing"),
    ])
    def test_a_huge_exponent_is_read_at_once(self, capsys, argv, code, message):
        # Fraction("1e3000000"), or "0e3000000", spends seconds building 10**3000000.
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert result[0] == code and message in result[2]

    def test_a_ratio_in_range_still_meets_the_cap(self, capsys):
        code, out, err = run(capsys, "simulate", "--gaps", "2000", "--extension", "ratio:1e300")
        assert (code, out) == (1, "")
        assert err == f"error: stream 1 (gap 2000 draws): required player count {12 * 10**300} exceeds the cap 1000000\n"

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("--seed", "x" * 5000, "integer of ASCII digits, got 'xxxxxxxxxx'... of 5000 characters",
                     id="count"),
        pytest.param("--smoothing", "x" * 5000, "decimal of ASCII digits, got 'xxxxxxxxxx'... of 5000 characters",
                     id="decimal-grammar"),
        pytest.param("--payout", HUGE, "dollar amount '9999999999'... of 5000 characters is out of range",
                     id="decimal-range"),
        # The exponent's zeros keep the mantissa within the digits int() converts.
        pytest.param("--ticket-price", "1." + "0" * 3000 + "1e" + "0" * 1996,
                     "whole number of cents, got '1.00000000'... of 5000 characters", id="money"),
        pytest.param("--extension", "ratio:1/" + "0" * 4992, "bad ratio in 'ratio:1/00'... of 5000 characters",
                     id="extension"),
        pytest.param("--estimator", "x" * 5000, "unknown estimator in 'xxxxxxxxxx'... of 5000 characters",
                     id="estimators"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_a_long_value_is_named_by_its_length(self, capsys, tmp_path, route, flag, value, message):
        """A refused value past 100 characters is shown by its head and
        length, so the error stays one short line on both routes."""
        command, *rest = NUMERIC_FLAGS.get(flag, NUMERIC_FLAGS["--seed"])
        if route == "flag":
            value_args = [f"{flag}={value}"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
            value_args = ["--config", str(config)]
        code, out, err = run(capsys, command, *rest, *value_args)
        assert (code, out) == (2, "")
        assert message in err.splitlines()[-1]
        assert len(err.splitlines()[-1]) < 200

    @pytest.mark.parametrize("length,shown", [(100, repr("x" * 100)), (101, "'xxxxxxxxxx'... of 101 characters")],
                             ids=["100", "101"])
    def test_values_up_to_100_characters_are_shown_whole(self, capsys, length, shown):
        code, out, err = run(capsys, "synth", "--draws", "5", "--seed", "x" * length)
        assert (code, out) == (2, "")
        assert err.endswith(f"expected a nonnegative integer of ASCII digits, got {shown}\n")


# Every flag whose value is a number, with a fast command that takes it.
# The extension's number follows its "ratio:" prefix.
NUMERIC_FLAGS = {
    "--extension": ("simulate", "--gaps", "44"),
    "--pool": ("predict", "--picks", "6"),
    "--picks": ("predict", "--pool", "52"),
    "--draws": ("backtest", "--pool", "52", "--picks", "6", "--seed", "1"),
    "--seed": ("backtest", "--pool", "52", "--picks", "6", "--draws", "60"),
    "--smoothing": ("backtest", "--pool", "52", "--picks", "6", "--draws", "60", "--estimator", "mle"),
    "--window": ("backtest", "--pool", "52", "--picks", "6", "--draws", "60"),
    "--warmup": ("backtest", "--pool", "52", "--picks", "6", "--draws", "60"),
    "--threshold": ("backtest", "--pool", "52", "--picks", "6", "--draws", "60"),
    "--hits": ("backtest",),
    "--gaps": ("simulate",),
    "--no-win-horizon": ("simulate",),
    "--ticket-price": ("simulate", "--gaps", "44"),
    "--payout": ("simulate", "--gaps", "44"),
    "--quarter-days": ("simulate", "--gaps", "44"),
    "--schedule": ("simulate", "--gaps", "44"),
}
FLAG_PREFIX = {"--extension": "ratio:"}

# Short text keeps integer values, and so the work they ask for, small.
numeric_text = st.one_of(
    st.text(max_size=3),
    st.floats().map(repr),
    st.integers(-3, 300).map(str),
    st.sampled_from(["-inf", "1e307", "-0", "1_0", "+4", "٣", "0x10", " 7 ", ""]),
)


class TestNumericFlagsNeverCrash:
    """Each value reaches its converter by two routes: the flag itself and a
    ``key = value`` line of a ``--config`` file."""

    @pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
    @settings(max_examples=25, deadline=None)
    @given(value=numeric_text)
    @example(value="inf")
    @example(value="nan")
    @example(value="1e400")
    @example(value=HUGE)
    def test_any_text_exits_0_1_or_2(self, flag, value):
        self.exits_cleanly(flag, [f"{flag}={FLAG_PREFIX.get(flag, '')}{value}"])

    @pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
    @settings(max_examples=25, deadline=None)
    @given(value=numeric_text)
    @example(value="inf")
    @example(value="nan")
    @example(value="1e400")
    @example(value=HUGE)
    def test_any_config_value_exits_0_1_or_2(self, tmp_path_factory, flag, value):
        config = tmp_path_factory.mktemp("config") / "run.cfg"
        config.write_text(f"{flag[2:]} = {FLAG_PREFIX.get(flag, '')}{value}\n", encoding="utf-8")
        self.exits_cleanly(flag, ["--config", str(config)])

    @staticmethod
    def exits_cleanly(flag, value_args):
        command, *rest = NUMERIC_FLAGS[flag]
        argv = [command, *rest, *value_args, "--format", "json"]
        if command == "predict":
            argv += ["--input", "/nonexistent/history.csv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)  # strict JSON: no NaN or Infinity


class TestHistoryRoundTripViaCli:
    def test_parse_serialize_identity(self, capsys, history_csv):
        spec = GameSpec(GameKind.SET_DRAW, 52, 6)
        text = history_csv.read_text()
        assert serialize_history(parse_history(text, spec)) == text

    def test_unusual_text_reports_as_its_lf_form_does(self, capsys, history_csv):
        argv = ("backtest", "--pool", "52", "--picks", "6", "--input", str(history_csv), "--format", "json")
        rows = history_csv.read_text().splitlines()
        code, lf_report, _ = run(capsys, *argv)
        assert code == 0
        padded = [f" {index},{date}, {numbers.replace(' ', '  ')}\t" for index, date, numbers in
                  (row.split(",") for row in rows)]
        history_csv.write_bytes("\r\n".join([padded[0], "", *padded[1:]]).encode() + b"\r\n")
        assert run(capsys, *argv) == (0, lf_report, "")


# Each file the CLI reads: its flag, a command that reads it, and a first line.
INPUT_FILES = {
    "input": (["backtest", "--pool", "52", "--picks", "6", "--input"], b"0,,1 2 3 4 5 6"),
    "config": (["simulate", "--gaps", "44", "--config"], b"seed = 5"),
    "gaps": (["simulate", "--gaps-file"], b"44"),
    "hits": (["backtest", "--hits-file"], b"0,44"),
}


class TestInputFiles:
    @pytest.mark.parametrize("role", INPUT_FILES)
    def test_missing_file_names_its_role_and_path(self, capsys, tmp_path, role):
        path = tmp_path / "nope"
        assert run(capsys, *INPUT_FILES[role][0], str(path)) == (2, "", f"error: {role} file not found: {path}\n")

    @pytest.mark.parametrize("role", INPUT_FILES)
    def test_byte_that_is_not_utf8_names_the_file_and_line(self, capsys, tmp_path, role):
        argv, first_line = INPUT_FILES[role]
        path = tmp_path / "file"
        # Lines end at CRLF, then CR, so the bad byte is on line 3.
        path.write_bytes(b"\xef\xbb\xbf" + first_line + b"\r\n\r" + b"caf\xe9\n")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"


def tier_gap_report_from_records(rows, picks):
    """Average gap per minimum match count, and projections for the rest,
    as a one-pass loop over per-draw (draw index, match count) pairs."""
    first, last, hits = {}, {}, [0] * (picks + 1)
    for draw_index, match_count in rows:
        for tier in range(1, match_count + 1):
            first.setdefault(tier, draw_index)
            last[tier] = draw_index
            hits[tier] += 1
    tiers = range(1, picks + 1)
    observed = {t: (last[t] - first[t]) / (hits[t] - 1) for t in tiers if hits[t] >= 2}
    missing = [t for t in tiers if hits[t] < 2]
    projections = extrapolate_gaps(observed, missing) if len(observed) >= 2 and missing else {}
    return observed, projections


# name: (game, CLI flags, estimator, threshold)
DIFFERENTIAL_GAMES = {
    "set-2": (GameSpec(GameKind.SET_DRAW, 10, 2), ("--game", "set", "--pool", "10", "--picks", "2"),
              EstimatorConfig(EstimatorKind.MAIN_DIAGONAL), 1),
    "set-6": (GameSpec(GameKind.SET_DRAW, 52, 6), ("--game", "set", "--pool", "52", "--picks", "6"),
              EstimatorConfig(EstimatorKind.MOM), 2),
    "pick-1": (GameSpec(GameKind.POSITIONAL_DIGITS, 10, 1), ("--game", "pick", "--picks", "1"),
               EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1.0), 1),
    "pick-4": (GameSpec(GameKind.POSITIONAL_DIGITS, 10, 4), ("--game", "pick", "--picks", "4"),
               EstimatorConfig(EstimatorKind.MLE, mle_smoothing=0.5), 2),
}


class TestBacktestJsonMatchesDocumentDump:
    """The backtest JSON reads back as the whole document, built here from
    the result's columns, with one record per line, on histories of several
    chunks and on a one-record walk, read from a path that mimics the
    records key."""

    @pytest.mark.parametrize("game", sorted(DIFFERENTIAL_GAMES))
    @pytest.mark.parametrize("window", [None, 60])
    @pytest.mark.parametrize("draws", [1600, 61])
    def test_byte_identical(self, capsys, tmp_path, game, window, draws):
        spec, flags, estimator, threshold = DIFFERENTIAL_GAMES[game]
        history = synthetic_history(spec, draws, seed=draws + spec.picks)
        path = tmp_path / '"records": [],' / "history.csv"
        path.parent.mkdir()
        path.write_text(serialize_history(history), encoding="utf-8")
        argv = ["backtest", *flags, "--input", str(path), "--estimator", estimator.kind.value,
                "--smoothing", str(estimator.mle_smoothing), "--threshold", str(threshold),
                "--warmup", "60", "--window", "all" if window is None else str(window), "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        config = json.loads(out)["config"]
        assert config["input"] == str(path)

        result = run_backtest(history, estimator, window=window, warmup=60, hit_threshold=threshold)
        assert len(result.draw_indices) == draws - 60
        columns = (result.draw_indices, result.predictions, result.actuals, result.match_counts)
        records = [{"draw_index": t, "prediction": p, "actual": a, "match_count": m}
                   for t, p, a, m in zip(*(column.tolist() for column in columns))]
        observed, projections = tier_gap_report_from_records(
            ((r["draw_index"], r["match_count"]) for r in records), spec.picks)
        hits = [r["draw_index"] for r in records if r["match_count"] >= threshold]
        stats = gap_stats(hits)
        tiers = collections.Counter(r["match_count"] for r in records)
        document = {
            "config": config,
            "records": records,
            "hit_indices": hits,
            **stats,
            "stretch": classify_stretches(stats["gaps"]),
            "hit_count": len(hits),
            "tier_counts": {str(k): v for k, v in sorted(tiers.items())},
            "tier_average_gaps": {str(k): v for k, v in sorted(observed.items())},
            "projected_gaps": {str(k): v for k, v in sorted(projections.items())},
            "warmup": 60,
            "hit_threshold": threshold,
        }
        assert json.loads(out) == document
        assert_line_per_field_and_item(out, "records")


# sha256 of the reports on small seeded histories.  Any change to these
# bytes is a format or arithmetic change and must be versioned as one.  A JSON
# report's second digest pins its content alone, whatever the layout: the
# sha256 of json.dumps(json.loads(report), sort_keys=True).
GOLDEN_GAMES = {
    "set": (("--game", "set", "--pool", "52", "--picks", "6"), "60"),
    "pick": (("--game", "pick", "--picks", "3"), "20"),
}
GOLDEN_BACKTEST = {
    ("set", "md", "all"): (
        "074d56452f93a7656a9f87b46b630a24076b17391b1f4cbd3bd7276c8be25bc0",
        "366603a54f6a019153b144c884647c9be171128b40caff2f9774c06c0fed82ac"),
    ("set", "md", "N"): (
        "766abaf3e3a9fbc2ec7f4051ed77752362fea695ebee0ef91db71dbd0d8c6906",
        "563aca675e82a10139c1dbfd6c423a49d84b9078a1c68ee6a1f4985da5240643"),
    ("set", "mm", "all"): (
        "ad872a8cf68221e27aa4fbda96cc1f5039810cef388f26702d745ba8ef81c486",
        "ac28c471f9be4513041d412e41bf9323b452a5a6ec287756b3c133c7f01bddd3"),
    ("set", "mm", "N"): (
        "e7c9f640cd2c78a12e28cda2a4c5f336ff19cd17382d35999240534fd942f3b5",
        "26f7c4fcfa54de616150f1be48157cfbc2ef1fc040e2ee0f9330a97b80ca9338"),
    ("set", "mle", "all"): (
        "4c53147a90b55a2550a11bd28bf5270be8e95c2f484234540e17888eb3c3dd10",
        "1ee029533ba7aee337008886d48da4bbb721b8d0ee247cbc150e0d5833942043"),
    ("set", "mle", "N"): (
        "cb06f77c65a0e6269ac22a4a26ab7bdf9a7369ec42716c4762d38270b9e9e04b",
        "7d3dafdfb78380cdb5e494adc3ad1aeb4c2c3c40a8ec1fc721f0bf739568e4dd"),
    ("pick", "md", "all"): (
        "9da8338f39924768f0ee904f4833416d85b01b5f987c1fa6b710aeec7e01a9ed",
        "684dbe46c6433b670998b3ab91a85963af71ad777aa8e2b91af73d44cd6d0bd0"),
    ("pick", "md", "N"): (
        "cb1ffebdbf43a8c9c79978509015f8668f1c7d55fbdf4e9ee3ad00f0b357fdfb",
        "76697257608a5f61f307494342fe7c16435f5184e8899e78dc051b10ef0ef2b5"),
    ("pick", "mm", "all"): (
        "75d0217c7228cec0202e45ae59f58384c8a6df68d7becfd45e311f030a6ea390",
        "99419fe9bd0512bc48ff316eb40dbb0891bc0814d433b0dc7f37b4b6824227a7"),
    ("pick", "mm", "N"): (
        "87745b2670b31504497ffc1454b7952a66c4f4889bef90279e31f78b75ff2a06",
        "ba6cb14c3599224524870192a5b92eda92c4ee9118454adb38a7367e83387e4c"),
    ("pick", "mle", "all"): (
        "0308fca88aa2b41b21d21752bbc9f31441e890882fb8a72d1081c490325cd62e",
        "0fd9ae5adfb181ae75e3dfb85b72833165b90065965e7ac56d1a9584cf259645"),
    ("pick", "mle", "N"): (
        "fd593a3c770613e5b13bf5b5634f0b4b454d6c6aec3fac781b0d766efc4df493",
        "8d65f4fa033842c5bbc42cb9ac2acab81e0b153d0ce31f76f3fe66ce8a7e839a"),
}
GOLDEN_PREDICT = {
    "set": ("b84eb8e3fc2474b06f44c7e1919ef0be1166d96215337a98c1cf109182dbdf3c",
             "473b0a2e36836ac6d09dcc3b63895ddb4ff9769942767180fafee88e04475718"),
    "pick": ("ca158901f2398dc61fd6a978ac2b1a96194540d8456f5c3aedec0187bccea281",
             "db76521c08383321a814c8692be7d2503c5b3b51926b3f15c1176fc7b84576dc"),
}
# Reports on histories long enough to span several chunks of the batched
# walk, recorded before it was batched.
GOLDEN_MULTI_CHUNK = {
    ("backtest", "--game", "set", "--pool", "52", "--picks", "6", "--draws", "1700", "--seed", "41",
     "--estimator", "mm", "--window", "all", "--threshold", "2", "--format", "json"):
        ("f0dda217ba634e530bfedbbef2d06cfe76dcb757a286bda7d539b2cba792ac9e",
         "283263c6d72d8b4f11a4616b44166598b568f098c3e05dcd45736ffe7717ab38"),
    ("backtest", "--game", "pick", "--picks", "4", "--draws", "1700", "--seed", "42", "--estimator", "mle",
     "--smoothing", "1", "--window", "500", "--warmup", "500", "--threshold", "2", "--format", "text"):
        ("120b544f047afeb37a8d0a1169342812a8fd53f0f35bf42904ee0ab4b66873cd", None),
}
HITS = "0,44,659,1357,1369,1915,2039,3449,3685,4285"
# name: (config file text or None, argv, digests of report.json if the run
# writes it, else of stdout).  Each run starts in a directory holding
# history.csv, 120 draws of the set game at seed 12.
GOLDEN_RUNS = {
    "simulate-defaults": (
        None, ("simulate", "--gaps", "44,615,1410", "--format", "json"),
        ("ee5ceda9c11c63c31b18d031faba39507bfb96f98b9ead27115228064bea9125",
         "8ebffc7b93a8b44268fd8f4a398ce0cb8cf71178633280a555be9940e440d8e0")),
    "simulate-config": (
        "format = json\noutput = report.json\ngaps = 44, 615\nticket-price = 2.5\npayout = 400\n"
        "quarter_days = 30\nschedule = 1,3,7\nextension = ratio:2.4\naccounting = exact\n",
        ("simulate",),
        ("001b0582f2cf91eafd471c1f0659d772971c76fd8f93fd46e0c7dbd28cbd42bc",
         "94b74ecabb69189fc3d3f25b272766179a5854248b9bff75bdb754f89b739eab")),
    "hits-replay": (
        None, ("backtest", "--hits", HITS, "--format", "json"),
        ("2308b7c404073cd9ff4df0acef5da71f290ad257a9e3f0fde4bd81d459289760",
         "b938fd895b82c7fcdade88a14fb132c359f348e3a1054c107edcd5f4466bb8e2")),
    "synth": (
        None, ("synth", "--game", "pick", "--picks", "3", "--draws", "50", "--seed", "9",
               "--output", "draws.csv", "--format", "json"),
        ("8c7be4c8e386f889fee20a67359bc7fc84390e7613f65aefa5a3487970969a20",
         "a8edec7a6c313969df705e909cd42da6a46fe63038861b6c48b35e6e6970647c")),
    "backtest-config": (
        "game = set\npool = 52\npicks = 6\ndraws = 150\nseed = 13\nestimator = mm\nsmoothing = 0.5\n"
        "window = 40\nwarmup = 45\nthreshold = 2\nformat = json\n",
        ("backtest",),
        ("d4290bbc7fd14e467ff72d46850b775710c23c26d53985961827a987f840eac1",
         "65cd134dae04dc73cf193fd6aa4346d437e7534d39a81a79f13f866932b04afe")),
    "predict-config": (
        "game = set\npool = 52\npicks = 6\ninput = history.csv\nestimator = md,mm,mle\n"
        "smoothing = 1\nwindow = 60\nformat = json\n",
        ("predict",),
        ("e586cdf7ebec64cf879f46c776a6244ad6f24493deb6c2e5b207a199ccdf4847",
         "bcea6540643cf648489554a6a8b3ce5d6ec92ff32907044845facd0e52deee65")),
    "backtest-text": (
        None, ("backtest", *GOLDEN_GAMES["set"][0], "--draws", "150", "--seed", "11", "--threshold", "2"),
        ("38f81cacdd81f5fb893deacbd68b60fc3f2b90a6e4894850c5cb3fe7108287c9", None)),
    # Tiers 10 and up: the text lists them after tier 9, in integer order.
    "backtest-text-12-of-24": (
        None, ("backtest", "--game", "set", "--pool", "24", "--picks", "12", "--draws", "3000", "--seed", "1",
               "--estimator", "md", "--threshold", "8"),
        ("9e32c286c0758a57f8013eaababfdefd5441500fdf6d35629a543e912fa916cd", None)),
}


def assert_digests(data: bytes, digests):
    """The report's bytes match the first digest and, for a JSON report,
    its content matches the second."""
    digest, content = digests
    if content is not None:
        canonical = json.dumps(json.loads(data), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == content
    assert hashlib.sha256(data).hexdigest() == digest


def assert_stdout_digests(capsys, digests, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert_digests(out.encode(), digests)


class TestGoldenBytes:
    @pytest.mark.parametrize("game,estimator,window", sorted(GOLDEN_BACKTEST))
    def test_backtest_json(self, capsys, game, estimator, window):
        flags, width = GOLDEN_GAMES[game]
        argv = ["backtest", *flags, "--draws", "150", "--seed", "11", "--estimator", estimator,
                "--smoothing", "0.5", "--threshold", "2", "--format", "json"]
        argv += ["--window", "all"] if window == "all" else ["--window", width, "--warmup", width]
        assert_stdout_digests(capsys, GOLDEN_BACKTEST[game, estimator, window], *argv)

    @pytest.mark.parametrize("argv", sorted(GOLDEN_MULTI_CHUNK))
    def test_multi_chunk_backtest(self, capsys, argv):
        assert_stdout_digests(capsys, GOLDEN_MULTI_CHUNK[argv], *argv)

    @pytest.mark.parametrize("game", sorted(GOLDEN_PREDICT))
    def test_predict_json(self, capsys, tmp_path, monkeypatch, game):
        flags, _ = GOLDEN_GAMES[game]
        monkeypatch.chdir(tmp_path)  # the config echo records the input path as given
        assert main(["synth", *flags, "--draws", "120", "--seed", "12", "--output", "history.csv"]) == 0
        capsys.readouterr()  # drop the confirmation line
        assert_stdout_digests(capsys, GOLDEN_PREDICT[game], "predict", *flags, "--input", "history.csv",
                              "--estimator", "md,mm,mle", "--smoothing", "1", "--format", "json")

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_cli_run(self, capsys, tmp_path, monkeypatch, name):
        config, argv, digests = GOLDEN_RUNS[name]
        monkeypatch.chdir(tmp_path)  # the config echo records paths as given
        assert main(["synth", *GOLDEN_GAMES["set"][0], "--draws", "120", "--seed", "12",
                     "--output", "history.csv"]) == 0
        capsys.readouterr()  # drop the confirmation line
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = (*argv, "--config", "run.cfg")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        report = Path("report.json")
        data = report.read_bytes() if report.exists() else out.encode()
        assert_digests(data, digests)


# Runs each command of argv[2] (a JSON list of argv lists) through main() in
# one interpreter and prints, as JSON, the traced layers that importing the
# CLI left unloaded, whether that import changed the environment, whether
# numpy ran at each moment OPENBLAS_THREAD_TIMEOUT was set, and, per command,
# its exit code, whether numpy ran and the variable's value after it.
NUMPY_PROBE = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from tracer import TRACED

def numpy_ran():
    # Names only: reading an attribute of the deferred numpy module loads it.
    return any(name.startswith("numpy.") for name in sys.modules)

timeout_set = []
def audit(event, args):
    # os.environ writes go through os.putenv, which raises this event.
    if event == "os.putenv" and os.fsdecode(args[0]) == "OPENBLAS_THREAD_TIMEOUT":
        timeout_set.append(numpy_ran())
sys.addaudithook(audit)

def state(label, code):
    return [label, code, numpy_ran(), os.environ.get("OPENBLAS_THREAD_TIMEOUT")]

environ = dict(os.environ)
import cdmlotto.cli
report = {
    "unloaded_layers": [layer for layer in TRACED if "cdmlotto." + layer not in sys.modules],
    "import_changed_environ": dict(os.environ) != environ,
    "runs": [state("import cdmlotto.cli", 0)],
}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cdmlotto.cli.main(argv)
    report["runs"].append(state(" ".join(argv), code))
report["timeout_set_with_numpy_loaded"] = timeout_set
print(json.dumps(report))
"""


def run_probe(script, *args, **env):
    """A probe script's JSON report from a fresh interpreter, whose
    environment holds OPENBLAS_THREAD_TIMEOUT only when ``env`` sets it:
    in-process tests call main(), which leaves the variable set in this one."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    base["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**base, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNumpyFreePaths:
    """Staking replays, hits replays, help and usage errors use no arrays, so
    they never execute numpy; predict, the positive control, does.  Only
    main() touches the environment: it defaults OPENBLAS_THREAD_TIMEOUT
    before numpy loads and keeps a value already set."""

    def test_only_array_commands_load_numpy(self, capsys, tmp_path):
        flags = list(GOLDEN_GAMES["set"][0])
        history, report = tmp_path / "history.csv", tmp_path / "bt.json"
        assert main(["synth", *flags, "--draws", "200", "--seed", "3", "--output", str(history)]) == 0
        assert main(["backtest", *flags, "--input", str(history), "--threshold", "2",
                     "--format", "json", "--output", str(report)]) == 0
        capsys.readouterr()
        numpy_free = [
            ["simulate", "--gaps", "44,615,44", "--format", "json"],
            ["simulate", "--gaps-file", str(report)],
            ["simulate", "--no-win-horizon", "240", "--accounting", "exact", "--format", "json"],
            ["backtest", "--hits", HITS, "--format", "json"],
            ["backtest", "--hits-file", str(report)],
            ["--help"],
            ["simulate", "--gaps", "44", "--no-win-horizon", "10"],
        ]
        control = ["predict", *flags, "--input", str(history), "--estimator", "mle", "--smoothing", "1"]
        probe = run_probe(NUMPY_PROBE, str(ROOT / "perfbench"), json.dumps([*numpy_free, control]))
        assert probe["unloaded_layers"] == []
        assert probe["import_changed_environ"] is False
        # Set once, by the first main(), while numpy was still unloaded.
        assert probe["timeout_set_with_numpy_loaded"] == [False]
        expected = [["import cdmlotto.cli", 0, False, None]]
        expected += [[" ".join(argv), 2 if argv[-1] == "10" else 0, False, "4"] for argv in numpy_free]
        expected += [[" ".join(control), 0, True, "4"]]
        assert probe["runs"] == expected

    def test_a_preset_thread_timeout_survives_main(self):
        command = ["backtest", *GOLDEN_GAMES["set"][0], "--draws", "100", "--seed", "1"]
        probe = run_probe(NUMPY_PROBE, str(ROOT / "perfbench"), json.dumps([command]), OPENBLAS_THREAD_TIMEOUT="10")
        assert probe["import_changed_environ"] is False
        assert probe["timeout_set_with_numpy_loaded"] == []
        assert probe["runs"] == [["import cdmlotto.cli", 0, False, "10"], [" ".join(command), 0, True, "10"]]


# Runs one set-game backtest through main() and prints, as JSON, the
# process's thread count and the CPU clock ticks (utime + stime, fields 14
# and 15 of /proc/self/task/*/stat) of every thread but the main one.
IDLE_BLAS_PROBE = """
import contextlib, io, json, os
import cdmlotto.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cdmlotto.cli.main(["backtest", "--game", "set", "--pool", "52", "--picks", "6",
                              "--draws", "300", "--seed", "1", "--threshold", "2"])
threads, ticks = 0, 0
for tid in os.listdir("/proc/self/task"):
    threads += 1
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()  # fields 3 onward
        ticks += int(fields[11]) + int(fields[12])
print(json.dumps({"code": code, "threads": threads, "worker_ticks": ticks}))
"""


def numpy_uses_openblas():
    import numpy

    # numpy 1.24 and 1.25 have no CONFIG.
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times from /proc")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no worker on one core")
@pytest.mark.skipif(not numpy_uses_openblas(), reason="numpy does not report OpenBLAS")
def test_idle_blas_workers_stay_idle():
    """The CLI sends OpenBLAS no work, so its pool workers must sleep, not
    spin: at the OpenBLAS default a 300-draw backtest's worker burns 6-12
    ticks at 100 Hz.  The user's thread count still starts the pool."""
    probe = run_probe(IDLE_BLAS_PROBE, OPENBLAS_NUM_THREADS="2")
    assert probe["code"] == 0
    assert probe["threads"] >= 2
    assert probe["worker_ticks"] <= 3
