"""Command-line behavior: subcommand output, exit codes, config precedence,
and the JSON round trips between subcommands."""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdmlotto.cli import build_parser, main, parse_args
from cdmlotto.ingest import GameKind, GameSpec, parse_history, serialize_history


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert len(history.records) == 100

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
        assert document["generator"] == "pcg64"
        assert document["config"]["seed"] == 1

    def test_invalid_spec_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--game", "set", "--pool", "6", "--picks", "6", "--draws", "5")
        assert code == 2
        assert "picks" in err


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

    def test_threshold_above_picks_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "300", "--seed", "5", "--threshold", "7")
        assert code == 2

    def test_unsmoothed_mle_is_a_model_error(self, capsys):
        code, _, err = run(capsys, "backtest", "--game", "set", "--pool", "52", "--picks", "6",
                           "--draws", "300", "--seed", "5", "--estimator", "mle", "--threshold", "2")
        assert code == 1
        assert "draw" in err

    def test_hits_replay_reports_the_reference_average(self, capsys):
        code, out, _ = run(capsys, "backtest",
                           "--hits", "0,44,659,1357,1369,1915,2039,3449,3685,4285")
        assert code == 0
        assert "average gap: 476.111 (rounded 476)" in out
        assert "S L L S L S L S L" in out
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

    def test_requires_exactly_one_gap_source(self, capsys):
        code, _, err = run(capsys, "simulate", "--gaps", "44", "--no-win-horizon", "10")
        assert code == 2

    def test_ratio_extension_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gaps", "1410", "--extension", "ratio:2.4",
                           "--format", "json")
        assert code == 0
        document = json.loads(out)
        players = [q["players"] for q in document["streams"][0]["quarters"]]
        assert players[:5] == [1, 2, 5, 12, 29]  # ceil(2.4 * 12)


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


class TestStrictValues:
    """Integers follow the history files' ASCII-digit rule; money and
    smoothing must be finite.  Without those rules most of these commands
    exit 0 or crash."""

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

    @pytest.mark.parametrize("name", ["gaps.txt", "hits.txt"])
    def test_integer_list_files_follow_the_same_rule(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_text("٣ 1_0 +20\n", encoding="utf-8")
        argv = ("simulate", "--gaps-file") if name == "gaps.txt" else ("backtest", "--hits-file")
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2
        assert "expected JSON or an integer list" in err

    @pytest.mark.parametrize("argv,text", [
        (("simulate", "--gaps-file"), "[true, 44]"),
        (("simulate", "--gaps-file"), '{"gaps": [44, -3]}'),
        (("backtest", "--hits-file"), '{"hit_indices": [-3, 7]}'),
        (("backtest", "--hits-file"), "[1, false]"),
    ])
    def test_json_integer_lists_follow_the_same_rule(self, capsys, tmp_path, argv, text):
        path = tmp_path / "series.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert "expected a list of nonnegative integers" in err

    @pytest.mark.parametrize("flag,value", [("--payout", "inf"), ("--ticket-price", "1e400"),
                                            ("--payout", "1e307"), ("--ticket-price", "nan")])
    def test_non_finite_money_is_a_usage_error(self, capsys, flag, value):
        code, _, err = run(capsys, "simulate", "--gaps", "10", flag, value)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_smoothing_must_be_finite_and_nonnegative(self, capsys, history_csv, value):
        code, out, err = run(capsys, "predict", "--game", "set", "--pool", "52", "--picks", "6",
                             "--input", str(history_csv), "--estimator", "mm",
                             "--smoothing", value, "--format", "json")
        assert code == 2
        assert out == ""
        assert "mle_smoothing" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_hits_replay_smoothing_must_be_finite_and_nonnegative(self, capsys, value):
        # A hits replay fits no estimator, so only the flag's converter sees the value.
        code, out, err = run(capsys, "backtest", "--hits", "1,5", "--smoothing", value, "--format", "json")
        assert code == 2
        assert out == ""
        assert "mle_smoothing" in err


# Every flag whose value is a number, with a fast command that takes it.
NUMERIC_FLAGS = {
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

# Short text keeps integer values, and so the work they ask for, small.
numeric_text = st.one_of(
    st.text(max_size=3),
    st.floats().map(repr),
    st.integers(-3, 300).map(str),
    st.sampled_from(["-inf", "1e307", "-0", "1_0", "+4", "٣", "0x10", " 7 ", ""]),
)


class TestNumericFlagsNeverCrash:
    @pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
    @settings(max_examples=25, deadline=None)
    @given(value=numeric_text)
    @example(value="inf")
    @example(value="nan")
    @example(value="1e400")
    def test_any_text_exits_0_1_or_2(self, flag, value):
        command, *rest = NUMERIC_FLAGS[flag]
        argv = [command, *rest, f"{flag}={value}", "--format", "json"]
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


# sha256 of the JSON reports on small seeded histories.  Any change to these
# bytes is a format or arithmetic change and must be versioned as one.
GOLDEN_GAMES = {
    "set": (("--game", "set", "--pool", "52", "--picks", "6"), "60"),
    "pick": (("--game", "pick", "--picks", "3"), "20"),
}
GOLDEN_BACKTEST = {
    ("set", "md", "all"): "6eb0d3ea2001c9e6d6f4d37c6f546fde0c826388fbc7204169821e9352ed7605",
    ("set", "md", "N"): "a951b27ff32b8d71ed33fbe9ba74fe313cd66eb35cc0bad42fd3c03fb57def77",
    ("set", "mm", "all"): "d98ec7d80d61545b09012f60270a00dc6c21c1da9214f758664f84fc010591c2",
    ("set", "mm", "N"): "7dcec1d650ec8ffff6a6c443cb63169d59e0270a4b71471ae1b92346c2692195",
    ("set", "mle", "all"): "1d975a1617f78dea2c1b2fa18c4a7e6319f1c8016b072ef6ec7364de9223bb82",
    ("set", "mle", "N"): "8ab938568d9af445ae9a90d0c7ca5db50b9fac4f738fe6d334811453f3e3b84b",
    ("pick", "md", "all"): "961ef8950285fc840c3f0a242f2f5cf9f014f787d4d6ea7c2ce3228218f6ee69",
    ("pick", "md", "N"): "d3bde96360b6d0a792dd4674fca9671f51da29392035cdbc131021bb100a333b",
    ("pick", "mm", "all"): "b576eee92bbe8cef0d5e9737e45b9c44be2ff0dfb6e1ab2a82c56d9b575fef80",
    ("pick", "mm", "N"): "14869efa151eea822c03e891082823a6fdd8ef72ef22642f47cacaf83edec209",
    ("pick", "mle", "all"): "0f43346837fcf2b0672fb28884c5712022e0ef0fdbfbaaf9ef187fb8def641e6",
    ("pick", "mle", "N"): "8139eaa0ab2ceaa1c9f41facb9c9a1069f087980463299f8df5d6d885af634d1",
}
GOLDEN_PREDICT = {
    "set": "4d345479a0e463fec4d47766effc0637e917cdfcebfdae960d1aef3567c82fc2",
    "pick": "79b553fd007f3795a91681280af0e5d0e6e5be8104edfd3809b2134215e0587a",
}
# Reports on histories long enough to span several chunks of the batched
# walk, recorded before it was batched.
GOLDEN_MULTI_CHUNK = {
    ("backtest", "--game", "set", "--pool", "52", "--picks", "6", "--draws", "1700", "--seed", "41",
     "--estimator", "mm", "--window", "all", "--threshold", "2", "--format", "json"):
        "c8ddf6335dec6871e4e8f96348d4a7b99daa37351cf78d74dbf6241a7128d782",
    ("backtest", "--game", "pick", "--picks", "4", "--draws", "1700", "--seed", "42", "--estimator", "mle",
     "--smoothing", "1", "--window", "500", "--warmup", "500", "--threshold", "2", "--format", "text"):
        "120b544f047afeb37a8d0a1169342812a8fd53f0f35bf42904ee0ab4b66873cd",
}
HITS = "0,44,659,1357,1369,1915,2039,3449,3685,4285"
# name: (config file text or None, argv, sha256 of report.json if the run
# writes it, else of stdout).  Each run starts in a directory holding
# history.csv, 120 draws of the set game at seed 12.
GOLDEN_RUNS = {
    "simulate-defaults": (
        None, ("simulate", "--gaps", "44,615,1410", "--format", "json"),
        "f59b94fa7ee6170a9a752e210a0efbbaddf29c032182edf26d96d8b9e5eb59e0"),
    "simulate-config": (
        "format = json\noutput = report.json\ngaps = 44, 615\nticket-price = 2.5\npayout = 400\n"
        "quarter_days = 30\nschedule = 1,3,7\nextension = ratio:2.4\naccounting = exact\n",
        ("simulate",),
        "0c390781920c72093cc3c1815dd2caac04ae187da10409944b74116f0892c99b"),
    "hits-replay": (
        None, ("backtest", "--hits", HITS, "--format", "json"),
        "0af13e0f7edf3e07b59e58c6ebb77b377e1d619a42042ee70a727478e2fd9093"),
    "synth": (
        None, ("synth", "--game", "pick", "--picks", "3", "--draws", "50", "--seed", "9",
               "--output", "draws.csv", "--format", "json"),
        "0866f05ee2dc98c6b0a5c15c9488ff75248110eb1c5342e6291a10c62b2f561b"),
    "backtest-config": (
        "game = set\npool = 52\npicks = 6\ndraws = 150\nseed = 13\nestimator = mm\nsmoothing = 0.5\n"
        "window = 40\nwarmup = 45\nthreshold = 2\nformat = json\n",
        ("backtest",),
        "dc22a4e3855d356408eba050a21f394c750b42562e8fe37a02fd8c940dc7fdda"),
    "predict-config": (
        "game = set\npool = 52\npicks = 6\ninput = history.csv\nestimator = md,mm,mle\n"
        "smoothing = 1\nwindow = 60\nformat = json\n",
        ("predict",),
        "53d8066816878dc78f5ef8190ad49fed59e6c4817a6c2e51811c776f68aeeb96"),
    "backtest-text": (
        None, ("backtest", *GOLDEN_GAMES["set"][0], "--draws", "150", "--seed", "11", "--threshold", "2"),
        "818f5a2e9402321ad06ab1211d7fc3b17df35f784a98012473f9a132a5f05a44"),
}


def sha256_of_stdout(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return hashlib.sha256(out.encode()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("game,estimator,window", sorted(GOLDEN_BACKTEST))
    def test_backtest_json(self, capsys, game, estimator, window):
        flags, width = GOLDEN_GAMES[game]
        argv = ["backtest", *flags, "--draws", "150", "--seed", "11", "--estimator", estimator,
                "--smoothing", "0.5", "--threshold", "2", "--format", "json"]
        argv += ["--window", "all"] if window == "all" else ["--window", width, "--warmup", width]
        assert sha256_of_stdout(capsys, *argv) == GOLDEN_BACKTEST[game, estimator, window]

    @pytest.mark.parametrize("argv", sorted(GOLDEN_MULTI_CHUNK))
    def test_multi_chunk_backtest(self, capsys, argv):
        assert sha256_of_stdout(capsys, *argv) == GOLDEN_MULTI_CHUNK[argv]

    @pytest.mark.parametrize("game", sorted(GOLDEN_PREDICT))
    def test_predict_json(self, capsys, tmp_path, monkeypatch, game):
        flags, _ = GOLDEN_GAMES[game]
        monkeypatch.chdir(tmp_path)  # the config echo records the input path as given
        assert main(["synth", *flags, "--draws", "120", "--seed", "12", "--output", "history.csv"]) == 0
        capsys.readouterr()  # drop the confirmation line
        digest = sha256_of_stdout(capsys, "predict", *flags, "--input", "history.csv",
                                  "--estimator", "md,mm,mle", "--smoothing", "1", "--format", "json")
        assert digest == GOLDEN_PREDICT[game]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_cli_run(self, capsys, tmp_path, monkeypatch, name):
        config, argv, digest = GOLDEN_RUNS[name]
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
        assert hashlib.sha256(data).hexdigest() == digest
