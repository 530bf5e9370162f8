"""History parsing, validation, matrix construction, and windowing."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlotto.ingest import (
    DrawHistory,
    DrawRecord,
    GameKind,
    GameSpec,
    HistoryParseError,
    HistoryValidationError,
    build_count_matrices,
    parse_history,
    serialize_history,
    slice_window,
    synthetic_history,
)

SIX_52 = GameSpec(GameKind.SET_DRAW, 52, 6)
PICK3 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 3)


class TestGameSpec:
    def test_set_draw_needs_picks_below_pool(self):
        with pytest.raises(ValueError):
            GameSpec(GameKind.SET_DRAW, 6, 6)
        with pytest.raises(ValueError):
            GameSpec(GameKind.SET_DRAW, 52, 1)

    def test_pick_games_use_ten_digits(self):
        with pytest.raises(ValueError):
            GameSpec(GameKind.POSITIONAL_DIGITS, 9, 3)
        with pytest.raises(ValueError):
            GameSpec(GameKind.POSITIONAL_DIGITS, 10, 7)
        GameSpec(GameKind.POSITIONAL_DIGITS, 10, 4)  # pick-4 is a config away


class TestParseHistory:
    def test_set_draw_row(self):
        history = parse_history("1,,3 7 22 31 45 46", SIX_52)
        assert history.records == (DrawRecord(1, None, (3, 7, 22, 31, 45, 46)),)

    def test_pick_row_allows_repeats(self):
        history = parse_history("0,,5 5 9", PICK3)
        assert history.records == (DrawRecord(0, None, (5, 5, 9)),)

    def test_wrong_arity_is_a_validation_error(self):
        with pytest.raises(HistoryValidationError, match="line 1"):
            parse_history("0,,5 5 9", SIX_52)

    def test_duplicate_in_set_draw_rejected(self):
        with pytest.raises(HistoryValidationError, match="duplicate"):
            parse_history("0,,3 3 22 31 45 46", SIX_52)

    def test_out_of_range_number_rejected(self):
        with pytest.raises(HistoryValidationError, match="line 1"):
            parse_history("0,,3 7 22 31 45 53", SIX_52)
        with pytest.raises(HistoryValidationError):
            parse_history("0,,0 7 22 31 45 46", SIX_52)

    def test_malformed_numbers_is_a_parse_error(self):
        with pytest.raises(HistoryParseError, match="line 2"):
            parse_history("0,,1 2 3\n1,,4 x 6", PICK3)

    def test_missing_fields_is_a_parse_error(self):
        # The first line is a header only when its first field is
        # ``draw_index``, so such a row fails on any line; probe a later one.
        with pytest.raises(HistoryParseError, match="line 2"):
            parse_history("0,,1 2 3\n1;4 5 6", PICK3)

    def test_header_detected_and_skipped(self):
        history = parse_history("draw_index,date,numbers\n0,,1 2 3", PICK3)
        assert len(history.records) == 1

    def test_non_integer_index_after_data_is_an_error(self):
        with pytest.raises(HistoryParseError, match="line 2"):
            parse_history("0,,1 2 3\noops,,4 5 6", PICK3)

    def test_crlf_and_blank_lines(self):
        history = parse_history("0,,1 2 3\r\n\r\n1,,4 5 6\r\n", PICK3)
        assert [r.numbers for r in history.records] == [(1, 2, 3), (4, 5, 6)]

    def test_indices_must_be_contiguous(self):
        with pytest.raises(HistoryValidationError, match="does not follow"):
            parse_history("0,,1 2 3\n2,,4 5 6", PICK3)

    @pytest.mark.parametrize("text,error,message", [
        ("0,,1 2 3\n\n1,,1 2 13\n2,,x\n", HistoryValidationError, "line 3: digit 13 outside 0..9"),
        ("0,,1 2 3\n1,,x\n2,,1 2 13\n", HistoryParseError, "line 2: numbers field 'x'"),
        ("0,,1 2 3\n2,,1 2 3\n3,,1 2\n", HistoryValidationError, "line 2: draw index 2 does not follow 0"),
        ("draw_index,date,numbers\n0,,1 2 3\n1,,1 2\n", HistoryValidationError, "line 3: expected 3 numbers"),
    ])
    def test_first_bad_line_in_file_order_is_reported(self, text, error, message):
        with pytest.raises(error) as excinfo:
            parse_history(text, PICK3)
        assert str(excinfo.value).startswith(message)

    def test_dates_are_passed_through(self):
        history = parse_history("0,2022-07-09,1 2 3", PICK3)
        assert history.records[0].date == "2022-07-09"

    def test_accepts_line_iterables(self):
        with_lines = parse_history(["0,,1 2 3\n", "1,,4 5 6\n"], PICK3)
        assert len(with_lines.records) == 2

    def test_round_trip(self):
        text = "0,2022-01-01,3 7 22 31 45 46\n1,,1 2 3 4 5 6\n2,2022-01-02,47 48 49 50 51 52\n"
        history = parse_history(text, SIX_52)
        assert serialize_history(history) == text
        assert parse_history(serialize_history(history), SIX_52) == history

    def test_synthetic_round_trip(self):
        for spec in (SIX_52, PICK3):
            history = synthetic_history(spec, 40, seed=13)
            assert parse_history(serialize_history(history), spec) == history

    @pytest.mark.parametrize("date", ["Jan 1, 2022", "2022\n01", "2022\r", ""])
    def test_dates_that_cannot_be_written_back_are_refused(self, date):
        history = DrawHistory(PICK3, (DrawRecord(6, "ok", (1, 2, 3)), DrawRecord(7, date, (4, 5, 6))))
        with pytest.raises(ValueError, match="draw 7: date"):
            serialize_history(history)


# Dates from any text, plus characters that ``str.splitlines`` breaks at
# but a text file keeps inside a line.
dates = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))


@st.composite
def histories(draw):
    spec = draw(st.sampled_from([SIX_52, PICK3]))
    first = draw(st.integers(0, 10**6))
    records = []
    for index in range(first, first + draw(st.integers(1, 5))):
        if spec.kind is GameKind.SET_DRAW:
            numbers = draw(st.lists(st.integers(1, 52), min_size=6, max_size=6, unique=True))
        else:
            numbers = draw(st.lists(st.integers(0, 9), min_size=3, max_size=3))
        records.append(DrawRecord(index, draw(dates), tuple(numbers)))
    return DrawHistory(spec, tuple(records))


class TestRoundTripProperty:
    @settings(max_examples=300)
    @given(histories())
    def test_serialized_history_parses_back_or_is_refused(self, history):
        try:
            text = serialize_history(history)
        except ValueError:
            assert any(r.date == "" or (r.date and any(c in r.date for c in ",\r\n")) for r in history.records)
            return
        assert parse_history(text, history.spec) == history
        # The same text read as a UTF-8 file.
        handle = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8-sig")
        assert parse_history(handle, history.spec) == history


class TestDrawHistoryInvariants:
    def test_records_must_satisfy_spec(self):
        with pytest.raises(HistoryValidationError):
            DrawHistory(SIX_52, (DrawRecord(0, None, (1, 2, 3)),))

    def test_indices_must_step_by_one(self):
        records = (DrawRecord(0, None, (1, 2, 3)), DrawRecord(5, None, (4, 5, 6)))
        with pytest.raises(HistoryValidationError):
            DrawHistory(PICK3, records)


class TestBuildCountMatrices:
    def test_set_draw_rows_are_indicators(self):
        history = parse_history("0,,7 13 22 31 45 46", SIX_52)
        (matrix,) = build_count_matrices(history)
        row = matrix.counts[0]
        assert row.sum() == 6
        assert all(row[n - 1] == 1 for n in (7, 13, 22, 31, 45, 46))
        assert matrix.row_total == 6

    def test_pick_rows_are_one_hot_per_position(self):
        history = parse_history("0,,5 5 9", PICK3)
        matrices = build_count_matrices(history)
        assert len(matrices) == 3
        assert [int(np.argmax(m.counts[0])) for m in matrices] == [5, 5, 9]
        assert all(m.row_total == 1 for m in matrices)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            build_count_matrices(DrawHistory(SIX_52, ()))

    def test_column_sums_match_direct_tally(self):
        history = synthetic_history(SIX_52, 200, seed=2)
        (matrix,) = build_count_matrices(history)
        assert np.isin(matrix.counts, (0, 1)).all()
        assert (matrix.counts.sum(axis=1) == 6).all()
        tally = np.zeros(52, dtype=int)
        for record in history.records:
            for n in record.numbers:
                tally[n - 1] += 1
        np.testing.assert_array_equal(matrix.col_sums, tally)

    def test_pick_column_sums_match_digit_tally(self):
        history = synthetic_history(PICK3, 150, seed=8)
        matrices = build_count_matrices(history)
        for position, matrix in enumerate(matrices):
            tally = np.zeros(10, dtype=int)
            for record in history.records:
                tally[record.numbers[position]] += 1
            np.testing.assert_array_equal(matrix.col_sums, tally)


class TestSliceWindow:
    @pytest.fixture
    def matrix(self):
        return build_count_matrices(synthetic_history(PICK3, 5, seed=1))[0]

    def test_all_rows(self, matrix):
        window = slice_window(matrix, end=5)
        np.testing.assert_array_equal(window.counts, matrix.counts)

    def test_partial_window(self, matrix):
        window = slice_window(matrix, end=3, width=2)
        np.testing.assert_array_equal(window.counts, matrix.counts[1:3])

    def test_insufficient_rows(self, matrix):
        with pytest.raises(ValueError):
            slice_window(matrix, end=2, width=3)

    def test_end_out_of_range(self, matrix):
        with pytest.raises(ValueError):
            slice_window(matrix, end=6)
        with pytest.raises(ValueError):
            slice_window(matrix, end=0)


class TestSyntheticHistory:
    def test_is_reproducible(self):
        a = synthetic_history(SIX_52, 50, seed=21)
        b = synthetic_history(SIX_52, 50, seed=21)
        assert a == b

    def test_different_seeds_differ(self):
        a = synthetic_history(SIX_52, 50, seed=21)
        b = synthetic_history(SIX_52, 50, seed=22)
        assert a != b

    def test_rows_are_valid_draws(self):
        history = synthetic_history(SIX_52, 100, seed=0)
        for record in history.records:
            assert len(set(record.numbers)) == 6
            assert all(1 <= n <= 52 for n in record.numbers)
            assert record.numbers == tuple(sorted(record.numbers))

    def test_pick_rows_are_digits(self):
        history = synthetic_history(PICK3, 100, seed=0)
        for record in history.records:
            assert len(record.numbers) == 3
            assert all(0 <= d <= 9 for d in record.numbers)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthetic_history(SIX_52, 0, seed=0)


class TestStrictIngest:
    """Inputs that used to be dropped or reinterpreted without a word."""

    @staticmethod
    def cli(*argv):
        from cdmlotto.cli import main

        return main(list(argv))

    def test_byte_order_mark_is_not_a_header(self):
        with pytest.raises(HistoryParseError, match="line 1"):
            parse_history("\ufeff0,,1 2 3\n1,,4 5 6\n", PICK3)

    def test_cli_reads_byte_order_marked_files(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(serialize_history(synthetic_history(PICK3, 30, seed=3)), encoding="utf-8")
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        config = tmp_path / "run.cfg"
        config.write_text("estimator = md\n", encoding="utf-8-sig")
        reports = []
        for path in (plain, marked):
            assert self.cli("backtest", "--game", "pick", "--picks", "3", "--input", str(path),
                            "--threshold", "1", "--format", "json") == 0
            reports.append(json.loads(capsys.readouterr().out)["records"])
        assert reports[0] == reports[1] and reports[0][0]["draw_index"] == 10
        assert self.cli("predict", "--config", str(config), "--game", "pick", "--picks", "3",
                        "--input", str(marked)) == 0
        assert capsys.readouterr().out.strip().endswith("[MD]")

    def test_first_row_typo_is_not_a_header(self, tmp_path, capsys):
        text = "O,,1 2 3\n1,,4 5 6\n"
        with pytest.raises(HistoryParseError, match="line 1"):
            parse_history(text, PICK3)
        path = tmp_path / "typo.csv"
        path.write_text(text, encoding="utf-8")
        assert self.cli("predict", "--game", "pick", "--picks", "3", "--input", str(path)) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,spec", [
        ("9,,1 2 3\n1_0,,4 5 6\n", PICK3),
        ("3,,1 2 3\n+4,,4 5 6\n", PICK3),
        ("0,,1 2 3\n\u0661,,4 5 6\n", PICK3),
        ("0,,1 2 3 4 5 6\n1,,1_0 2 3 4 5 6\n", SIX_52),
        ("0,,1 2 3\n1,,4 +5 6\n", PICK3),
        ("0,,1 2 3\n1,,4 \u0665 6\n", PICK3),
    ])
    def test_only_ascii_digits_are_integers(self, tmp_path, capsys, text, spec):
        with pytest.raises(HistoryParseError, match="line 2"):
            parse_history(text, spec)
        path = tmp_path / "history.csv"
        path.write_text(text, encoding="utf-8")
        flags = ["--game", "pick", "--picks", "3"] if spec is PICK3 else ["--pool", "52", "--picks", "6"]
        assert self.cli("predict", *flags, "--input", str(path)) == 2
        assert "line 2" in capsys.readouterr().err
