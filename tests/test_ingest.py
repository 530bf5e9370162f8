"""History parsing, validation, matrix construction, and windowing."""

import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlotto import ingest
from cdmlotto.ingest import (
    DrawHistory,
    GameKind,
    GameSpec,
    HistoryParseError,
    HistoryValidationError,
    build_count_matrices,
    is_digits,
    parse_history,
    serialize_history,
    slice_window,
    synthetic_history,
)

SIX_52 = GameSpec(GameKind.SET_DRAW, 52, 6)
PICK3 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 3)
# More digits than Python's int() converts by default (4,300).
HUGE = "9" * 5000
PADDING = "0" * 5000
LONG = "x" * 5000


def history_rows(history):
    """The history as plain (draw index, date, numbers) tuples, one per draw."""
    return tuple(zip(history.draw_indices.tolist(), history.dates, map(tuple, history.numbers.tolist())))


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
        assert history_rows(history) == ((1, None, (3, 7, 22, 31, 45, 46)),)

    def test_pick_row_allows_repeats(self):
        history = parse_history("0,,5 5 9", PICK3)
        assert history_rows(history) == ((0, None, (5, 5, 9)),)

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
        assert len(history) == 1

    def test_non_integer_index_after_data_is_an_error(self):
        with pytest.raises(HistoryParseError, match="line 2"):
            parse_history("0,,1 2 3\noops,,4 5 6", PICK3)

    def test_crlf_and_blank_lines(self):
        history = parse_history("0,,1 2 3\r\n\r\n1,,4 5 6\r\n", PICK3)
        assert history.numbers.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_indices_must_be_contiguous(self):
        with pytest.raises(HistoryValidationError, match="does not follow"):
            parse_history("0,,1 2 3\n2,,4 5 6", PICK3)

    @pytest.mark.parametrize("text,error,message", [
        ("0,,1 2 3\n\n1,,1 2 13\n2,,x\n", HistoryValidationError, "line 3: digit 13 outside 0..9"),
        ("0,,1 2 3\n1,,x\n2,,1 2 13\n", HistoryParseError, "line 2: numbers field 'x'"),
        ("0,,1 2 3\n2,,1 2 3\n3,,1 2\n", HistoryValidationError, "line 2: draw index 2 does not follow 0"),
        ("draw_index,date,numbers\n0,,1 2 3\n1,,1 2\n", HistoryValidationError, "line 3: expected 3 numbers"),
        ("0,,1 2 3\n2,,1 2 13\n", HistoryValidationError, "line 2: digit 13 outside 0..9"),
        ("0,,1 2 3\n1,,4 5 \ud800\n", HistoryParseError, "line 2: numbers field '4 5 \\ud800'"),
        # Past 4,300 digits int() refuses a value, so these are named from their text; past
        # 100 digits a value is shown by its first 10 digits and its digit count.
        pytest.param(f"{HUGE},,1 2 3\n", HistoryValidationError,
                     "line 1: draw index 9999999999... of 5000 digits does not fit in 64 bits", id="huge-first-index"),
        pytest.param(f"0,,1 2 3\n{HUGE},,4 5 6\n", HistoryValidationError,
                     "line 2: draw index 9999999999... of 5000 digits does not follow 0", id="huge-index"),
        pytest.param(f"0,,1 2 3\n1,,4 {HUGE} 6\n", HistoryValidationError,
                     "line 2: digit 9999999999... of 5000 digits outside 0..9", id="huge-digit"),
        pytest.param(f"0,,1 2 3\n{PADDING}2,,4 5 {PADDING}6\n", HistoryValidationError,
                     "line 2: draw index 2 does not follow 0", id="long-zero-padding"),
        # A field past 100 characters is shown by its head and length, so the message stays short.
        pytest.param(f"0,,1 2 3\n1,,{LONG}\n", HistoryParseError, "line 2: numbers field 'xxxxxxxxxx'... "
                     "of 5000 characters is not a space-separated integer list", id="long-numbers"),
        pytest.param(f"0,,1 2 3\n{LONG},,4 5 6\n", HistoryParseError, "line 2: draw index 'xxxxxxxxxx'... "
                     "of 5000 characters is not an integer of ASCII digits", id="long-index"),
        pytest.param(f"0,,1 2 3\n{LONG}\n", HistoryParseError, "line 2: expected 'draw_index,date,numbers', "
                     "got 'xxxxxxxxxx'... of 5000 characters", id="long-row"),
    ])
    def test_first_bad_line_in_file_order_is_reported(self, text, error, message):
        with pytest.raises(error) as excinfo:
            parse_history(text, PICK3)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("digits,shown", [(100, "9" * 100), (101, "9999999999... of 101 digits"),
                                              (5000, "9999999999... of 5000 digits")])
    def test_a_long_number_is_shown_by_its_head_and_digit_count(self, digits, shown):
        # Leading zeros are not digits of the value.
        for text, message in [
            (f"0,,1 2 3 4 5 6\n1,,7 8 9 10 11 00{'9' * digits}\n", f"line 2: number {shown} outside the pool 1..52"),
            (f"0,,1 2 3 4 5 6\n00{'9' * digits},,7 8 9 10 11 12\n", f"line 2: draw index {shown} does not follow 0"),
        ]:
            with pytest.raises(HistoryValidationError) as excinfo:
                parse_history(text, GameSpec(GameKind.SET_DRAW, 52, 6))
            assert str(excinfo.value) == message

    def test_dates_are_passed_through(self):
        history = parse_history("0,2022-07-09,1 2 3", PICK3)
        assert history.dates == ("2022-07-09",)

    def test_accepts_line_iterables(self):
        with_lines = parse_history(["0,,1 2 3\n", "1,,4 5 6\n"], PICK3)
        assert len(with_lines) == 2

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
        history = DrawHistory(PICK3, np.array([6, 7]), np.array([[1, 2, 3], [4, 5, 6]]), ("ok", date))
        with pytest.raises(ValueError, match="draw 7: date"):
            serialize_history(history)


# Dates from any text, plus characters that ``str.splitlines`` breaks at
# but a text file keeps inside a line.
dates = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))


@st.composite
def histories(draw):
    spec = draw(st.sampled_from([SIX_52, PICK3]))
    first = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 5))
    if spec.kind is GameKind.SET_DRAW:
        row = st.lists(st.integers(1, 52), min_size=6, max_size=6, unique=True)
    else:
        row = st.lists(st.integers(0, 9), min_size=3, max_size=3)
    numbers = draw(st.lists(row, min_size=n, max_size=n))
    return DrawHistory(spec, np.arange(first, first + n), np.array(numbers), tuple(draw(dates) for _ in range(n)))


class TestRoundTripProperty:
    @settings(max_examples=300)
    @given(histories())
    def test_serialized_history_parses_back_or_is_refused(self, history):
        try:
            text = serialize_history(history)
        except ValueError:
            assert any(d == "" or (d and any(c in d for c in ",\r\n")) for d in history.dates)
            return
        assert parse_history(text, history.spec) == history
        # The same text read as a UTF-8 file.
        handle = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8-sig")
        assert parse_history(handle, history.spec) == history


class TestDrawHistoryInvariants:
    def test_records_must_satisfy_spec(self):
        with pytest.raises(HistoryValidationError, match="duplicate number in set draw") as excinfo:
            DrawHistory(SIX_52, np.array([0, 1]), np.array([[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 5]]), (None, None))
        assert excinfo.value.position == 1

    def test_indices_must_step_by_one(self):
        with pytest.raises(HistoryValidationError, match="^draw index 5 does not follow 0$") as excinfo:
            DrawHistory(PICK3, np.array([0, 5]), np.array([[1, 2, 3], [4, 5, 6]]), (None, None))
        assert excinfo.value.position == 1


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
            build_count_matrices(DrawHistory(SIX_52, np.zeros(0), np.zeros((0, 6)), ()))

    def test_column_sums_match_direct_tally(self):
        history = synthetic_history(SIX_52, 200, seed=2)
        (matrix,) = build_count_matrices(history)
        assert np.isin(matrix.counts, (0, 1)).all()
        assert (matrix.counts.sum(axis=1) == 6).all()
        tally = np.zeros(52, dtype=int)
        for row in history.numbers.tolist():
            for n in row:
                tally[n - 1] += 1
        np.testing.assert_array_equal(matrix.col_sums, tally)

    def test_pick_column_sums_match_digit_tally(self):
        history = synthetic_history(PICK3, 150, seed=8)
        matrices = build_count_matrices(history)
        for position, matrix in enumerate(matrices):
            tally = np.zeros(10, dtype=int)
            for row in history.numbers.tolist():
                tally[row[position]] += 1
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
        for row in history.numbers.tolist():
            assert len(set(row)) == 6
            assert all(1 <= n <= 52 for n in row)
            assert row == sorted(row)

    def test_pick_rows_are_digits(self):
        history = synthetic_history(PICK3, 100, seed=0)
        for row in history.numbers.tolist():
            assert len(row) == 3
            assert all(0 <= d <= 9 for d in row)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthetic_history(SIX_52, 0, seed=0)

    @pytest.mark.parametrize("pool,picks", [(5, 2), (6, 3), (7, 4), (8, 5), (9, 2), (10, 9)])
    def test_floyd_rows_are_exactly_uniform(self, pool, picks):
        # Every integer sequence the sampler can read, one row each: t_j in 0..j.
        bounds = [j + 1 for j in range(pool - picks, pool)]
        steps = np.indices(bounds, dtype=np.int8).reshape(picks, -1)
        rows = ingest._floyd_rows(steps, pool)
        assert rows.shape == steps.T.shape
        assert ((rows >= 0) & (rows < pool)).all()
        masks = np.zeros(len(rows), dtype=np.int64)
        for column in rows.T:
            masks |= 1 << column.astype(np.int64)
        subsets, counts = np.unique(masks, return_counts=True)
        # A row holds picks distinct numbers exactly when its mask has picks bits.
        assert all(bin(mask).count("1") == picks for mask in subsets.tolist())
        assert len(subsets) == math.comb(pool, picks)
        assert (counts == math.prod(bounds) // math.comb(pool, picks)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_set_rows_are_floyd_subsets_of_the_stream(self, data):
        pool = data.draw(st.integers(3, 20_000), label="pool")
        picks = data.draw(st.integers(2, pool - 1), label="picks")
        # At most 200,000 numbers per history, so the largest picks stay small in memory.
        draws = data.draw(st.integers(1, max(1, min(2000, 200_000 // picks))), label="draws")
        seed = data.draw(st.integers(0, 2**128), label="seed")
        spec = GameSpec(GameKind.SET_DRAW, pool, picks)
        history = synthetic_history(spec, draws, seed)
        numbers = history.numbers
        assert numbers.shape == (draws, picks)
        assert (numbers[:, 1:] > numbers[:, :-1]).all()
        assert numbers[:, 0].min() >= 1 and numbers[:, -1].max() <= pool
        assert synthetic_history(spec, draws, seed) == history
        # The oracle: Floyd's loop over each draw's integers from the same generator calls.
        rng = np.random.default_rng(seed)
        ranges = range(pool - picks, pool)
        steps = [rng.integers(0, j + 1, size=draws).tolist() for j in ranges]
        expected = []
        for row in zip(*steps):
            chosen = set()
            for j, t in zip(ranges, row):
                chosen.add(j if t in chosen else t)
            expected.append(sorted(n + 1 for n in chosen))
        assert numbers.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**128), st.integers(1, 6), st.integers(1, 2000))
    def test_pick_digits_are_the_per_draw_stream(self, seed, picks, draws):
        # The oracle: one generator call per draw, as the digits were once drawn.
        rng = np.random.default_rng(seed)
        expected = [rng.integers(0, 10, size=picks).tolist() for _ in range(draws)]
        history = synthetic_history(GameSpec(GameKind.POSITIONAL_DIGITS, 10, picks), draws, seed)
        assert history.numbers.tolist() == expected


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


class TestColumnarHistory:
    COLUMNS = ([4, 5, 6], [[1, 2, 3], [4, 5, 6], [7, 7, 0]], (None, "d", None))

    def test_columns_are_read_only_int64_copies(self):
        indices, numbers = np.array([4, 5]), np.array([[1, 2, 3], [4, 5, 6]])
        history = DrawHistory(PICK3, indices, numbers, (None, "d"))
        indices[0], numbers[0, 0] = 9, 9
        assert history.draw_indices.tolist() == [4, 5] and history.numbers[0, 0] == 1
        for column in (history.draw_indices, history.numbers):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_columns_rebuild_the_same_history(self):
        history = DrawHistory(PICK3, *self.COLUMNS)
        assert len(history) == 3
        assert history.draw_indices.tolist() == [4, 5, 6]
        np.testing.assert_array_equal(history.numbers, [[1, 2, 3], [4, 5, 6], [7, 7, 0]])
        assert history.dates == (None, "d", None)
        assert DrawHistory(PICK3, history.draw_indices, history.numbers, history.dates) == history

    @pytest.mark.parametrize("changed", [
        ([4, 5, 6], [[1, 2, 3], [4, 5, 6], [7, 7, 1]], (None, "d", None)),
        ([5, 6, 7], [[1, 2, 3], [4, 5, 6], [7, 7, 0]], (None, "d", None)),
        ([4, 5, 6], [[1, 2, 3], [4, 5, 6], [7, 7, 0]], (None, "e", None)),
        ([4, 5, 6], [[1, 2, 3], [4, 5, 6], [7, 7, 0]], (None, None, None)),
        ([4, 5, 6], [[1, 2, 3], [4, 5, 6], [7, 7, 0]], (None, "d\x00", None)),
    ], ids=["number", "index", "date", "no-date", "date-trailing-nul"])
    def test_one_changed_field_makes_histories_unequal(self, changed):
        history = DrawHistory(PICK3, *self.COLUMNS)
        assert history != DrawHistory(PICK3, *changed)
        assert history == DrawHistory(PICK3, *self.COLUMNS)

    @pytest.mark.parametrize("indices,numbers,name", [
        ([0], [[1.5, 2, 3]], "numbers"),
        ([0.7], [[1, 2, 3]], "draw_indices"),
        ([0], [["1", 2, 3]], "numbers"),
        ([2**63], [[1, 2, 3]], "draw_indices"),
    ], ids=["number-1.5", "index-0.7", "number-'1'", "index-2**63"])
    def test_refuses_what_is_not_an_int64_integer(self, indices, numbers, name):
        with pytest.raises(ValueError, match=f"^{name} must hold integers that fit in int64$") as info:
            DrawHistory(PICK3, indices, numbers, (None,))
        assert not isinstance(info.value, HistoryValidationError)

    def test_exact_floats_keep_their_values(self):
        history = DrawHistory(PICK3, [4.0, 5.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], (None, None))
        assert history == DrawHistory(PICK3, [4, 5], [[1, 2, 3], [4, 5, 6]], (None, None))
        assert history.draw_indices.dtype == history.numbers.dtype == np.int64

    def test_equality_needs_the_same_game(self):
        pick = DrawHistory(PICK3, [0], [[1, 2, 3]], (None,))
        set_game = DrawHistory(GameSpec(GameKind.SET_DRAW, 9, 3), [0], [[1, 2, 3]], (None,))
        assert pick != set_game

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="needs n indices"):
            DrawHistory(PICK3, np.array([0]), np.array([[1, 2]]), (None,))
        with pytest.raises(ValueError, match="needs n indices"):
            DrawHistory(PICK3, np.array([0, 1]), np.array([[1, 2, 3]]), (None,))

    def test_index_beyond_int64_is_refused_naming_its_line(self):
        # numpy's text conversion saturates such an index at 2**63 - 1.
        for text, message in [
            ("9223372036854775808,,1 2 3\n", "line 1: draw index 9223372036854775808 does not fit in 64 bits"),
            ("9223372036854775806,,1 2 3\n9223372036854775808,,4 5 6\n",
             "line 2: draw index 9223372036854775808 does not follow 9223372036854775806"),
        ]:
            with pytest.raises(HistoryValidationError) as excinfo:
                parse_history(text, PICK3)
            assert str(excinfo.value) == message
        history = parse_history("9223372036854775806,,1 2 3\n9223372036854775807,,4 5 6\n", PICK3)
        assert history.draw_indices.tolist() == [2**63 - 2, 2**63 - 1]

    def test_zero_padding_of_any_length_reads_as_the_value(self):
        history = parse_history(f"{PADDING}7,,1 2 {PADDING}3\n{PADDING}8,,4 5 6\n", PICK3)
        assert history.draw_indices.tolist() == [7, 8] and history.numbers.tolist() == [[1, 2, 3], [4, 5, 6]]


SMALL_SET = GameSpec(GameKind.SET_DRAW, 9, 3)
# Games of one, three and six count matrices, and set games of other widths.
ARRAY_CHECK_GAMES = [
    SMALL_SET,
    GameSpec(GameKind.SET_DRAW, 5, 2),
    GameSpec(GameKind.SET_DRAW, 12, 8),
    GameSpec(GameKind.POSITIONAL_DIGITS, 10, 1),
    PICK3,
    GameSpec(GameKind.POSITIONAL_DIGITS, 10, 6),
]


@st.composite
def draw_columns(draw):
    """Columns within a whisker of the game rules: numbers one past either
    end of the range, repeats, and index steps of 0 or 2."""
    spec = draw(st.sampled_from(ARRAY_CHECK_GAMES))
    n = draw(st.integers(0, 6))
    low, high = (0, spec.categories + 1) if spec.kind is GameKind.SET_DRAW else (-1, 10)
    row = st.lists(st.integers(low, high), min_size=spec.picks, max_size=spec.picks)
    numbers = draw(st.lists(row, min_size=n, max_size=n))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 0, 2]), min_size=n, max_size=n))
    indices = [draw(st.integers(0, 5)) + sum(steps[:i]) for i in range(n)]
    return spec, indices, numbers


def raised(build):
    try:
        build()
    except HistoryValidationError as exc:
        return type(exc), str(exc), exc.position
    return None


class TestArrayChecks:
    @settings(max_examples=300)
    @given(draw_columns())
    def test_array_checks_report_what_the_record_checks_report(self, columns):
        spec, indices, numbers = columns
        rows = [(i, None, tuple(row)) for i, row in zip(indices, numbers)]
        direct = raised(lambda: DrawHistory(spec, np.array(indices, dtype=np.int64),
                                            np.array(numbers, dtype=np.int64).reshape(-1, spec.picks), (None,) * len(indices)))
        assert direct == raised(lambda: oracle_check(spec, rows))


# The per-line parser as it stood before the columnar fast path, kept as the
# reference on plain (draw index, date, numbers) tuples: parse_history must
# return a history of the same rows, or raise the same exception class with
# the same message.  Its row checks are the reference for DrawHistory's
# array checks too.
def oracle_rule_break(numbers, spec):
    if len(numbers) != spec.picks:
        return f"expected {spec.picks} numbers, got {len(numbers)}"
    if spec.kind is GameKind.SET_DRAW:
        for n in numbers:
            if not 1 <= n <= spec.categories:
                return f"number {n} outside the pool 1..{spec.categories}"
        if len(set(numbers)) != len(numbers):
            return f"duplicate number in set draw: {numbers}"
    else:
        for n in numbers:
            if not 0 <= n <= 9:
                return f"digit {n} outside 0..9"
    return None


def oracle_check(spec, rows):
    previous = None
    for position, (index, _, numbers) in enumerate(rows):
        problem = oracle_rule_break(numbers, spec)
        if problem is None and previous is not None and index != previous + 1:
            problem = f"draw index {index} does not follow {previous}"
        if problem is not None:
            raise HistoryValidationError(problem, position)
        previous = index


def oracle_check_lines(spec, rows, linenos):
    try:
        oracle_check(spec, rows)
    except HistoryValidationError as exc:
        raise HistoryValidationError(f"line {linenos[exc.position]}: {exc}") from None


def shown(field):
    """A field as an error shows it: whole up to 100 characters, else its first 10 and its length."""
    return repr(field) if len(field) <= 100 else repr(field[:10]) + f"... of {len(field)} characters"


def oracle_rows(lines, rows, linenos):
    first_line = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",", 2)
        if first_line:
            first_line = False
            if parts[0].strip() == "draw_index":
                continue
        if len(parts) != 3:
            raise HistoryParseError(f"line {lineno}: expected 'draw_index,date,numbers', got {shown(line)}")
        index_text = parts[0].strip()
        if not is_digits(index_text):
            raise HistoryParseError(f"line {lineno}: draw index {shown(parts[0])} is not an integer of ASCII digits")
        tokens = parts[2].split()
        if tokens and not is_digits("".join(tokens)):
            raise HistoryParseError(
                f"line {lineno}: numbers field {shown(parts[2])} is not a space-separated integer list")
        rows.append((int(index_text), parts[1] or None, tuple(map(int, tokens))))
        linenos.append(lineno)


def oracle_parse(source, spec):
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    rows, linenos = [], []
    try:
        oracle_rows(lines, rows, linenos)
    except HistoryParseError:
        oracle_check_lines(spec, rows, linenos)
        raise
    oracle_check_lines(spec, rows, linenos)
    return tuple(rows)


def numbers_flaws(tokens, high):
    """Unusual numbers fields made from a valid one, by name."""
    first, rest = tokens[0], tokens[1:]
    return {
        "sign": " ".join(["+" + first, *rest]),
        "underscore": " ".join([first + "_0", *rest]),
        "arabic_digit": " ".join(["\u0663", *rest]),
        "above_range": " ".join([str(high + 1), *rest]),
        "zero": " ".join(["0", *rest]),
        "huge": " ".join(["99999999999999999999", *rest]),
        "repeat": " ".join([first, first, *rest[1:]]),
        "short": " ".join(tokens[:-1]),
        "long": " ".join([*tokens, first]),
        "comma": ",".join(tokens[:2]) + " " + " ".join(tokens[2:]),
        "double_space": "  ".join(tokens),
        "short_double_space": first + "  " + " ".join(tokens[1:-1]),
        "short_leading_space": " " + " ".join(tokens[:-1]),
        "short_trailing_space": " ".join(tokens[:-1]) + " ",
        "edge_spaces": " " + " ".join(tokens) + " ",
        "tab": "\t".join(tokens),
        "leading_zero": " ".join(["0" + first, *rest]),
        "empty": "",
        "letter": " ".join(["x", *rest]),
        "overlong": " ".join(["x" * 101, *rest]),
    }


INDEX_FLAWS = {"gap": None, "index_sign": "+{}", "index_space": " {}", "index_empty": "",
               "index_arabic": "\u0661", "index_letter": "{}x",
               "index_overlong": "{}" + "x" * 101}
NUMBERS_FLAWS = list(numbers_flaws(["1"] * 3, 9))
ROW_FLAWS = [*INDEX_FLAWS, "missing_field", "extra_field", "shifted_comma", *NUMBERS_FLAWS]
TEXT_FLAWS = ["blank_line", "padded_line", "bom", "crlf", "cr", "mixed_newlines", "no_final_newline",
              "header", "header_bare", "header_spaced", "header_typo", "header_extra"]
HEADERS = {"header": "draw_index,date,numbers", "header_bare": "draw_index", "header_spaced": " draw_index ,x",
           "header_typo": "draw_indx,date,numbers", "header_extra": "draw_index,date,numbers,extra"}
DATES = ["", "2022-01-01", " x y ", "\u65e5", "\x0c", "\x85", "\r", "a\rb"]


@st.composite
def csv_texts(draw, flaws=st.lists(st.sampled_from(ROW_FLAWS + TEXT_FLAWS), max_size=2)):
    """History text in the usual shape, then at most two flaws: of a row
    (each kind the per-line parser tells apart, and near misses of the fast
    path's own checks) or of the text (line breaks, blank lines, padding,
    headers, a byte-order mark)."""
    spec = draw(st.sampled_from([SMALL_SET, PICK3, SIX_52]))
    high = spec.categories if spec.kind is GameKind.SET_DRAW else 9
    n = draw(st.integers(0, 7))
    first = draw(st.integers(0, 30))
    dated = draw(st.booleans())
    rows = []
    for i in range(n):
        if spec.kind is GameKind.SET_DRAW:
            numbers = draw(st.lists(st.integers(1, high), min_size=spec.picks, max_size=spec.picks, unique=True))
        else:
            numbers = draw(st.lists(st.integers(0, 9), min_size=spec.picks, max_size=spec.picks))
        rows.append([str(first + i), draw(st.sampled_from(DATES)) if dated else "", " ".join(map(str, numbers))])
    flaws = draw(flaws)
    for flaw in flaws:
        if flaw not in ROW_FLAWS or not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if flaw == "gap":
            row[0] = str(int(row[0]) + 1) if row[0].isdigit() else row[0]
        elif flaw in INDEX_FLAWS:
            row[0] = INDEX_FLAWS[flaw].format(row[0])
        elif flaw == "missing_field":
            del row[1]
        elif flaw == "extra_field":
            row.append("x")
        elif flaw == "shifted_comma" and i + 1 < len(rows):
            # Row i loses a comma that row i + 1 gains, so a split of the
            # whole text at every comma would still see three fields a row.
            rows[i], rows[i + 1] = row[:-1], [row[-1], *rows[i + 1]]
        elif flaw in NUMBERS_FLAWS:
            row[-1] = numbers_flaws(row[-1].split() or ["1"], high)[flaw]
    lines = [",".join(row) for row in rows]
    for flaw in flaws:
        if flaw in HEADERS:
            lines.insert(0, HEADERS[flaw])
        elif flaw == "blank_line":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "\t"])))
        elif flaw == "padded_line" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = draw(st.sampled_from([" ", "\t", ""])) + lines[i] + draw(st.sampled_from([" ", "\t", ""]))
    breaks = ["\n"] * len(lines)
    if "crlf" in flaws or "cr" in flaws:
        breaks = ["\r\n" if "crlf" in flaws else "\r"] * len(lines)
    if "mixed_newlines" in flaws:
        breaks = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, breaks))
    if "no_final_newline" in flaws and lines:
        text = text[: -len(breaks[-1])]
    if "bom" in flaws:
        text = "\ufeff" + text
    return spec, text


def outcome(parse, source, spec):
    try:
        result = parse(source, spec)
    except (HistoryParseError, HistoryValidationError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else history_rows(result)


class TestParserDifferential:
    @staticmethod
    def check(spec, text, handle_newline):
        expected = outcome(oracle_parse, text, spec)
        assert outcome(parse_history, text, spec) == expected
        data = text.encode("utf-8")

        def handle():
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=handle_newline)

        assert outcome(parse_history, handle(), spec) == outcome(oracle_parse, handle(), spec)

    @settings(max_examples=300)
    @given(csv_texts(), st.sampled_from([None, ""]))
    def test_parse_history_agrees_with_the_per_line_parser(self, case, handle_newline):
        self.check(*case, handle_newline)

    @pytest.mark.parametrize("flaw", ROW_FLAWS + TEXT_FLAWS)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_each_flaw_alone(self, flaw, data):
        self.check(*data.draw(csv_texts(flaws=st.just([flaw]))), data.draw(st.sampled_from([None, ""])))


class TestAnyWhitespace:
    """Whitespace that numpy's text conversion does not read is mapped to a
    space before it; ``str.split``, and so the per-line parser, breaks at it."""

    def test_odd_spaces_are_the_spaces_numpy_does_not_read(self):
        spaces = {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}
        assert set(ingest._ODD_SPACES) == spaces - set(map(ord, " \t\n\x0b\x0c\r"))

    @pytest.mark.parametrize("space", ["\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])
    def test_any_whitespace_pads_rows_and_separates_numbers(self, space):
        text = f"{space}0,{space},1{space}2 3{space}\n1{space},,4{space * 2}5\t6\n"
        assert history_rows(parse_history(text, PICK3)) == oracle_parse(text, PICK3)
        assert parse_history(text, PICK3).numbers.tolist() == [[1, 2, 3], [4, 5, 6]]
        bad = text + f"2,,7{space}x 9\n"
        assert outcome(parse_history, bad, PICK3) == outcome(oracle_parse, bad, PICK3)
