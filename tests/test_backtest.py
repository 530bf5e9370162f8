"""Backtest tests: selection and scoring examples, gap statistics against
the reference sequence, and the rolling loop pinned to a naive refit loop
written from the paper's rules, independent of the library's code."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdmlotto.backtest
from cdmlotto.backtest import (
    ALTERNATION_NOTE,
    SHORT_LONG_CUTOFF,
    _CHUNK,
    BacktestError,
    _walk,
    _windows,
    classify_stretches,
    extrapolate_gaps,
    gap_stats,
    match_count,
    predict_next,
    render_comparison,
    run_backtest,
    select_combination,
)
from cdmlotto.distributions import predictive_expectation
from cdmlotto.estimators import (
    DegenerateDataError,
    EstimationError,
    EstimatorConfig,
    EstimatorKind,
    InsufficientRowsError,
    NonPositiveAlphaError,
    ZeroEntryError,
    _diagonals,
    estimate_alpha,
)
from cdmlotto.ingest import (
    DrawHistory,
    GameKind,
    GameSpec,
    _indicators,
    build_count_matrices,
    synthetic_history,
)

SIX_52 = GameSpec(GameKind.SET_DRAW, 52, 6)
FIVE_10 = GameSpec(GameKind.SET_DRAW, 10, 5)
PICK1 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 1)
PICK3 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 3)
PICK4 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 4)

# Reference hit sequence used throughout the gap-statistics checks.
REFERENCE_HITS = [0, 44, 659, 1357, 1369, 1915, 2039, 3449, 3685, 4285]
REFERENCE_GAPS = (44, 615, 698, 12, 546, 124, 1410, 236, 600)


class TestSelectCombination:
    def test_top_two_with_tie_toward_smaller_index(self):
        spec = GameSpec(GameKind.SET_DRAW, 4, 2)
        combo = select_combination(np.array([0.1, 0.9, 0.9, 0.05]), spec)
        assert combo.numbers == (2, 3)

    def test_all_equal_scores_pick_smallest_numbers(self):
        # One game of each kind: a set game's one count matrix, a pick game's three.
        for spec, picked in [(GameSpec(GameKind.SET_DRAW, 4, 2), (1, 2)), (PICK3, (0, 0, 0))]:
            assert select_combination([np.ones(spec.categories)] * spec.layout[0], spec).numbers == picked

    def test_positional_argmax_per_position(self):
        vectors = [np.eye(10)[7], np.eye(10)[0], np.eye(10)[4]]
        assert select_combination(vectors, PICK3).numbers == (7, 0, 4)

    @pytest.mark.parametrize("spec,picked", [(GameSpec(GameKind.SET_DRAW, 5, 2), (4, 5)), (PICK3, (0, 0, 3))],
                             ids=["2of5", "pick3"])
    def test_non_finite_scores_are_never_picked(self, spec, picked):
        vec = np.full(spec.categories, -5.0)
        vec[:3] = [np.inf, np.nan, -np.inf]
        scores = [np.ones(spec.categories)] * (spec.layout[0] - 1) + [vec]
        assert select_combination(scores, spec).numbers == picked

    def test_too_few_finite_scores_rejected(self):
        # One message for both kinds: a matrix placing m numbers needs m finite scores.
        for spec, finite, message in [
            (GameSpec(GameKind.SET_DRAW, 4, 2), 1, "need at least 2 finite scores, got 1"),
            (PICK3, 0, "need at least 1 finite scores, got 0"),
        ]:
            vec = np.full(spec.categories, np.nan)
            vec[1:3] = [np.inf, -np.inf]
            vec[3:3 + finite] = 1.0
            scores = [np.ones(spec.categories)] * (spec.layout[0] - 1) + [vec]
            with pytest.raises(ValueError) as info:
                select_combination(scores, spec)
            assert str(info.value) == message

    def test_output_sorted_ascending(self):
        spec = GameSpec(GameKind.SET_DRAW, 6, 3)
        combo = select_combination(np.array([0.0, 5.0, 0.0, 9.0, 0.0, 7.0]), spec)
        assert combo.numbers == (2, 4, 6)

    @given(st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_invariant_under_positive_rescaling(self, scale):
        rng = np.random.default_rng(17)
        scores = rng.random(10)
        spec = GameSpec(GameKind.SET_DRAW, 10, 4)
        assert select_combination(scores, spec).numbers == select_combination(scores * scale, spec).numbers

    def test_moment_alpha_from_duplicated_rows_picks_the_same_combination(self):
        """Duplicating the window's rows leaves the column means, and with
        them the predictive ranking, unchanged."""
        rng = np.random.default_rng(29)
        spec = GameSpec(GameKind.SET_DRAW, 12, 4)
        for _ in range(10):
            window = rng.multinomial(4, rng.dirichlet(np.ones(12)), size=5)
            counts = window.sum(axis=0)
            alpha_once = estimate_alpha(window, EstimatorConfig(EstimatorKind.MOM))
            alpha_doubled = estimate_alpha(np.vstack([window, window]), EstimatorConfig(EstimatorKind.MOM))
            combo_once = select_combination(predictive_expectation(alpha_once, counts, 4), spec)
            combo_doubled = select_combination(predictive_expectation(alpha_doubled, counts, 4), spec)
            assert combo_once.numbers == combo_doubled.numbers


class TestMatchCount:
    def test_two_shared_numbers(self):
        prediction = select_combination(np.arange(52.0), SIX_52)
        # Force the exact combination of interest through the prediction type.
        prediction = prediction.__class__((7, 13, 24, 34, 45, 47), prediction.scores)
        assert match_count(prediction, (7, 18, 30, 36, 44, 47), SIX_52) == 2

    def test_identical_combination_matches_all(self):
        combo = select_combination(np.arange(52.0), SIX_52)
        assert match_count(combo, list(combo.numbers), SIX_52) == 6

    def test_positional_only_counts_aligned_digits(self):
        combo = select_combination([np.eye(10)[1], np.eye(10)[2], np.eye(10)[3]], PICK3)
        assert match_count(combo, np.array([3, 2, 1]), PICK3) == 1

    def test_arity_mismatch_rejected(self):
        combo = select_combination([np.eye(10)[1], np.eye(10)[2], np.eye(10)[3]], PICK3)
        with pytest.raises(ValueError):
            match_count(combo, (1, 2, 3, 4, 5, 6), PICK3)


# The oracle below rebuilds the walk from the paper's rules, one window at a
# time.  It takes only types and exceptions from cdmlotto and calls none of
# its functions, so a fault in the estimators, the scores, the tie rule or
# the match rule shows as a disagreement with the walk.  It raises the
# walk's error classes and messages, in the walk's order of checks.

# The Euler-Mascheroni constant at the paper's printed precision.
EULER_MASCHERONI = 0.57721566490


def indicator_matrices(history):
    """The 0/1 count matrices: one row per draw, a one in each drawn
    number's column; one matrix for a set game, one per digit position."""
    spec, numbers = history.spec, history.numbers
    if spec.kind is GameKind.SET_DRAW:
        return [np.eye(spec.categories, dtype=np.int64)[numbers - 1].sum(axis=1)]
    return [np.eye(10, dtype=np.int64)[digits] for digits in numbers.T]


def log1p_ratio(q, s):
    """``log1p(q / s)``, or ``log(s + q) - log(s)`` where ``1 / s`` overflows."""
    return np.log1p(q / s) if math.isfinite(1 / s) else np.log(s + q) - np.log(s)


def mle_denominator(col_sums, rows, s):
    """The mle total-mass denominator sum_ij f_j log(f_j / x_ij) of a 0/1
    window smoothed by s > 0, from its column shares p = col_sums / rows:
    a column holds ``rows * p`` entries s + 1 and the rest s, and f = s + p."""
    p = col_sums / rows
    return rows * ((s + p) * (log1p_ratio(p, s) - p * log1p_ratio(1, s))).sum()


def oracle_alpha(window, estimator):
    """The estimator's concentration vector for one 0/1 window."""
    rows, k = window.shape
    col_sums = window.sum(axis=0)
    if estimator.kind is EstimatorKind.MOM:
        alpha = col_sums / rows
    elif estimator.kind is EstimatorKind.MAIN_DIAGONAL:
        if rows < k:
            raise InsufficientRowsError(f"need at least {k} rows for a trailing {k}x{k} window, got {rows}")
        alpha = np.array([window[rows - k + j, j] for j in range(k)], dtype=np.float64)
    else:
        s = estimator.mle_smoothing
        if s == 0 and (col_sums < rows).any():
            raise ZeroEntryError(
                "window has zero entries after smoothing; the total-mass formula takes logs of every entry"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            denominator = mle_denominator(col_sums, rows, s) if s else 0.0
            if denominator == 0:
                raise DegenerateDataError("total-mass denominator is zero (all columns constant)")
            alpha0 = rows * (k - 1) * EULER_MASCHERONI / denominator
            if alpha0 <= 0:
                raise NonPositiveAlphaError(f"estimated total mass {alpha0:.6g} is not positive")
            alpha = alpha0 * ((col_sums + rows * s) / rows)
    if not np.isfinite(alpha).all():
        raise NonPositiveAlphaError("estimated concentration is not finite")
    return alpha


def oracle_scores(window, estimator, picks):
    """Posterior-predictive expected counts ``m (alpha + c) / sum(alpha + c)``."""
    posterior = oracle_alpha(window, estimator) + window.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return picks * posterior / posterior.sum()


def oracle_pick(spec, scores):
    """Set games: the top ``picks`` finite scores, ties to the smaller number,
    ascending.  Pick games: per position, the first digit of maximal score."""
    if spec.kind is GameKind.SET_DRAW:
        (vec,) = (v.tolist() for v in scores)
        finite = [j for j, score in enumerate(vec) if math.isfinite(score)]
        if len(finite) < spec.picks:
            raise ValueError(f"need at least {spec.picks} finite scores, got {len(finite)}")
        return tuple(sorted(j + 1 for j in sorted(finite, key=lambda j: (-vec[j], j))[:spec.picks]))
    digits = []
    for vec in (v.tolist() for v in scores):
        finite = [d for d, score in enumerate(vec) if math.isfinite(score)]
        if not finite:
            raise ValueError("need at least 1 finite scores, got 0")
        digits.append(max(finite, key=vec.__getitem__))
    return tuple(digits)


def oracle_predict(spec, windows, estimator):
    """The pick and the score vectors for one window of each count matrix."""
    picks = spec.picks if spec.kind is GameKind.SET_DRAW else 1
    scores = [oracle_scores(window, estimator, picks) for window in windows]
    return oracle_pick(spec, scores), scores


def oracle_matches(spec, prediction, actual):
    """Set games count the shared numbers, pick games the equal positions."""
    if spec.kind is GameKind.SET_DRAW:
        return len(set(prediction) & set(actual))
    return sum(p == a for p, a in zip(prediction, actual))


def naive_backtest(history, estimator, *, window=None, warmup=None, hit_threshold=None):
    """Slice-and-refit oracle of run_backtest, with its settings: for every
    draw t past the warmup, fit rows ``[start, t)`` of each indicator matrix
    and score the pick against draw t.  Rows are (t, prediction, match
    count, is hit)."""
    spec = history.spec
    matrices = indicator_matrices(history)
    actuals = history.numbers.tolist()
    warmup = warmup if warmup is not None else max(spec.categories, 10)
    threshold = hit_threshold if hit_threshold is not None else spec.picks
    outcomes = []
    for t in range(warmup, len(actuals)):
        start = 0 if window is None else t - window
        try:
            prediction, _ = oracle_predict(spec, [m[start:t] for m in matrices], estimator)
        except EstimationError as exc:
            raise BacktestError(t, str(exc)) from exc
        matches = oracle_matches(spec, prediction, actuals[t])
        outcomes.append((t, prediction, matches, matches >= threshold))
    return outcomes


def walked(history, estimator, **settings):
    """run_backtest's columns as naive_backtest's rows."""
    result = run_backtest(history, estimator, **settings)
    hits = set(result.hit_indices)
    columns = (result.draw_indices.tolist(), result.predictions.tolist(), result.match_counts.tolist())
    return [(t, tuple(prediction), matches, t in hits) for t, prediction, matches in zip(*columns)]


# A pick-1 history that stays on digit 3 for 800 draws, past the walk's first chunk.
_rng = random.Random(5)
_digits = [_rng.randrange(10) for _ in range(1200)] + [3] * 800 + [_rng.randrange(10) for _ in range(300)]
CONSTANT_RUN = DrawHistory(PICK1, np.arange(len(_digits)), np.array(_digits)[:, None], (None,) * len(_digits))
# Its digits from draw 689 on, so the run starts at draw 511: with window and warmup 60,
# the first window inside it, draw 571's, is the last window of the walk's first chunk.
_late = _digits[689:]
LATE_RUN = DrawHistory(PICK1, np.arange(len(_late)), np.array(_late)[:, None], (None,) * len(_late))


def head(history, draws):
    """The history's first ``draws`` draws, built from its sliced columns."""
    return DrawHistory(history.spec, history.draw_indices[:draws], history.numbers[:draws], history.dates[:draws])


class TestRollingStatsFromNumbers:
    """One builder turns the numbers column into the count matrices' entries,
    and the walk reads its statistics from them; they must be the running sums
    and trailing diagonals of the count matrices the naive refit slices."""

    @staticmethod
    def stacked(history):
        """The count matrices as one (n, count, K) array, matrix c at index c of its second axis."""
        return np.stack([matrix.counts for matrix in build_count_matrices(history)], axis=1)

    @pytest.mark.parametrize("spec", [SIX_52, PICK3])
    def test_prefix_is_the_cumulative_count_matrix(self, spec):
        history = synthetic_history(spec, 300, seed=6)
        count, k = spec.layout[0], spec.categories
        stacked = self.stacked(history)
        entries = _indicators(history.numbers, spec)
        assert entries.dtype == np.int8 and entries.shape == (300, count, k)
        np.testing.assert_array_equal(entries, stacked)
        # Every window column sum the walk yields is a difference of the cumulative counts.
        cumulative = np.concatenate([np.zeros((1, count, k), dtype=np.int64), np.cumsum(stacked, axis=0)])
        for window, warmup in [(None, 1), (10, 10), (100, 100)]:
            chunks = list(_walk(history, EstimatorConfig(EstimatorKind.MOM), window, warmup))
            for ends, (rows, col_sums, diagonal), *_ in chunks:
                starts = np.zeros_like(ends) if window is None else ends - window
                assert col_sums.dtype == np.int64 and diagonal is None
                np.testing.assert_array_equal(rows, np.repeat(ends - starts, count))
                np.testing.assert_array_equal(col_sums, (cumulative[ends] - cumulative[starts]).reshape(-1, k))
            np.testing.assert_array_equal(np.concatenate([ends for ends, *_ in chunks]), np.arange(warmup, 300))

    @pytest.mark.parametrize("spec", [SIX_52, PICK3])
    def test_diagonals_are_those_of_the_trailing_square_blocks(self, spec):
        history = synthetic_history(spec, 300, seed=6)
        count, k = spec.layout[0], spec.categories
        stacked = self.stacked(history)
        entries = _indicators(history.numbers, spec)
        # Rows before row 0 read as zeros, so a window shorter than K reads them too.
        padded = np.concatenate([np.zeros((k, count, k), dtype=stacked.dtype), stacked])
        ends = np.arange(301)
        expected = [np.diagonal(padded[end : end + k], axis1=0, axis2=2) for end in ends]
        np.testing.assert_array_equal(_diagonals(entries, ends), expected)
        # The walk's md diagonals are those, in (draw, matrix) order.
        ((_, (_, _, diagonal), *_),) = _walk(history, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL), None, k)
        np.testing.assert_array_equal(diagonal, np.reshape(expected[k:-1], (-1, k)))

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from([SIX_52, FIVE_10, PICK1, PICK3]),
        draws=st.integers(1, 300),
        data=st.data(),
    )
    def test_every_window_is_the_slice_it_reads(self, spec, draws, data):
        """From ``first`` through ``n``, predict's end, each window's rows,
        column sums and trailing diagonal are those of its slice of the count
        matrices, however the ends fall into chunks; a window of ``first``
        rows drops row 0 first."""
        history = synthetic_history(spec, draws, seed=draws)
        first = data.draw(st.integers(1, draws), label="first")
        k = spec.categories
        window = data.draw(st.sampled_from([w for w in (None, 1, k, first) if w is None or w <= first]),
                           label="window")
        chunk = data.draw(st.sampled_from([_CHUNK, 1, 7]), label="chunk")
        with mock.patch.object(cdmlotto.backtest, "_CHUNK", chunk):
            chunks = list(_windows(history, window, first, draws + 1, True))
        assert all(len(ends) <= chunk for ends, _ in chunks)
        np.testing.assert_array_equal(np.concatenate([ends for ends, _ in chunks]), np.arange(first, draws + 1))
        rows, col_sums, diagonal = (np.concatenate(stat) for stat in zip(*(stats for _, stats in chunks)))
        # Rows before row 0 read as zeros, as md's diagonal of a short window does.
        padded = [np.concatenate([np.zeros((k, k), dtype=np.int64), m]) for m in indicator_matrices(history)]
        want_rows, want_sums, want_diagonals = [], [], []
        for end in range(first, draws + 1):
            start = 0 if window is None else end - window
            for matrix in padded:
                want_rows.append(end - start)
                want_sums.append(matrix[k + start : k + end].sum(axis=0))
                want_diagonals.append(np.diagonal(matrix[end : end + k]))
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(col_sums, want_sums)
        np.testing.assert_array_equal(diagonal, want_diagonals)


def naive_predict(history, estimators, window):
    """Slice-and-refit oracle of predict_next: one (numbers, scores) pair per
    estimator, fitted on the last ``window`` rows of every indicator matrix."""
    start = 0 if window is None else len(history) - window
    windows = [m[start:] for m in indicator_matrices(history)]
    return [oracle_predict(history.spec, windows, estimator) for estimator in estimators]


def outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the class and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, BacktestError) as exc:
        return type(exc), str(exc)


class TestPredictNext:
    """predict_next scores the window before the next draw from that
    window's rows; the naive refit must agree on scores, numbers and
    errors alike."""

    @pytest.mark.parametrize("spec", [SIX_52, FIVE_10, PICK1, PICK4], ids=["6of52", "5of10", "pick1", "pick4"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("smoothing", [0.0, 0.3, 1e305, 5e-324])
    def test_matches_naive_refit(self, spec, kind, smoothing):
        k = spec.categories
        estimators = [EstimatorConfig(kind, mle_smoothing=smoothing)]
        for draws in (5, k, 300):  # 5 draws is shorter than K for every game here
            history = synthetic_history(spec, draws, seed=draws + k)
            for window in (None, k // 2, k, k + 7):
                if window is not None and window > draws:
                    continue
                got = outcome(predict_next, history, estimators, window)
                want = outcome(naive_predict, history, estimators, window)
                case = f"draws={draws} window={window}"
                if isinstance(want, tuple):
                    assert got == want, case
                    continue
                assert not isinstance(got, tuple), f"{case}: {got}"
                ((combo,), ((numbers, scores),)) = got, want
                assert combo.numbers == numbers, case
                assert len(combo.scores) == len(scores), case
                for vec, ref in zip(combo.scores, scores):
                    assert np.array_equal(vec, ref, equal_nan=True), case

    def test_the_first_failing_matrix_names_the_error(self):
        # Position 0's window fails the total-mass sign check and a later one's the
        # zero-denominator check, which a check over every position at once raises first.
        history = synthetic_history(PICK3, 700, seed=3)
        estimators = [EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1e305)]
        got = outcome(predict_next, history, estimators, 60)
        assert got == outcome(naive_predict, history, estimators, 60)
        assert got == (NonPositiveAlphaError, "estimated total mass -1.64292e+17 is not positive")

    def test_one_call_serves_every_estimator_in_order(self):
        history = synthetic_history(PICK4, 120, seed=3)
        estimators = [EstimatorConfig(kind, mle_smoothing=1.0) for kind in EstimatorKind]
        got = predict_next(history, estimators, 60)
        want = naive_predict(history, estimators, 60)
        assert [c.numbers for c in got] == [numbers for numbers, _ in want]

    @pytest.mark.parametrize("spec", [SIX_52, PICK4], ids=["6of52", "pick4"])
    def test_a_window_tracks_its_own_draws_alone(self, spec):
        # Prefix sums over all 20,000 draws would hold 20,001 x 52 int64s (8.3 MB) for
        # 6-of-52 and 20,001 x 4 x 10 (6.4 MB) for pick-4.
        history = synthetic_history(spec, 20_000, seed=414)
        estimators = [EstimatorConfig(kind, mle_smoothing=1.0) for kind in EstimatorKind]
        tracemalloc.start()
        try:
            predict_next(history, estimators, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("spec", [SIX_52, PICK4], ids=["6of52", "pick4"])
    def test_the_whole_history_needs_no_prefix_array(self, spec):
        # An unwindowed fit sums its rows a chunk at a time, with no 20,001-row prefix.
        history = synthetic_history(spec, 20_000, seed=414)
        estimators = [EstimatorConfig(kind, mle_smoothing=1.0) for kind in EstimatorKind]
        tracemalloc.start()
        try:
            predict_next(history, estimators)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of the (20,000, picks) numbers column alone would be 960 kB or 640 kB;
        # one 512-row one-hot and its int16 sum peak at 45.3 kB (6-of-52) under numpy 2.4.
        assert peak < 50_000

    def test_is_the_walks_pick_for_the_draw_after_the_history(self):
        history = synthetic_history(SIX_52, 140, seed=9)
        estimator = EstimatorConfig(EstimatorKind.MAIN_DIAGONAL)
        result = run_backtest(history, estimator, window=60, warmup=60)
        (combo,) = predict_next(head(history, result.draw_indices[-1]), [estimator], 60)
        assert combo.numbers == tuple(result.predictions[-1].tolist())

    @pytest.mark.parametrize("draws,window,message", [
        (0, None, "history is empty"),
        (30, 31, "window 31 exceeds the 30 available draws"),
        (30, 0, "window must be positive, got 0"),
    ])
    def test_rejects_an_empty_history_and_a_window_that_does_not_fit(self, draws, window, message):
        history = head(synthetic_history(SIX_52, 30, seed=1), draws)
        with pytest.raises(ValueError) as info:
            predict_next(history, [EstimatorConfig(EstimatorKind.MOM)], window)
        assert (type(info.value), str(info.value)) == (ValueError, message)


class TestRunBacktest:
    def test_constant_history_hits_every_draw(self):
        """Every draw repeats the previous one, so the column profile is the
        drawn set itself and the prediction must match it in full."""
        numbers = (2, 9, 17, 25, 33, 41)
        history = DrawHistory(SIX_52, np.arange(10), [numbers] * 10, (None,) * 10)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), warmup=3, hit_threshold=6)
        assert result.hit_indices == tuple(range(3, 10))
        assert result.predictions.tolist() == [list(numbers)] * 7

    def test_history_shorter_than_warmup_rejected(self):
        history = synthetic_history(SIX_52, 30, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, EstimatorConfig(EstimatorKind.MOM), warmup=30)

    def test_threshold_outside_picks_rejected(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=7)

    def test_main_diagonal_needs_square_warmup(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL), warmup=20)

    def test_window_may_not_exceed_warmup(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, EstimatorConfig(EstimatorKind.MOM), warmup=20, window=30)

    def test_unsmoothed_mle_failure_carries_the_draw_index(self):
        history = synthetic_history(SIX_52, 60, seed=1)
        with pytest.raises(BacktestError) as excinfo:
            run_backtest(history, EstimatorConfig(EstimatorKind.MLE), hit_threshold=2)
        assert excinfo.value.draw_index == 52

    def test_is_deterministic(self):
        history = synthetic_history(SIX_52, 150, seed=5)
        estimator = EstimatorConfig(EstimatorKind.MOM)
        assert run_backtest(history, estimator, hit_threshold=2) == run_backtest(history, estimator, hit_threshold=2)

    def test_results_differing_in_one_column_are_unequal(self):
        history = synthetic_history(SIX_52, 150, seed=5)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        predictions = result.predictions.copy()
        predictions[-1, 0] += 1
        assert dataclasses.replace(result, predictions=predictions) != result

    def test_columns_hold_one_row_per_predicted_draw(self):
        history = synthetic_history(PICK4, 200, seed=2)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        assert result.draw_indices.tolist() == list(range(10, 200))
        assert result.predictions.shape == result.actuals.shape == (190, 4)
        assert result.actuals.tolist() == history.numbers[10:].tolist()
        assert tuple(result.draw_indices[result.match_counts >= 2].tolist()) == result.hit_indices
        with pytest.raises(ValueError):
            result.match_counts[0] = 4  # the columns are read-only

    @pytest.mark.parametrize("spec,seed", [(SIX_52, 23), (PICK3, 24)])
    @pytest.mark.parametrize("estimator", [
        EstimatorConfig(EstimatorKind.MOM),
        EstimatorConfig(EstimatorKind.MAIN_DIAGONAL),
        EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1.0),
    ])
    def test_rolling_loop_matches_naive_refit(self, spec, seed, estimator):
        # 1,600 draws span four chunks of the batched walk; each case runs
        # on all prior draws and on a 60-draw window.
        history = synthetic_history(spec, 1600, seed=seed)
        for settings in ({"hit_threshold": 2}, {"window": 60, "warmup": 60, "hit_threshold": 2}):
            assert walked(history, estimator, **settings) == naive_backtest(history, estimator, **settings)

    @pytest.mark.parametrize("spec,smoothing,window", [
        (SIX_52, 1e100, None),  # the chunk's first-raised check fails later than draw 52 does
        (SIX_52, 1e20, None),
        (SIX_52, 1e290, 60),
        (PICK4, 1e20, None),
        (PICK4, 1e290, 60),
        (SIX_52, 1e305, None),  # a non-finite estimate
        (PICK4, 1e305, 60),
    ])
    def test_first_failing_draw_matches_naive_refit(self, spec, smoothing, window):
        history = synthetic_history(spec, 1200, seed=9)
        estimator = EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing)
        with pytest.raises(BacktestError) as walked:
            run_backtest(history, estimator, window=window, warmup=window)
        with pytest.raises(BacktestError) as naive:
            naive_backtest(history, estimator, window=window, warmup=window)
        assert (walked.value.draw_index, str(walked.value)) == (naive.value.draw_index, str(naive.value))

    @pytest.mark.parametrize("smoothing,window,expected", [
        (1.0, 60, "draw 1260: total-mass denominator is zero (all columns constant)"),
        (0.5, 64, "draw 1264: total-mass denominator is zero (all columns constant)"),
        (3.0, 100, "draw 1300: total-mass denominator is zero (all columns constant)"),
    ])
    def test_failure_past_the_first_chunk_names_its_draw(self, smoothing, window, expected, history=CONSTANT_RUN):
        # The first window inside the constant run has constant columns.
        estimator = EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing)
        with pytest.raises(BacktestError) as walked:
            run_backtest(history, estimator, window=window, warmup=window)
        with pytest.raises(BacktestError) as naive:
            naive_backtest(history, estimator, window=window, warmup=window)
        assert str(walked.value) == str(naive.value) == expected

    def test_failure_at_a_chunks_last_window_names_its_draw(self):
        self.test_failure_past_the_first_chunk_names_its_draw(
            1.0, 60, "draw 571: total-mass denominator is zero (all columns constant)", LATE_RUN)

    @pytest.mark.parametrize("smoothing", [0.1, 0.5, 1.0, 3.0, 10.0, 1e3])
    @pytest.mark.parametrize("window", [None, 60, 64, 100, 500])
    def test_constant_run_matches_naive_refit(self, smoothing, window):
        estimator = EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing)
        assert (outcome(walked, CONSTANT_RUN, estimator, window=window, warmup=window)
                == outcome(naive_backtest, CONSTANT_RUN, estimator, window=window, warmup=window))

    def test_subnormal_smoothing_matches_naive_refit(self):
        # 1/s overflows at this smoothing, so the mle fit takes its log-difference form.
        history = synthetic_history(SIX_52, 700, seed=8)
        estimator = EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1e-320)
        assert walked(history, estimator, hit_threshold=2) == naive_backtest(history, estimator, hit_threshold=2)

    @settings(max_examples=30, deadline=None)
    @given(
        game=st.sampled_from([SIX_52, GameSpec(GameKind.SET_DRAW, 10, 2), PICK3]),
        window=st.sampled_from([None, 60]),
        smoothing=st.floats(-6, 9).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**16),
    )
    # Subnormal smoothing, where 1/s overflows.
    @example(game=SIX_52, window=None, smoothing=1e-320, seed=3)
    @example(game=PICK3, window=60, smoothing=5e-324, seed=4)
    def test_mle_picks_are_the_mm_picks(self, game, window, smoothing, seed):
        """On 0/1 windows the mle score alpha0 (s + p_j) + c_j rises with the
        column sum c_j and ties where c_j ties, so it ranks as mm does."""
        history = synthetic_history(game, 150, seed=seed)
        mle, mm = (run_backtest(history, estimator, window=window, warmup=window or 60)
                   for estimator in (EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                     EstimatorConfig(EstimatorKind.MOM)))
        np.testing.assert_array_equal(mle.predictions, mm.predictions)

    def test_windowed_run_matches_naive_refit(self):
        history = synthetic_history(SIX_52, 120, seed=31)
        settings = {"window": 60, "warmup": 60, "hit_threshold": 2}
        estimator = EstimatorConfig(EstimatorKind.MOM)
        assert walked(history, estimator, **settings) == naive_backtest(history, estimator, **settings)

    def test_hit_bookkeeping_is_exhaustive(self):
        history = synthetic_history(SIX_52, 200, seed=6)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        rescanned = {t for t, matches in zip(result.draw_indices.tolist(), result.match_counts.tolist())
                     if matches >= 2}
        assert set(result.hit_indices) == rescanned
        assert sum(result.tier_counts.values()) == len(result.draw_indices)

    def test_result_document_field_names(self):
        history = synthetic_history(SIX_52, 80, seed=6)
        result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        document = json.loads(result.to_json())
        for field in ("records", "hit_indices", "gaps", "average_gap", "max_gap"):
            assert field in document
        assert set(document["records"][0]) == {"draw_index", "prediction", "actual", "match_count"}


@st.composite
def walk_cases(draw):
    """A game of any valid shape, a history of 30-700 draws (some past the
    walk's 512-draw chunk), any estimator with a smoothing from 0 to 1e305
    (the large ones fail at draws anywhere in a chunk), and all prior draws
    or a window the estimator accepts."""
    if draw(st.booleans()):
        pool = draw(st.integers(3, 15))
        spec = GameSpec(GameKind.SET_DRAW, pool, draw(st.integers(2, pool - 1)))
    else:
        spec = GameSpec(GameKind.POSITIONAL_DIGITS, 10, draw(st.integers(1, 6)))
    kind = draw(st.sampled_from(list(EstimatorKind)))
    draws = draw(st.integers(30, 700) | st.integers(528, 700))  # the second often spans two chunks
    shortest = spec.categories if kind is EstimatorKind.MAIN_DIAGONAL else 1
    window = draw(st.none() | st.integers(shortest, draws - 1))
    smoothing = draw(st.sampled_from([0.0, 1.0, 5e-324, 1e20, 1e100, 1e290, 1e305]))
    settings = {"window": window, "warmup": window, "hit_threshold": draw(st.integers(1, spec.picks))}
    history = synthetic_history(spec, draws, seed=draw(st.integers(0, 2**16)))
    return history, EstimatorConfig(kind, mle_smoothing=smoothing), settings


class TestWalkMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=walk_cases())
    def test_any_game_shape(self, case):
        history, estimator, settings = case
        assert (outcome(walked, history, estimator, **settings)
                == outcome(naive_backtest, history, estimator, **settings))

    @settings(max_examples=200)
    @given(
        window=st.tuples(st.integers(1, 8), st.integers(2, 6)).flatmap(
            lambda shape: st.lists(st.integers(0, 1), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
            .map(lambda bits: np.array(bits, dtype=np.int64).reshape(shape))),
        s=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_mle_closed_form_is_the_per_entry_sum(self, window, s):
        """The oracle's closed form equals the paper's sum_ij f_j log(f_j / x_ij)
        over the smoothed entries x = window + s, with f_j = s + c_j / rows
        their column means (a constant column's terms are then exactly 0)."""
        rows, k = window.shape
        col_sums = window.sum(axis=0)
        f = [s + c / rows for c in col_sums.tolist()]
        direct = math.fsum(f[j] * math.log(f[j] / (window[i, j] + s)) for i in range(rows) for j in range(k))
        assert mle_denominator(col_sums, rows, s) == pytest.approx(direct, rel=1e-12, abs=0)

    def test_oracle_calls_no_library_function(self):
        """Every global name the oracle reads from cdmlotto is a type."""
        oracle = [naive_backtest, naive_predict, indicator_matrices, log1p_ratio, mle_denominator,
                  oracle_alpha, oracle_scores, oracle_pick, oracle_predict, oracle_matches]

        def names(code):
            yield from code.co_names
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    yield from names(const)

        for fn in oracle:
            for name in names(fn.__code__):
                value = fn.__globals__.get(name)
                if getattr(value, "__module__", "").startswith("cdmlotto"):
                    assert isinstance(value, type), f"{fn.__name__} reads cdmlotto's {name}"


class TestWalkYieldsEachChunksFit:
    """The walk is one generator: per chunk, its draws, their windows'
    statistics and that batch's concentrations, scores and picks.  Readers of
    the per-window fits reduce its chunks, so the chunks must cover the walk
    once and hold the oracle's fits, and each must cost one estimator call."""

    @pytest.mark.parametrize("spec", [SIX_52, PICK4], ids=["6of52", "pick4"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("window", [None, 60])
    def test_chunks_cover_the_walk_with_the_oracles_fits(self, spec, kind, window):
        history = synthetic_history(spec, 1300, seed=31)
        estimator = EstimatorConfig(kind, mle_smoothing=1.0)
        result = run_backtest(history, estimator, window=window, warmup=window)
        chunks = list(_walk(history, estimator, window, result.warmup))
        # 1,300 draws from a warmup of 10, 52 or 60 make three chunks.
        assert len(chunks) == 3
        assert [ends[0] for ends, *_ in chunks] == list(range(result.warmup, 1300, _CHUNK))
        np.testing.assert_array_equal(np.concatenate([ends for ends, *_ in chunks]), result.draw_indices)
        picks = np.concatenate([picks.reshape(len(ends), -1) for ends, *_, picks in chunks])
        np.testing.assert_array_equal(picks, result.predictions)
        count, m, _ = spec.layout
        matrices = indicator_matrices(history)
        for ends, (rows, col_sums, _), alpha, scores, _ in chunks:
            np.testing.assert_array_equal(np.diff(ends), 1)
            assert len(rows) == len(col_sums) == len(alpha) == len(scores) == len(ends) * count
            for i in (0, len(ends) - 1):
                t = int(ends[i])
                for c, matrix in enumerate(matrices):
                    rows_seen = matrix[0 if window is None else t - window : t]
                    row = i * count + c
                    assert rows[row] == len(rows_seen), (t, c)
                    np.testing.assert_array_equal(col_sums[row], rows_seen.sum(axis=0))
                    assert np.array_equal(alpha[row], oracle_alpha(rows_seen, estimator)), (t, c)
                    assert np.array_equal(scores[row], oracle_scores(rows_seen, estimator, m)), (t, c)

    @pytest.mark.parametrize("spec", [SIX_52, FIVE_10, PICK3, PICK4], ids=["6of52", "5of10", "pick3", "pick4"])
    @pytest.mark.parametrize("draws,window", [(1300, None), (1300, 60), (60 + 2 * _CHUNK, 60)])
    def test_one_estimator_call_per_chunk(self, spec, draws, window, monkeypatch):
        calls = []
        fit = cdmlotto.backtest.alpha_from_stats

        def counted(*args, **kwargs):
            calls.append(args[0].kind)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cdmlotto.backtest, "alpha_from_stats", counted)
        history = synthetic_history(spec, draws, seed=32)
        estimators = [EstimatorConfig(kind, mle_smoothing=1.0) for kind in EstimatorKind]
        for estimator in estimators:
            calls.clear()
            result = run_backtest(history, estimator, window=window, warmup=window)
            assert len(calls) == math.ceil((draws - result.warmup) / _CHUNK), estimator.kind
        calls.clear()
        predict_next(history, estimators, window)
        assert calls == list(EstimatorKind)


class TestWalkMemory:
    """Beyond the result's columns, the walk holds a chunk's arrays and the
    column sums it carries from one chunk to the next: nothing that grows with
    the history, such as prefix sums of every draw's count-matrix rows."""

    # One chunk's one-hot, running sums, fit and match temporaries, and the
    # previous chunk's until the next one is fitted: 1.86 MB on 6-of-52 and
    # 1.50 MB on pick-4 under numpy 2.4, at either history length.
    BUDGET = 2_500_000

    @pytest.mark.parametrize("spec", [SIX_52, PICK4], ids=["6of52", "pick4"])
    @pytest.mark.parametrize("n", [20_000, 40_000])
    def test_peak_beyond_the_columns_is_one_chunks(self, spec, n):
        history = synthetic_history(spec, n, seed=414)
        tracemalloc.start()
        try:
            result = run_backtest(history, EstimatorConfig(EstimatorKind.MOM))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The actuals column is a view of the history's numbers.
        assert peak - result.predictions.nbytes - result.match_counts.nbytes < self.BUDGET


def edged_history(spec, draws, concentration, seed):
    """A history with an edge, and each count matrix's fixed probabilities
    p ~ Dirichlet(concentration / K).  Every draw takes a matrix's m numbers
    whose keys log p + Gumbel noise are largest: m numbers drawn from p
    without replacement, so a digit position's digit is drawn from p."""
    count, m, base = spec.layout
    k = spec.categories
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(k, concentration / k), size=count)
    keys = np.log(probs[:, None]) + rng.gumbel(size=(count, draws, k))
    numbers = np.sort(np.argsort(-keys, axis=2)[..., :m], axis=2) + base
    return DrawHistory(spec, np.arange(draws), np.hstack(numbers), (None,) * draws), probs


def null_hit_rate(spec, threshold):
    """P(match count >= threshold) for a fixed pick against a uniform draw:
    hypergeometric for a set game, binomial(picks, 1/10) for a pick game."""
    m, k = spec.picks, spec.categories
    if spec.kind is GameKind.SET_DRAW:
        return sum(math.comb(m, j) * math.comb(k - m, m - j) for j in range(threshold, m + 1)) / math.comb(k, m)
    return sum(math.comb(m, j) * 0.1**j * 0.9 ** (m - j) for j in range(threshold, m + 1))


class TestPositiveControl:
    """On histories with a real edge the walk must find it, or the tests that
    find its hits at chance's rate on uniform histories would show nothing."""

    @pytest.mark.parametrize("estimator", [
        EstimatorConfig(EstimatorKind.MOM),
        EstimatorConfig(EstimatorKind.MAIN_DIAGONAL),
        EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1.0),
    ], ids=lambda estimator: estimator.kind.value)
    @pytest.mark.parametrize("spec,concentration", [(PICK3, 5.0), (SIX_52, 50.0)], ids=["pick3", "6of52"])
    def test_hits_beat_chance(self, spec, concentration, estimator):
        history, probs = edged_history(spec, 5000, concentration, seed=0)
        result = run_backtest(history, estimator, hit_threshold=3)
        draws = len(result.draw_indices)
        rate = len(result.hit_indices) / draws
        null = null_hit_rate(spec, 3)
        assert rate - null >= 10 * math.sqrt(null * (1 - null) / draws)
        if spec.kind is GameKind.POSITIONAL_DIGITS:
            # The best any pick can do is the most likely digit at every position.
            assert rate >= 0.7 * math.prod(p.max() for p in probs)

    def test_the_null_rates_are_the_counted_ones(self):
        # Small games, every draw enumerated against a fixed pick.
        pairs = list(itertools.product(range(10), repeat=2))
        assert null_hit_rate(GameSpec(GameKind.POSITIONAL_DIGITS, 10, 2), 1) == pytest.approx(
            sum(a == 1 or b == 2 for a, b in pairs) / len(pairs))
        sets = list(itertools.combinations(range(1, 6), 3))
        assert null_hit_rate(GameSpec(GameKind.SET_DRAW, 5, 3), 2) == pytest.approx(
            sum(len({1, 2, 3} & set(s)) >= 2 for s in sets) / len(sets))


class TestGapStats:
    def test_reference_sequence(self):
        stats = gap_stats(REFERENCE_HITS)
        assert stats["gaps"] == list(REFERENCE_GAPS)
        assert round(stats["average_gap"]) == 476
        assert stats["average_gap"] == pytest.approx(4285 / 9)
        assert stats["max_gap"] == 1410
        assert set(stats) == {"gaps", "average_gap", "max_gap"}

    def test_single_hit_has_no_gaps(self):
        assert gap_stats([5]) == {"gaps": [], "average_gap": None, "max_gap": None}

    def test_equally_spaced(self):
        stats = gap_stats([0, 10, 20])
        assert stats["gaps"] == [10, 10] and stats["average_gap"] == 10

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            gap_stats([3, 3, 5])

    @given(st.lists(st.integers(1, 400), min_size=1, max_size=30), st.integers(0, 100))
    def test_cumulative_sums_recover_the_indices(self, gaps, first):
        indices = [first]
        for gap in gaps:
            indices.append(indices[-1] + gap)
        stats = gap_stats(indices)
        rebuilt = [first]
        for gap in stats["gaps"]:
            rebuilt.append(rebuilt[-1] + gap)
        assert rebuilt == indices


class TestClassifyStretches:
    def test_reference_labels_and_alternation(self):
        stretch = classify_stretches(REFERENCE_GAPS)
        assert stretch["labels"] == ["S", "L", "L", "S", "L", "S", "L", "S", "L"]
        assert stretch["alternation_fraction"] == pytest.approx(7 / 8)
        assert stretch["cutoff"] == SHORT_LONG_CUTOFF == 500
        assert stretch["note"] == ALTERNATION_NOTE

    def test_all_short(self):
        stretch = classify_stretches([1, 2, 3])
        assert stretch["labels"] == ["S", "S", "S"] and stretch["alternation_fraction"] == 0.0

    def test_strict_alternation(self):
        assert classify_stretches([10, 900, 10, 900])["alternation_fraction"] == 1.0

    def test_empty_gaps(self):
        stretch = classify_stretches([])
        assert stretch["labels"] == [] and stretch["alternation_fraction"] is None

    def test_cutoff_is_inclusive_for_long(self):
        assert classify_stretches([500])["labels"] == ["L"]
        assert classify_stretches([499])["labels"] == ["S"]

    def test_note_flags_the_unreproduced_rate(self):
        assert "60%" in ALTERNATION_NOTE and "not reproduced" in ALTERNATION_NOTE


class TestExtrapolateGaps:
    def test_exact_log_linear_data(self):
        projected = extrapolate_gaps({2: 10.0, 3: 100.0}, [4])
        assert projected[4] == pytest.approx(1000.0, rel=1e-9)

    def test_projections_increase_with_match_count(self):
        projected = extrapolate_gaps({2: 12.0, 3: 105.0, 4: 529.0}, [5, 6])
        assert projected[5] > 529.0
        assert projected[6] > projected[5]

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_gaps({2: 12.0}, [3])

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_gaps({2: 0.0, 3: 10.0}, [4])


class TestRenderComparison:
    def test_reference_layout(self):
        lines = render_comparison(
            [("md", (11, 19, 27, 37, 39, 45)), ("mm", (11, 19, 28, 36, 39, 45))],
            (6, 24, 29, 35, 41, 44),
        )
        assert lines == [
            "11 19 27 37 39 45 [MD]",
            "11 19 28 36 39 45 [MM]",
            "6 24 29 35 41 44 [AC]",
        ]

    def test_actual_only(self):
        assert render_comparison([], (1, 2, 3)) == ["1 2 3 [AC]"]

    def test_pick_combination(self):
        assert render_comparison([("md", (5, 0, 9))]) == ["5 0 9 [MD]"]
