"""Backtest tests: selection and scoring examples, gap statistics against
the reference sequence, and the rolling loop pinned to a naive refit loop."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdmlotto.backtest import (
    ALTERNATION_NOTE,
    BacktestConfig,
    BacktestError,
    _trackers,
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
from cdmlotto.estimators import EstimationError, EstimatorConfig, EstimatorKind, estimate_alpha
from cdmlotto.ingest import (
    DrawHistory,
    DrawRecord,
    GameKind,
    GameSpec,
    build_count_matrices,
    slice_window,
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
        spec = GameSpec(GameKind.SET_DRAW, 4, 2)
        assert select_combination(np.ones(4), spec).numbers == (1, 2)

    def test_positional_argmax_per_position(self):
        vectors = [np.eye(10)[7], np.eye(10)[0], np.eye(10)[4]]
        assert select_combination(vectors, PICK3).numbers == (7, 0, 4)

    def test_too_few_finite_scores_rejected(self):
        spec = GameSpec(GameKind.SET_DRAW, 4, 2)
        scores = np.array([1.0, np.nan, np.nan, np.nan])
        with pytest.raises(ValueError):
            select_combination(scores, spec)

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
        # Force the exact combinations of interest through the record type.
        prediction = prediction.__class__((7, 13, 24, 34, 45, 47), prediction.scores)
        actual = DrawRecord(0, None, (7, 18, 30, 36, 44, 47))
        assert match_count(prediction, actual, SIX_52) == 2

    def test_identical_combination_matches_all(self):
        combo = select_combination(np.arange(52.0), SIX_52)
        actual = DrawRecord(0, None, combo.numbers)
        assert match_count(combo, actual, SIX_52) == 6

    def test_positional_only_counts_aligned_digits(self):
        combo = select_combination([np.eye(10)[1], np.eye(10)[2], np.eye(10)[3]], PICK3)
        actual = DrawRecord(0, None, (3, 2, 1))
        assert match_count(combo, actual, PICK3) == 1

    def test_arity_mismatch_rejected(self):
        combo = select_combination([np.eye(10)[1], np.eye(10)[2], np.eye(10)[3]], PICK3)
        with pytest.raises(ValueError):
            match_count(combo, DrawRecord(0, None, (1, 2, 3, 4, 5, 6)), PICK3)


def naive_backtest(history, config):
    """Slice-and-refit reference loop; the rolling loop must agree with it."""
    spec = history.spec
    matrices = build_count_matrices(history)
    records = history.records
    n = len(records)
    warmup = config.warmup if config.warmup is not None else max(spec.categories, 10)
    threshold = config.hit_threshold if config.hit_threshold is not None else spec.picks
    picks = spec.picks if spec.kind is GameKind.SET_DRAW else 1
    outcomes = []
    for t in range(warmup, n):
        windows = [slice_window(m, t, config.window) for m in matrices]
        try:
            vectors = [
                predictive_expectation(estimate_alpha(w, config.estimator), w.col_sums, picks)
                for w in windows
            ]
        except EstimationError as exc:
            raise BacktestError(t, str(exc)) from exc
        combo = select_combination(vectors[0] if spec.kind is GameKind.SET_DRAW else vectors, spec)
        matches = match_count(combo, records[t], spec)
        outcomes.append((t, combo.numbers, matches, matches >= threshold))
    return outcomes


# A pick-1 history that stays on digit 3 for 800 draws, past the walk's first chunk.
_rng = random.Random(5)
CONSTANT_RUN = DrawHistory.from_records(PICK1, tuple(
    DrawRecord(i, None, (d,)) for i, d in enumerate(
        [_rng.randrange(10) for _ in range(1200)] + [3] * 800 + [_rng.randrange(10) for _ in range(300)])
))


class TestRollingStatsFromNumbers:
    """The walk's prefix arrays come straight from the numbers column; they
    must be the running sums of the count matrices the naive refit slices."""

    @pytest.mark.parametrize("spec", [SIX_52, PICK3])
    def test_prefix_is_the_cumulative_count_matrix(self, spec):
        history = synthetic_history(spec, 300, seed=6)
        matrices = build_count_matrices(history)
        trackers = _trackers(history)
        assert len(trackers) == len(matrices)
        for tracker, matrix in zip(trackers, matrices):
            assert tracker.prefix.dtype == np.int64
            np.testing.assert_array_equal(tracker.prefix[0], 0)
            np.testing.assert_array_equal(tracker.prefix[1:], np.cumsum(matrix.counts, axis=0))
            ends = np.arange(matrix.cols, matrix.rows + 1)
            expected = [np.diagonal(matrix.counts[end - matrix.cols:end]) for end in ends]
            np.testing.assert_array_equal(tracker.trailing_diagonal(ends), expected)


def naive_predict(history, estimators, window):
    """Slice-and-refit reference for predict_next: one fit per estimator on
    the last ``window`` rows of every count matrix."""
    spec = history.spec
    n = len(history)
    windows = [slice_window(m, n, window) for m in build_count_matrices(history)]
    picks = spec.picks if spec.kind is GameKind.SET_DRAW else 1
    combos = []
    for estimator in estimators:
        vectors = [predictive_expectation(estimate_alpha(w, estimator), w.col_sums, picks) for w in windows]
        combos.append(select_combination(vectors[0] if spec.kind is GameKind.SET_DRAW else vectors, spec))
    return combos


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestPredictNext:
    """predict_next scores the window before the next draw through the
    walk's trackers; the naive refit must agree on scores, numbers and
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
                ((combo,), (expected,)) = got, want
                assert combo.numbers == expected.numbers, case
                assert len(combo.scores) == len(expected.scores), case
                for vec, ref in zip(combo.scores, expected.scores):
                    assert np.array_equal(vec, ref, equal_nan=True), case

    def test_one_call_serves_every_estimator_in_order(self):
        history = synthetic_history(PICK4, 120, seed=3)
        estimators = [EstimatorConfig(kind, mle_smoothing=1.0) for kind in EstimatorKind]
        got = predict_next(history, estimators, 60)
        want = naive_predict(history, estimators, 60)
        assert [c.numbers for c in got] == [c.numbers for c in want]

    def test_is_the_walks_pick_for_the_draw_after_the_history(self):
        history = synthetic_history(SIX_52, 140, seed=9)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MAIN_DIAGONAL), window=60, warmup=60)
        last = run_backtest(history, config).records[-1]
        head = DrawHistory.from_records(SIX_52, history.records[:last.draw_index])
        (combo,) = predict_next(head, [config.estimator], 60)
        assert combo.numbers == last.prediction

    @pytest.mark.parametrize("draws,window,message", [
        (0, None, "history is empty"),
        (30, 31, "window 31 exceeds the 30 available draws"),
        (30, 0, "window must be positive, got 0"),
    ])
    def test_rejects_an_empty_history_and_a_window_that_does_not_fit(self, draws, window, message):
        history = DrawHistory.from_records(SIX_52, synthetic_history(SIX_52, 30, seed=1).records[:draws])
        with pytest.raises(ValueError) as info:
            predict_next(history, [EstimatorConfig(EstimatorKind.MOM)], window)
        assert (type(info.value), str(info.value)) == (ValueError, message)


class TestRunBacktest:
    def test_constant_history_hits_every_draw(self):
        """Every draw repeats the previous one, so the column profile is the
        drawn set itself and the prediction must match it in full."""
        numbers = (2, 9, 17, 25, 33, 41)
        records = tuple(DrawRecord(i, None, numbers) for i in range(10))
        history = DrawHistory.from_records(SIX_52, records)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MOM), warmup=3, hit_threshold=6)
        result = run_backtest(history, config)
        assert result.hit_indices == tuple(range(3, 10))
        assert all(r.prediction == numbers for r in result.records)

    def test_history_shorter_than_warmup_rejected(self):
        history = synthetic_history(SIX_52, 30, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, BacktestConfig(EstimatorConfig(EstimatorKind.MOM), warmup=30))

    def test_threshold_outside_picks_rejected(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        with pytest.raises(ValueError):
            run_backtest(history, BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=7))

    def test_main_diagonal_needs_square_warmup(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MAIN_DIAGONAL), warmup=20)
        with pytest.raises(ValueError):
            run_backtest(history, config)

    def test_window_may_not_exceed_warmup(self):
        history = synthetic_history(SIX_52, 80, seed=1)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MOM), warmup=20, window=30)
        with pytest.raises(ValueError):
            run_backtest(history, config)

    def test_unsmoothed_mle_failure_carries_the_draw_index(self):
        history = synthetic_history(SIX_52, 60, seed=1)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE), hit_threshold=2)
        with pytest.raises(BacktestError) as excinfo:
            run_backtest(history, config)
        assert excinfo.value.draw_index == 52

    def test_is_deterministic(self):
        history = synthetic_history(SIX_52, 150, seed=5)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        assert run_backtest(history, config) == run_backtest(history, config)

    def test_results_differing_in_one_column_are_unequal(self):
        history = synthetic_history(SIX_52, 150, seed=5)
        result = run_backtest(history, BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=2))
        predictions = result.predictions.copy()
        predictions[-1, 0] += 1
        assert dataclasses.replace(result, predictions=predictions) != result

    def test_columns_hold_one_row_per_predicted_draw(self):
        history = synthetic_history(PICK4, 200, seed=2)
        result = run_backtest(history, BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=2))
        assert result.draw_indices.tolist() == list(range(10, 200))
        assert result.predictions.shape == result.actuals.shape == (190, 4)
        assert result.actuals.tolist() == [list(r.numbers) for r in history.records[10:]]
        assert tuple(r.draw_index for r in result.hits) == result.hit_indices
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
        for config in (BacktestConfig(estimator, hit_threshold=2),
                       BacktestConfig(estimator, window=60, warmup=60, hit_threshold=2)):
            result = run_backtest(history, config)
            reference = naive_backtest(history, config)
            assert len(result.records) == len(reference)
            for record, (t, numbers, matches, is_hit) in zip(result.records, reference):
                assert record.draw_index == t
                assert record.prediction == numbers
                assert record.match_count == matches
                assert (record.draw_index in result.hit_indices) == is_hit

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
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                window=window, warmup=window)
        with pytest.raises(BacktestError) as walked:
            run_backtest(history, config)
        with pytest.raises(BacktestError) as naive:
            naive_backtest(history, config)
        assert (walked.value.draw_index, str(walked.value)) == (naive.value.draw_index, str(naive.value))

    @pytest.mark.parametrize("smoothing,window,expected", [
        (1.0, 60, "draw 1260: total-mass denominator is zero (all columns constant)"),
        (0.5, 64, "draw 1264: total-mass denominator is zero (all columns constant)"),
        (3.0, 100, "draw 1300: total-mass denominator is zero (all columns constant)"),
    ])
    def test_failure_past_the_first_chunk_names_its_draw(self, smoothing, window, expected):
        # The first window inside the constant run has constant columns.
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                window=window, warmup=window)
        with pytest.raises(BacktestError) as walked:
            run_backtest(CONSTANT_RUN, config)
        with pytest.raises(BacktestError) as naive:
            naive_backtest(CONSTANT_RUN, config)
        assert str(walked.value) == str(naive.value) == expected

    @pytest.mark.parametrize("smoothing", [0.1, 0.5, 1.0, 3.0, 10.0, 1e3])
    @pytest.mark.parametrize("window", [None, 60, 64, 100, 500])
    def test_constant_run_matches_naive_refit(self, smoothing, window):
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                window=window, warmup=window)
        try:
            walked = [(r.draw_index, r.prediction) for r in run_backtest(CONSTANT_RUN, config).records]
        except BacktestError as exc:
            walked = (exc.draw_index, str(exc))
        try:
            naive = [(t, numbers) for t, numbers, _, _ in naive_backtest(CONSTANT_RUN, config)]
        except BacktestError as exc:
            naive = (exc.draw_index, str(exc))
        assert walked == naive

    def test_subnormal_smoothing_matches_naive_refit(self):
        # 1/s overflows at this smoothing, so the mle fit takes its log-difference form.
        history = synthetic_history(SIX_52, 700, seed=8)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1e-320), hit_threshold=2)
        walked = [(r.draw_index, r.prediction, r.match_count) for r in run_backtest(history, config).records]
        assert walked == [(t, numbers, matches) for t, numbers, matches, _ in naive_backtest(history, config)]

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
        mle, mm = (run_backtest(history, BacktestConfig(estimator, window=window, warmup=window or 60))
                   for estimator in (EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                     EstimatorConfig(EstimatorKind.MOM)))
        np.testing.assert_array_equal(mle.predictions, mm.predictions)

    def test_windowed_run_matches_naive_refit(self):
        history = synthetic_history(SIX_52, 120, seed=31)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MOM), window=60, warmup=60, hit_threshold=2)
        result = run_backtest(history, config)
        for record, (t, numbers, matches, _) in zip(result.records, naive_backtest(history, config)):
            assert (record.draw_index, record.prediction, record.match_count) == (t, numbers, matches)

    def test_hit_bookkeeping_is_exhaustive(self):
        history = synthetic_history(SIX_52, 200, seed=6)
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=2)
        result = run_backtest(history, config)
        rescanned = {r.draw_index for r in result.records if r.match_count >= 2}
        assert set(result.hit_indices) == rescanned
        assert sum(result.tier_counts.values()) == len(result.records)

    def test_result_document_field_names(self):
        history = synthetic_history(SIX_52, 80, seed=6)
        result = run_backtest(history, BacktestConfig(EstimatorConfig(EstimatorKind.MOM), hit_threshold=2))
        document = result.to_dict()
        for field in ("records", "hit_indices", "gaps", "average_gap", "max_gap"):
            assert field in document
        assert set(document["records"][0]) == {"draw_index", "prediction", "actual", "match_count"}


class TestGapStats:
    def test_reference_sequence(self):
        stats = gap_stats(REFERENCE_HITS)
        assert stats.gaps == REFERENCE_GAPS
        assert round(stats.average) == 476
        assert stats.average == pytest.approx(4285 / 9)
        assert stats.max_gap == 1410
        assert len(stats.gaps) == 9

    def test_single_hit_has_no_gaps(self):
        stats = gap_stats([5])
        assert stats.gaps == () and stats.average is None and stats.max_gap is None

    def test_equally_spaced(self):
        stats = gap_stats([0, 10, 20])
        assert stats.gaps == (10, 10) and stats.average == 10

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
        for gap in stats.gaps:
            rebuilt.append(rebuilt[-1] + gap)
        assert rebuilt == indices


class TestClassifyStretches:
    def test_reference_labels_and_alternation(self):
        summary = classify_stretches(REFERENCE_GAPS, cutoff=500)
        assert summary.labels == ("S", "L", "L", "S", "L", "S", "L", "S", "L")
        assert summary.alternation_fraction == pytest.approx(7 / 8)

    def test_all_short(self):
        summary = classify_stretches([1, 2, 3], cutoff=500)
        assert summary.labels == ("S", "S", "S") and summary.alternation_fraction == 0.0

    def test_strict_alternation(self):
        summary = classify_stretches([10, 900, 10, 900], cutoff=500)
        assert summary.alternation_fraction == 1.0

    def test_empty_gaps(self):
        summary = classify_stretches([])
        assert summary.labels == () and summary.alternation_fraction is None

    def test_cutoff_is_inclusive_for_long(self):
        assert classify_stretches([500], cutoff=500).labels == ("L",)
        assert classify_stretches([499], cutoff=500).labels == ("S",)

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

    def test_accepts_draw_records(self):
        record = DrawRecord(3, None, (7, 13, 22, 31, 45, 46))
        assert render_comparison([], record) == ["7 13 22 31 45 46 [AC]"]
