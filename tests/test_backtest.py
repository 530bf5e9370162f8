"""Backtest tests: selection and scoring examples, gap statistics against
the reference sequence, and the rolling loop pinned to a naive refit loop."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdmlotto.backtest import (
    ALTERNATION_NOTE,
    BacktestConfig,
    BacktestError,
    classify_stretches,
    extrapolate_gaps,
    gap_stats,
    match_count,
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
    n = len(history.records)
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
        matches = match_count(combo, history.records[t], spec)
        outcomes.append((t, combo.numbers, matches, matches >= threshold))
    return outcomes


class TestRunBacktest:
    def test_constant_history_hits_every_draw(self):
        """Every draw repeats the previous one, so the column profile is the
        drawn set itself and the prediction must match it in full."""
        numbers = (2, 9, 17, 25, 33, 41)
        records = tuple(DrawRecord(i, None, numbers) for i in range(10))
        history = DrawHistory(SIX_52, records)
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

    # A pick-1 history that stays on one digit for 800 draws: each window
    # inside that run has constant columns, so its mle denominator is zero
    # up to rounding.  The walk's prefix-sum logs round differently from
    # the naive loop's window sums (which succeed or report a zero
    # denominator here), so the draw and message were recorded from the
    # per-draw walk before it was batched.
    @pytest.mark.parametrize("smoothing,window,expected", [
        (1.0, 60, "draw 1260: estimated total mass -1.37086e+15 is not positive"),
        (0.5, 64, "draw 1264: estimated total mass -2.15432e+13 is not positive"),
        (3.0, 100, "draw 1300: estimated total mass -5.03251e+12 is not positive"),
    ])
    def test_failure_past_the_first_chunk_names_its_draw(self, smoothing, window, expected):
        rng = random.Random(5)
        digits = [rng.randrange(10) for _ in range(1200)] + [3] * 800 + [rng.randrange(10) for _ in range(300)]
        spec = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 1)
        history = DrawHistory(spec, tuple(DrawRecord(i, None, (d,)) for i, d in enumerate(digits)))
        config = BacktestConfig(EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing),
                                window=window, warmup=window)
        with pytest.raises(BacktestError) as excinfo:
            run_backtest(history, config)
        assert str(excinfo.value) == expected

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
        assert stats.count == 9

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
