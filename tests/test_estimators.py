"""Estimator tests: frozen hand values, error preconditions, and the
structural identities of the three procedures."""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdmlotto.distributions import CountMatrix, cdm_log_pmf
from cdmlotto.estimators import (
    EULER_MASCHERONI,
    DegenerateDataError,
    EstimationError,
    EstimatorConfig,
    EstimatorKind,
    InsufficientRowsError,
    NonPositiveAlphaError,
    ZeroEntryError,
    alpha_from_stats,
    apply_positivity_floor,
    estimate_alpha,
    estimate_main_diagonal,
    estimate_mle,
    estimate_mom,
)


def random_count_matrix(rng, rows=None, cols=None, row_total=None):
    rows = rows or int(rng.integers(2, 8))
    cols = cols or int(rng.integers(2, 6))
    row_total = row_total or int(rng.integers(1, 12))
    p = rng.dirichlet(np.ones(cols))
    return CountMatrix(rng.multinomial(row_total, p, size=rows))


@st.composite
def indicator_windows(draw):
    """A 0/1 window of set-style rows (the same number of ones in each) or
    one-hot rows, repeating a few distinct rows so constant columns occur."""
    k = draw(st.integers(2, 52))
    r = draw(st.integers(1, 200))
    ones = draw(st.one_of(st.just(1), st.integers(1, k - 1)))
    distinct = draw(st.integers(1, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = np.argsort(rng.random((distinct, k)), axis=1) < ones
    return patterns[rng.integers(0, distinct, r)].astype(np.int64)


def mp_mle(counts, s, digits=50):
    """The closed-form MLE from its log-of-entries definition: total mass
    r (K-1) gamma / sum_j f_j sum_i log(f_j / (x_ij + s)), in 50-digit
    arithmetic (huge smoothing needs more: the logs are of 1 + O(1/s))."""
    with mpmath.workdps(digits):
        r, k = counts.shape
        s = mpmath.mpf(s)
        f = [(int(c) + r * s) / r for c in counts.sum(axis=0)]
        denominator = mpmath.fsum(
            f_j * mpmath.fsum(mpmath.log(f_j / (x + s)) for x in column.tolist())
            for f_j, column in zip(f, counts.T)
        )
        alpha0 = r * (k - 1) * mpmath.mpf(EULER_MASCHERONI) / denominator
        return np.array([float(alpha0 * f_j) for f_j in f])


def all_columns_constant(counts):
    col_sums = counts.sum(axis=0)
    return bool(np.all((col_sums == 0) | (col_sums == len(counts))))


@st.composite
def integer_windows(draw):
    """A general nonnegative integer window with some entry above 1, so the
    per-entry form applies; narrow value ranges make constant columns occur."""
    k = draw(st.integers(2, 8))
    r = draw(st.integers(1, 30))
    top = draw(st.integers(2, 40))
    counts = np.array(draw(st.lists(st.lists(st.integers(0, top), min_size=k, max_size=k),
                                    min_size=r, max_size=r)))
    assume(counts.max() > 1)
    return counts


class TestIndicatorMle:
    @settings(max_examples=60, deadline=None)
    @given(counts=indicator_windows(), exponent=st.floats(-3, 3))
    def test_column_sum_form_matches_the_log_of_entries_definition(self, counts, exponent):
        assume(not all_columns_constant(counts))
        s = 10.0**exponent
        np.testing.assert_allclose(estimate_mle(counts, s), mp_mle(counts, s), rtol=1e-9)

    @settings(deadline=None)
    @given(counts=indicator_windows(), exponent=st.floats(-6, 12))
    # Subnormal smoothing, where 1/s overflows: constant columns still cancel exactly.
    @example(counts=np.array([[1, 0, 1], [1, 0, 1]]), exponent=-320.0)
    @example(counts=np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]]), exponent=-320.0)
    def test_total_mass_is_positive_unless_every_column_is_constant(self, counts, exponent):
        # The denominator is exactly 0 (DegenerateDataError) for constant
        # columns; a negative one would raise NonPositiveAlphaError.
        s = 10.0**exponent
        if all_columns_constant(counts):
            with pytest.raises(DegenerateDataError):
                estimate_mle(counts, s)
        else:
            assert np.all(estimate_mle(counts, s) > 0.0)

    @pytest.mark.parametrize("counts", [[[0, 1], [0, 1]], [[1, 1], [1, 1]], [[1, 0], [0, 1]]])
    def test_unsmoothed_zero_entry_is_reported_before_constant_columns(self, counts):
        expected = ZeroEntryError if np.min(counts) == 0 else DegenerateDataError
        with pytest.raises(expected):
            estimate_mle(np.array(counts))


class TestGeneralMle:
    """The per-entry total-mass denominator of general integer matrices."""

    @settings(max_examples=150, deadline=None)
    @given(counts=integer_windows(), exponent=st.floats(-3, 12))
    def test_entry_form_matches_the_log_of_entries_definition(self, counts, exponent):
        assume(not (counts == counts[0]).all())
        s = 10.0**exponent
        np.testing.assert_allclose(estimate_mle(counts, s), mp_mle(counts, s), rtol=1e-9)

    @settings(deadline=None)
    @given(counts=integer_windows(), exponent=st.floats(-3, 300))
    def test_denominator_vanishes_only_for_constant_columns(self, counts, exponent):
        s = 10.0**exponent
        if (counts == counts[0]).all():
            with pytest.raises(DegenerateDataError):
                estimate_mle(counts, s)
        else:
            try:
                assert np.all(estimate_mle(counts, s) > 0.0)
            except NonPositiveAlphaError as exc:
                assert "not finite" in str(exc)  # total mass times shares overflows

    @pytest.mark.parametrize("s", [1e10, 1e100, 1e150])
    def test_large_smoothing_keeps_a_nonconstant_matrix_fit(self, s):
        counts = np.array([[1, 2], [2, 1]])
        np.testing.assert_allclose(estimate_mle(counts, s), mp_mle(counts, s, digits=400), rtol=1e-12)

    @pytest.mark.parametrize("s", [1e200, 1e300])
    def test_overflowing_fit_is_reported_as_not_finite(self, s):
        with pytest.raises(NonPositiveAlphaError, match="estimated concentration is not finite"):
            estimate_mle(np.array([[1, 2], [2, 1]]), s)


class TestMle:
    def test_constant_matrix_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            estimate_mle(np.array([[1, 1], [1, 1]]))

    def test_hand_value(self):
        """Frozen against a by-hand evaluation of the closed form on
        [[1, 2], [2, 1]]: total mass 2*gamma / (6 ln 1.5 - 3 ln 2), shares 1.5."""
        alpha = estimate_mle(np.array([[1, 2], [2, 1]]))
        np.testing.assert_allclose(alpha, [4.9002, 4.9002], atol=1e-3)
        alpha0 = 2 * EULER_MASCHERONI / (6 * math.log(1.5) - 3 * math.log(2))
        np.testing.assert_allclose(alpha, [alpha0 * 1.5, alpha0 * 1.5], rtol=1e-12)

    def test_zero_entry_rejected_without_smoothing(self):
        with pytest.raises(ZeroEntryError):
            estimate_mle(np.array([[1, 0], [2, 3]]))

    def test_smoothing_lifts_zero_entries(self):
        alpha = estimate_mle(np.array([[1, 0], [0, 1]]), smoothing=1.0)
        assert np.all(np.isfinite(alpha))

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            estimate_mle(np.array([[1, 2], [2, 1]]), smoothing=-0.5)

    def test_non_finite_estimate_is_rejected(self):
        # The log-of-entries form of a general integer matrix overflows here.
        with pytest.raises(NonPositiveAlphaError, match="estimated concentration is not finite"):
            estimate_mle(np.array([[1, 2], [2, 1]]), smoothing=1e305)

    def test_share_identity(self):
        """Each entry over the estimate's total equals the column mean's
        share of the column-mean total, a structural consequence of the
        closed form."""
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            matrix = random_count_matrix(rng)
            if np.any(matrix.counts == 0):
                continue
            try:
                alpha = estimate_mle(matrix)
            except DegenerateDataError:
                continue
            f = matrix.counts.mean(axis=0)
            np.testing.assert_allclose(alpha / alpha.sum(), f / f.sum(), rtol=1e-12)
            checked += 1


class TestMom:
    @pytest.mark.parametrize("rows,expected", [
        ([[1, 2], [3, 4]], [2.0, 3.0]),
        ([[1, 0], [0, 1]], [0.5, 0.5]),
    ])
    def test_column_means(self, rows, expected):
        np.testing.assert_allclose(estimate_mom(np.array(rows)), expected)

    def test_constant_rows_return_the_row(self):
        row = [2, 0, 3]
        matrix = CountMatrix(np.array([row] * 5))
        np.testing.assert_allclose(estimate_mom(matrix), row)

    def test_matches_independent_column_means(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            matrix = random_count_matrix(rng)
            by_hand = [sum(int(v) for v in matrix.counts[:, j]) / matrix.rows
                       for j in range(matrix.cols)]
            assert list(estimate_mom(matrix)) == by_hand

    @given(st.integers(1, 9))
    def test_scale_equivariance(self, c):
        """Scaling the entries by c scales the estimate by c exactly, verified
        at the rational level (one correctly rounded division per entry)."""
        from fractions import Fraction

        matrix = np.array([[1, 2, 0], [0, 1, 2], [3, 0, 0]])
        rows = matrix.shape[0]
        scaled_exactly = [float(Fraction(int(s) * c, rows)) for s in matrix.sum(axis=0)]
        assert list(estimate_mom(matrix * c)) == scaled_exactly

    def test_whole_float_counts_read_as_integers(self):
        assert estimate_mom([[1.0, 2.0], [2.0, 1.0]]).tolist() == estimate_mom([[1, 2], [2, 1]]).tolist()

    def test_fractional_counts_are_refused(self):
        with pytest.raises(ValueError, match="counts must hold integers"):
            estimate_mom([[1.5, 1.5], [2.0, 1.0]])


class TestMainDiagonal:
    def test_square_matrix(self):
        np.testing.assert_array_equal(estimate_main_diagonal(np.array([[1, 2], [3, 4]])), [1, 4])

    def test_tall_matrix_uses_trailing_window(self):
        np.testing.assert_array_equal(
            estimate_main_diagonal(np.array([[9, 9], [1, 2], [3, 4]])), [1, 4]
        )

    def test_identity_gives_ones(self):
        np.testing.assert_array_equal(estimate_main_diagonal(np.eye(4, dtype=int)), np.ones(4))

    def test_too_few_rows_rejected(self):
        with pytest.raises(InsufficientRowsError):
            estimate_main_diagonal(np.array([[1, 0, 0], [0, 1, 0]]))

    def test_permuted_identity_window_reads_back_the_pattern(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            perm = rng.permutation(k)
            window = np.eye(k, dtype=int)[perm]
            expected = [int(window[j, j]) for j in range(k)]
            np.testing.assert_array_equal(estimate_main_diagonal(window), expected)


class TestEstimateAlphaDispatch:
    def test_dispatch_matches_direct_calls(self):
        matrix = CountMatrix(np.array([[1, 2], [2, 1], [0, 3]]))
        np.testing.assert_array_equal(
            estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM)), estimate_mom(matrix)
        )
        np.testing.assert_array_equal(
            estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL)),
            estimate_main_diagonal(matrix),
        )
        np.testing.assert_array_equal(
            estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MLE, mle_smoothing=0.5)),
            estimate_mle(matrix, 0.5),
        )

    def test_positivity_floor_lifts_only_zeros(self):
        # A density caller lifts the zeros itself; the densities reject them.
        matrix = np.array([[1, 0, 2], [1, 0, 2]])
        alpha = estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM))
        lifted = apply_positivity_floor(alpha, 1e-6)
        np.testing.assert_allclose(lifted, [1.0, 1e-6, 2.0])
        with pytest.raises(ValueError, match="strictly positive"):
            cdm_log_pmf([1, 0, 1], alpha)
        assert math.isfinite(cdm_log_pmf([1, 0, 1], lifted))

    def test_no_floor_keeps_zeros(self):
        matrix = np.array([[1, 0, 2], [1, 0, 2]])
        alpha = estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM))
        assert alpha[1] == 0.0

    def test_config_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            EstimatorConfig(EstimatorKind.MLE, mle_smoothing=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_knobs(self, value):
        # nan < 0 is False, so a sign test alone lets NaN through.
        with pytest.raises(ValueError, match="finite"):
            EstimatorConfig(EstimatorKind.MLE, mle_smoothing=value)

    @pytest.mark.parametrize("value", ["1", True, Decimal("0.5"), None, 1 + 0j], ids=repr)
    def test_config_rejects_what_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match=f"^mle_smoothing must be a real number, got {type(value).__name__}$"):
            EstimatorConfig(EstimatorKind.MLE, mle_smoothing=value)

    def test_config_keeps_the_smoothing_as_a_float(self):
        matrix = np.array([[1, 0, 2], [1, 1, 1]])
        for value in (Fraction(1, 2), np.float32(0.5), 0.5):
            config = EstimatorConfig(EstimatorKind.MLE, mle_smoothing=value)
            assert type(config.mle_smoothing) is float and config.mle_smoothing == 0.5
            np.testing.assert_array_equal(estimate_alpha(matrix, config), estimate_mle(matrix, 0.5))


class TestEstimatesAreConcentrations:
    """The walk scores ``alpha_from_stats`` output as it comes, so every
    estimate it returns must be finite and nonnegative."""

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @settings(max_examples=60, deadline=None)
    @given(
        counts=indicator_windows(),
        smoothing=st.one_of(
            st.just(0.0),
            st.floats(0, 2.0),
            st.floats(0, 1.7e308),
            st.floats(0, 1e-300),  # subnormals among them
            st.sampled_from([5e-324, 2.2e-308, 1e15, 1e200, 5e307, 1e308, 1.7976931348623157e308]),
        ),
    )
    # mle's total mass times its shares overflows here.
    @example(counts=np.array([[1, 0], [1, 0], [1, 0], [0, 1]]), smoothing=1e308)
    def test_finite_and_nonnegative_or_an_estimation_error(self, kind, counts, smoothing):
        config = EstimatorConfig(kind, mle_smoothing=smoothing)
        k = counts.shape[1]
        # Every prefix window, as an unwindowed walk fits them; a batch would
        # stop at its first failing window.
        for end in range(1, len(counts) + 1):
            window = counts[:end]
            diagonal = np.diagonal(window[-k:])[None] if end >= k else None
            try:
                alpha = alpha_from_stats(config, np.array([end]), window.sum(axis=0)[None], diagonal)
            except EstimationError:
                continue
            assert alpha.shape == (1, k)
            assert np.isfinite(alpha).all()
            assert (alpha >= 0).all()
