"""Distribution-core tests: frozen oracle values, domain errors, and the
structural identities the rest of the package leans on."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlotto.backtest import (
    PredictedCombination,
    classify_stretches,
    extrapolate_gaps,
    gap_report,
    gap_stats,
    match_count,
    predict_next,
    run_backtest,
)
from cdmlotto.distributions import (
    CountMatrix,
    _as_int,
    _as_int64,
    beta_bernoulli_posterior_pdf,
    cdm_expectation,
    cdm_log_pmf,
    dirichlet_log_pdf,
    dirichlet_posterior,
    log_gamma,
    multinomial_log_pmf,
    posterior_predictive_log_pmf,
    predictive_expectation,
)
from cdmlotto.estimators import EstimatorConfig, EstimatorKind
from cdmlotto.ingest import GameKind, GameSpec, synthetic_history
from cdmlotto.strategy import (
    StrategyConfig,
    next_player_count,
    required_budget,
    simulate_stream,
    simulate_streams,
)


def compositions(total, parts):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def beta_binomial_pmf_quad(successes, trials, a, b):
    """Independent quadrature oracle: binomial likelihood integrated against
    the (a, b) prior density, normalized by the prior mass."""
    from scipy import integrate

    coeff = math.comb(trials, successes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        numerator, _ = integrate.quad(
            lambda p: coeff * p ** (successes + a - 1) * (1 - p) ** (trials - successes + b - 1),
            0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300,
        )
        denominator, _ = integrate.quad(
            lambda p: p ** (a - 1) * (1 - p) ** (b - 1),
            0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300,
        )
    return numerator / denominator


@st.composite
def alpha_vectors(draw, min_k=2, max_k=6):
    k = draw(st.integers(min_k, max_k))
    return np.array(draw(st.lists(
        st.floats(0.01, 50, allow_nan=False, allow_infinity=False), min_size=k, max_size=k)))


@st.composite
def alpha_and_counts(draw, min_k=2, max_k=6):
    k = draw(st.integers(min_k, max_k))
    alpha = draw(st.lists(st.floats(0.01, 50, allow_nan=False, allow_infinity=False),
                          min_size=k, max_size=k))
    counts = draw(st.lists(st.integers(0, 25), min_size=k, max_size=k))
    return np.array(alpha), np.array(counts)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.0)

    def test_against_high_precision_reference(self):
        """Absolute error within 1e-12 wherever float64 can represent that,
        relative error within 1e-13 everywhere on [1e-3, 1e6]."""
        import mpmath

        mpmath.mp.dps = 40
        for x in (1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 1.5, 3.25, 10.0, 123.456,
                  1e3, 52341.25, 1e5, 1e6):
            reference = float(mpmath.loggamma(mpmath.mpf(x)))
            error = abs(log_gamma(x) - reference)
            assert error <= max(1e-12, abs(reference) * 1e-13), f"x={x}: error {error}"


class TestMultinomialLogPmf:
    @pytest.mark.parametrize("x,p,expected", [
        ((2, 1), (0.5, 0.5), math.log(0.375)),
        ((3, 0), (1.0, 0.0), 0.0),
        ((1, 1, 1), (1 / 3, 1 / 3, 1 / 3), math.log(6 / 27)),
    ])
    def test_examples(self, x, p, expected):
        assert multinomial_log_pmf(x, p) == pytest.approx(expected, abs=1e-12)

    def test_impossible_outcome_is_neg_inf(self):
        assert multinomial_log_pmf((1, 2), (1.0, 0.0)) == -math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multinomial_log_pmf((1, 2, 3), (0.5, 0.5))

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            multinomial_log_pmf((1, 1), (0.6, 0.6))

    def test_normalizes_over_all_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            n = int(rng.integers(1, 6))
            total = sum(math.exp(multinomial_log_pmf(x, p)) for x in compositions(n, 3))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestDirichletLogPdf:
    def test_uniform_density_is_flat(self):
        assert dirichlet_log_pdf((0.5, 0.5), (1, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_two_two(self):
        assert dirichlet_log_pdf((0.5, 0.5), (2, 2)) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_uniform_three_categories(self):
        assert dirichlet_log_pdf((1 / 3, 1 / 3, 1 / 3), (1, 1, 1)) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_log_pdf((0.5, 0.5), (1, 0))
        with pytest.raises(ValueError):
            dirichlet_log_pdf((0.5, 0.5), (1, -2))

    def test_boundary_with_small_alpha_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_log_pdf((1.0, 0.0), (1, 0.5))

    def test_boundary_with_large_alpha_is_neg_inf(self):
        assert dirichlet_log_pdf((1.0, 0.0), (1, 2)) == -math.inf


class TestDirichletPosterior:
    def test_additivity(self):
        np.testing.assert_array_equal(dirichlet_posterior((1, 2, 3), (4, 5, 6)), [5, 7, 9])

    def test_empty_data_keeps_prior(self):
        np.testing.assert_array_equal(dirichlet_posterior((1, 1), (0, 0)), [1, 1])

    def test_fractional_prior(self):
        np.testing.assert_allclose(dirichlet_posterior((0.5, 0.5), (10, 0)), [10.5, 0.5])

    @given(alpha_and_counts())
    def test_total_mass_adds(self, pair):
        alpha, counts = pair
        post = dirichlet_posterior(alpha, counts)
        assert post.sum() == pytest.approx(alpha.sum() + counts.sum(), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_posterior((1, 2), (1, 2, 3))


class TestCdmLogPmf:
    def test_uniform_prior_single_flip(self):
        assert math.exp(cdm_log_pmf((1, 0), (1, 1))) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_prior_two_heads(self):
        assert math.exp(cdm_log_pmf((2, 0), (1, 1))) == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_sample_has_probability_one(self):
        assert cdm_log_pmf((0, 0, 0), (2, 3, 4)) == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            cdm_log_pmf((1, 0), (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cdm_log_pmf((1, 0, 0), (1, 1))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            cdm_log_pmf((1, -1), (1, 1))

    def test_matches_beta_binomial_integral(self):
        """Two-category reduction against the quadrature oracle."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b = (float(v) for v in rng.uniform(0.1, 10, size=2))
            n = int(rng.integers(1, 21))
            for s in range(n + 1):
                got = math.exp(cdm_log_pmf((s, n - s), (a, b)))
                want = beta_binomial_pmf_quad(s, n, a, b)
                assert got == pytest.approx(want, abs=1e-10)

    def test_normalizes_over_all_counts(self):
        rng = np.random.default_rng(5)
        for k in (2, 3):
            for n in range(1, 5):
                alpha = rng.uniform(0.2, 8, size=k)
                total = sum(math.exp(cdm_log_pmf(x, alpha)) for x in compositions(n, k))
                assert total == pytest.approx(1.0, abs=1e-9)

    @given(alpha_and_counts())
    def test_permutation_invariance(self, pair):
        alpha, counts = pair
        value = cdm_log_pmf(counts, alpha)
        perm = np.random.default_rng(0).permutation(len(alpha))
        assert cdm_log_pmf(counts[perm], alpha[perm]) == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_large_counts_do_not_overflow(self):
        value = cdm_log_pmf((4000, 3500, 2500), (5.0, 3.0, 2.0))
        assert math.isfinite(value)


class TestExpectations:
    def test_symmetric(self):
        np.testing.assert_allclose(cdm_expectation((1, 1, 1), 6), [2, 2, 2])

    def test_weighted(self):
        np.testing.assert_allclose(cdm_expectation((3, 1), 8), [6, 2])

    def test_zero_mass_category(self):
        np.testing.assert_allclose(cdm_expectation((0, 5), 10), [0, 10])

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError):
            cdm_expectation((0, 0), 5)

    def test_predictive_examples(self):
        np.testing.assert_allclose(predictive_expectation((1, 1, 1), (0, 0, 0), 6), [2, 2, 2])
        np.testing.assert_allclose(predictive_expectation((1, 1), (3, 1), 1), [2 / 3, 1 / 3])
        np.testing.assert_allclose(predictive_expectation((0, 0), (5, 5), 4), [2, 2])

    def test_predictive_all_zero_rejected(self):
        with pytest.raises(ValueError):
            predictive_expectation((0, 0), (0, 0), 3)

    @given(alpha_and_counts(), st.integers(1, 100))
    def test_sum_contract(self, pair, m):
        alpha, counts = pair
        scores = predictive_expectation(alpha, counts, m)
        assert float(scores.sum()) == pytest.approx(m, rel=1e-12)

    @given(alpha_vectors(), st.integers(1, 50))
    def test_zero_counts_reduce_to_prior_expectation_exactly(self, alpha, m):
        zeros = np.zeros(len(alpha), dtype=int)
        predictive = predictive_expectation(alpha, zeros, m)
        prior = cdm_expectation(alpha, m)
        assert np.array_equal(predictive, prior)

    @given(alpha_vectors(), st.integers(0, 100))
    def test_prior_expectation_sum_contract(self, alpha, total):
        expected = cdm_expectation(alpha, total)
        assert float(expected.sum()) == pytest.approx(total, rel=1e-12, abs=1e-12)

    @given(alpha_and_counts(), st.integers(1, 20))
    def test_permutation_equivariance(self, pair, m):
        alpha, counts = pair
        perm = np.random.default_rng(1).permutation(len(alpha))
        base = predictive_expectation(alpha, counts, m)
        permuted = predictive_expectation(alpha[perm], counts[perm], m)
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)
        np.testing.assert_allclose(cdm_expectation(alpha[perm], m), cdm_expectation(alpha, m)[perm], rtol=1e-12)


class TestPosteriorPredictive:
    def test_reduces_to_prior_pmf_without_data(self):
        assert math.exp(posterior_predictive_log_pmf((1, 0), (1, 1), (0, 0))) == pytest.approx(0.5, abs=1e-12)

    def test_posterior_nine_one(self):
        assert math.exp(posterior_predictive_log_pmf((1, 0), (1, 1), (8, 0))) == pytest.approx(0.9, abs=1e-12)

    def test_complement(self):
        assert math.exp(posterior_predictive_log_pmf((0, 1), (1, 1), (8, 0))) == pytest.approx(0.1, abs=1e-12)

    @given(alpha_and_counts())
    def test_is_exactly_the_composition(self, pair):
        alpha, counts = pair
        z = np.minimum(counts, 3)
        composed = cdm_log_pmf(z, dirichlet_posterior(alpha, counts))
        assert posterior_predictive_log_pmf(z, alpha, counts) == composed


class TestBetaBernoulliPosteriorPdf:
    def test_no_data_gives_uniform(self):
        assert beta_bernoulli_posterior_pdf(0.5, 0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_one_success(self):
        assert beta_bernoulli_posterior_pdf(0.5, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_one_of_two(self):
        assert beta_bernoulli_posterior_pdf(0.25, 1, 2) == pytest.approx(1.125, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_bernoulli_posterior_pdf(0.0, 1, 2)
        with pytest.raises(ValueError):
            beta_bernoulli_posterior_pdf(1.0, 1, 2)
        with pytest.raises(ValueError):
            beta_bernoulli_posterior_pdf(0.5, 3, 2)

    @settings(max_examples=25)
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_integrates_to_one(self, s, extra):
        from scipy import integrate

        n = s + extra
        mass, _ = integrate.quad(lambda p: beta_bernoulli_posterior_pdf(p, s, n), 0, 1, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestCountMatrix:
    def test_recomputes_totals(self):
        matrix = CountMatrix(np.array([[1, 0, 1], [0, 1, 1]]))
        assert matrix.row_total == 2
        np.testing.assert_array_equal(matrix.col_sums, [1, 1, 2])
        assert matrix.rows == 2 and matrix.cols == 3

    def test_rejects_uneven_rows(self):
        with pytest.raises(ValueError):
            CountMatrix(np.array([[1, 0], [1, 1]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CountMatrix(np.array([[1, -1], [0, 0]]))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            CountMatrix(np.array([[1], [1]]))

    def test_entries_are_read_only(self):
        matrix = CountMatrix(np.array([[1, 1], [2, 0]]))
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 5

    @pytest.mark.parametrize("counts", [
        [["1", "0"], ["0", "1"]],
        [[2**64, 0], [0, 1]],
        [[1e20, 0], [0, 1e20]],
        [[np.inf, 0], [0, np.inf]],
    ], ids=["strings", "2**64", "1e20", "inf"])
    def test_refuses_what_is_not_an_int64_integer(self, counts):
        with pytest.raises(ValueError, match="^counts must hold integers that fit in int64$"):
            CountMatrix(counts)

    def test_integers_and_exact_floats_keep_their_values(self):
        for counts in ([[3, 0], [1, 2]], np.array([[3.0, 0.0], [1.0, 2.0]]), np.array([[3, 0], [1, 2]], np.uint8)):
            matrix = CountMatrix(counts)
            assert matrix.counts.dtype == np.int64 and matrix.counts.tolist() == [[3, 0], [1, 2]]


class TestIntegerConverter:
    """One converter turns every outside integer array into a fresh int64 copy."""

    @pytest.mark.parametrize("value", [
        [1.5], [0.7], [np.nan], [-np.inf], [2.0**63], ["1"], [True], [1 + 0j], [None], [[1, 2], [3]],
        np.array([2**63], dtype=np.uint64), [-1, 2**63], [2**64],
    ], ids=repr)
    def test_refused_values_name_the_argument(self, value):
        with pytest.raises(ValueError, match="^arg must hold integers that fit in int64$"):
            _as_int64(value, "arg")

    def test_int64_bounds_and_exact_floats_are_kept(self):
        for value in ([-2**63, 2**63 - 1], np.array([2**63 - 1], dtype=np.uint64), [-2.0**63, 3.0, -0.0], []):
            out = _as_int64(value, "arg")
            assert out.dtype == np.int64 and out.tolist() == [int(v) for v in np.asarray(value).tolist()]

    def test_the_copy_is_fresh_and_read_only(self):
        source = np.array([1, 2, 3])
        out = _as_int64(source, "arg")
        assert not np.shares_memory(out, source) and not out.flags.writeable


class TestScalarIntegerRule:
    """``_as_int`` is ``_as_int64``'s rule for one value: integers but bools,
    and floats equal to one, as an unbounded Python int."""

    @pytest.mark.parametrize("value", [
        1.5, 0.7, math.nan, -math.inf, "3", True, np.True_, None, 1 + 0j, Fraction(3), Decimal(3), [3],
    ], ids=repr)
    def test_refused_values_name_the_argument_and_type_only(self, value):
        with pytest.raises(ValueError, match=f"^arg must be an integer, got {type(value).__name__}$"):
            _as_int(value, "arg")

    def test_integers_and_integral_floats_become_python_ints(self):
        for value, expected in ((3, 3), (np.int64(-3), -3), (np.uint64(2**64 - 1), 2**64 - 1),
                                (3.0, 3), (np.float32(-2.0), -2), (1e20, 10**20), (2**70, 2**70)):
            out = _as_int(value, "arg")
            assert type(out) is int and out == expected


PICK3 = GameSpec(GameKind.POSITIONAL_DIGITS, 10, 3)
PICK3_HISTORY = synthetic_history(PICK3, 30, 1)
MOM = EstimatorConfig(EstimatorKind.MOM)
RATIO = StrategyConfig(extension_ratio=Fraction(2))

# Every integer the library takes: the entry point, the name its refusal
# gives, a call taking the value, and the refused cases it accepts (None
# where None means a default or an open stream, 1.5 for a real number).
INTEGER_ENTRY_POINTS = [
    ("GameSpec", "categories", lambda v: GameSpec(GameKind.SET_DRAW, v, 2), ()),
    ("GameSpec", "picks", lambda v: GameSpec(GameKind.POSITIONAL_DIGITS, 10, v), ()),
    ("synthetic_history", "draws", lambda v: synthetic_history(PICK3, v, 1), ()),
    ("synthetic_history", "seed", lambda v: synthetic_history(PICK3, 5, v), ()),
    ("run_backtest", "warmup", lambda v: run_backtest(PICK3_HISTORY, MOM, warmup=v), (None,)),
    ("run_backtest", "window", lambda v: run_backtest(PICK3_HISTORY, MOM, window=v), (None,)),
    ("run_backtest", "hit_threshold", lambda v: run_backtest(PICK3_HISTORY, MOM, hit_threshold=v), (None,)),
    ("predict_next", "window", lambda v: predict_next(PICK3_HISTORY, [MOM], v), (None,)),
    ("match_count", "drawn", lambda v: match_count(PredictedCombination((3, 1, 3), ()), [v] * 3, PICK3), ()),
    ("gap_stats", "hit_indices", lambda v: gap_stats([0, v]), ()),
    ("gap_report", "hit_indices", lambda v: gap_report([0, v]), ()),
    ("classify_stretches", "gaps", lambda v: classify_stretches([v]), ()),
    ("extrapolate_gaps", "observed", lambda v: extrapolate_gaps({0: 2.0, v: 8.0}, [4]), ()),
    ("extrapolate_gaps", "targets", lambda v: extrapolate_gaps({1: 2.0, 2: 4.0}, [v]), ()),
    ("predictive_expectation", "m", lambda v: predictive_expectation([1.0, 2.0], [1, 0], v), ()),
    ("cdm_expectation", "total", lambda v: cdm_expectation([1.0, 2.0], v), ()),
    ("beta_bernoulli_posterior_pdf", "successes", lambda v: beta_bernoulli_posterior_pdf(0.5, v, 5), ()),
    ("beta_bernoulli_posterior_pdf", "trials", lambda v: beta_bernoulli_posterior_pdf(0.5, 1, v), ()),
    *(("StrategyConfig", name, lambda v, name=name: StrategyConfig(**{name: v}), ()) for name in (
        "ticket_price_cents", "draws_per_day", "payout_per_ticket_cents", "quarter_days", "player_cap")),
    ("StrategyConfig", "schedule", lambda v: StrategyConfig(schedule=(1, v)), ()),
    ("EstimatorConfig", "mle_smoothing", lambda v: EstimatorConfig(EstimatorKind.MLE, mle_smoothing=v), (1.5,)),
    ("simulate_streams", "gaps", lambda v: simulate_streams([v], StrategyConfig()), ()),
    ("simulate_stream", "win_draw_offset", lambda v: simulate_stream(v, StrategyConfig()), (None,)),
    ("simulate_stream", "horizon_days", lambda v: simulate_stream(None, StrategyConfig(), horizon_days=v), ()),
    ("required_budget", "max_gap_draws", lambda v: required_budget(v, StrategyConfig()), ()),
    ("next_player_count", "cumulative_loss_cents", lambda v: next_player_count(v, 0, 12, StrategyConfig()), ()),
    ("next_player_count", "previous_net_cents", lambda v: next_player_count(0, v, 12, StrategyConfig()), ()),
    ("next_player_count", "previous_players", lambda v: next_player_count(0, 0, v, RATIO), ()),
]


class TestEveryIntegerPassesTheRule:
    """Each entry point refuses what is not an integer with a ``ValueError``
    naming its argument, and reads an integer of another type, or an integral
    float, exactly as the plain int: results, and the values they keep, compare
    equal by ``repr``, which tells ``3``, ``3.0`` and ``np.int64(3)`` apart."""

    @pytest.mark.parametrize("name, call, value", [
        pytest.param(name, call, value, id=f"{entry}-{name}-{value!r}")
        for entry, name, call, accepted in INTEGER_ENTRY_POINTS
        for value in (1.5, "3", True, None, math.nan) if value not in accepted
    ])
    def test_non_integers_are_refused_naming_the_argument(self, name, call, value):
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize("call, value", [
        pytest.param(call, value, id=f"{entry}-{name}-{value!r}")
        for entry, name, call, _ in INTEGER_ENTRY_POINTS for value in (np.int64(3), 3.0)
    ])
    def test_other_integer_types_read_as_the_plain_int(self, call, value):
        assert repr(call(value)) == repr(call(3))
