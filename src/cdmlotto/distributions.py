"""Log-space densities for the multinomial-Dirichlet conjugate family.

The central object is the compound Dirichlet-multinomial distribution
(CDM, also known as the multivariate Polya distribution): the marginal
law of multinomial counts once a Dirichlet prior over the category
probabilities has been integrated out.  Updating the Dirichlet with
observed counts and evaluating the CDM under the updated parameters gives
the posterior predictive distribution of the next count vector, whose
expectation is the prediction rule used by the backtest.

All densities are computed and returned in log space; the gamma-function
ratios involved overflow float64 long before realistic draw histories do.
Callers exponentiate when they need probabilities.

Concentration vectors are allowed to carry zero entries as data (two of
the estimators produce them on real histories).  Density evaluation
rejects non-positive entries, while the predictive expectation only needs
the total mass of ``alpha + counts`` to be positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CountMatrix",
    "PROB_SUM_TOLERANCE",
    "log_gamma",
    "multinomial_log_pmf",
    "dirichlet_log_pdf",
    "dirichlet_posterior",
    "cdm_log_pmf",
    "cdm_expectation",
    "posterior_predictive_log_pmf",
    "predictive_expectation",
    "beta_bernoulli_posterior_pdf",
]

# Probability vectors must sum to 1 within this absolute tolerance.
PROB_SUM_TOLERANCE = 1e-12


def log_gamma(x: float) -> float:
    """Natural log of the gamma function, defined for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _as_counts(x, name: str = "x", ndim: int = 1) -> np.ndarray:
    """The one count validator: a fresh int64 copy of nonnegative integer
    counts, a nonempty vector (``ndim=1``) or an n >= 1 by K >= 2 matrix."""
    arr = np.asarray(x)
    if ndim == 1:
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-d vector")
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array")
    elif arr.shape[0] < 1 or arr.shape[1] < 2:
        raise ValueError(f"count matrix needs n >= 1 rows and K >= 2 columns, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(arr, rounded):
            raise ValueError(f"{name} must hold integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _as_alpha(alpha, *, positive: bool, name: str = "alpha") -> np.ndarray:
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    return _check_alpha(arr, positive=positive, name=name)


def _check_alpha(arr: np.ndarray, *, positive: bool, name: str = "alpha") -> np.ndarray:
    """Concentration values of any shape: finite, and positive or nonnegative."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if positive:
        if np.any(arr <= 0.0):
            raise ValueError(f"{name} entries must be strictly positive for density evaluation")
    elif np.any(arr < 0.0):
        raise ValueError(f"{name} entries must be nonnegative")
    return arr


def _as_probs(p, name: str = "p") -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} entries must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOLERANCE:
        raise ValueError(f"{name} must sum to 1, got {total!r}")
    return arr


def _same_length(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.size != b.size:
        raise ValueError(f"{what}: lengths {a.size} and {b.size} differ")


@dataclass(frozen=True)
class CountMatrix:
    """Draws-by-categories count matrix with a constant row total.

    Rows are draws in chronological order, columns are categories.  The
    row total (picks per draw) and per-category column sums are recomputed
    from the entries at construction, never trusted from the caller.
    """

    counts: np.ndarray
    row_total: int = field(init=False)
    col_sums: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        arr = _as_counts(self.counts, "counts", ndim=2)
        row_sums = arr.sum(axis=1)
        if np.any(row_sums != row_sums[0]):
            raise ValueError("every row must sum to the same draw total")
        col_sums = arr.sum(axis=0)
        arr.setflags(write=False)
        col_sums.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "row_total", int(row_sums[0]))
        object.__setattr__(self, "col_sums", col_sums)

    @property
    def rows(self) -> int:
        return self.counts.shape[0]

    @property
    def cols(self) -> int:
        return self.counts.shape[1]


def multinomial_log_pmf(x, p) -> float:
    """Log pmf of multinomial counts ``x`` under category probabilities ``p``.

    A zero-probability category with a positive count yields ``-inf``
    (an impossible outcome, not an error).
    """
    xv = _as_counts(x, "x")
    pv = _as_probs(p, "p")
    _same_length(xv, pv, "multinomial_log_pmf")
    n = int(xv.sum())
    out = log_gamma(n + 1) - sum(log_gamma(int(xi) + 1) for xi in xv)
    for xi, pi in zip(xv, pv):
        if pi == 0.0:
            if xi == 0:
                continue
            return -math.inf
        out += int(xi) * math.log(pi)
    return out


def dirichlet_log_pdf(p, alpha) -> float:
    """Log density of the Dirichlet distribution at simplex point ``p``.

    Requires strictly positive concentrations.  Boundary points (some
    ``p_j == 0``) are rejected when the matching concentration is below 1,
    because the density diverges there; with concentration above 1 the
    density is zero and ``-inf`` is returned.
    """
    av = _as_alpha(alpha, positive=True)
    pv = _as_probs(p, "p")
    _same_length(pv, av, "dirichlet_log_pdf")
    out = log_gamma(float(av.sum())) - sum(log_gamma(float(aj)) for aj in av)
    for aj, pj in zip(av, pv):
        if pj == 0.0:
            if aj < 1.0:
                raise ValueError("density diverges at the simplex boundary for alpha < 1")
            if aj == 1.0:
                continue
            return -math.inf
        out += (float(aj) - 1.0) * math.log(pj)
    return out


def dirichlet_posterior(alpha, x) -> np.ndarray:
    """Posterior concentrations after observing counts: ``alpha + x`` per entry."""
    av = _as_alpha(alpha, positive=False)
    xv = _as_counts(x, "x")
    _same_length(av, xv, "dirichlet_posterior")
    return av + xv


def cdm_log_pmf(x, alpha) -> float:
    """Log pmf of the compound Dirichlet-multinomial at count vector ``x``.

    The sample total is taken from ``x`` itself.  Everything is assembled
    from ``log_gamma`` terms so large totals or concentrations never
    overflow.
    """
    xv = _as_counts(x, "x")
    av = _as_alpha(alpha, positive=True)
    _same_length(xv, av, "cdm_log_pmf")
    n = int(xv.sum())
    a0 = float(av.sum())
    out = log_gamma(n + 1) + log_gamma(a0) - log_gamma(a0 + n)
    for xj, aj in zip(xv, av):
        out += log_gamma(float(aj) + int(xj)) - log_gamma(float(aj)) - log_gamma(int(xj) + 1)
    return out


def cdm_expectation(alpha, total: int) -> np.ndarray:
    """Expected counts out of ``total`` trials: ``total * alpha_j / alpha_0``."""
    av = _as_alpha(alpha, positive=False)
    if total < 0 or int(total) != total:
        raise ValueError(f"total must be a nonnegative integer, got {total}")
    a0 = float(av.sum())
    if a0 <= 0.0:
        raise ValueError("alpha must have positive total mass")
    return int(total) * av / a0


def posterior_predictive_log_pmf(z, alpha, counts) -> float:
    """Log pmf of the next count vector ``z`` after observing ``counts``.

    Structurally the CDM evaluated under the posterior concentrations, so
    the substitution of observed counts into the parameters is the
    composition itself rather than a re-derivation.
    """
    return cdm_log_pmf(z, dirichlet_posterior(alpha, counts))


def predictive_expectation(alpha, counts, m: int) -> np.ndarray:
    """Expected next counts out of ``m`` picks: ``m * (alpha_j + n_j) / sum``.

    This is the prediction rule: rank categories by their posterior
    predictive expectation.  Zero concentrations are fine as long as
    ``alpha + counts`` carries positive total mass.
    """
    av = _as_alpha(alpha, positive=False)
    cv = _as_counts(counts, "counts")
    _same_length(av, cv, "predictive_expectation")
    if m < 1 or int(m) != m:
        raise ValueError(f"m must be a positive integer, got {m}")
    return _predictive_scores(av[None], cv[None], int(m))[0]


def _predictive_scores(alpha: np.ndarray, counts: np.ndarray, m: int) -> np.ndarray:
    """``m * (alpha + counts) / row total`` for a stacked batch of checked
    concentration and count rows."""
    post = alpha + counts
    # Concentrations near the float64 limit overflow the totals; the
    # selection's finiteness check rejects the scores that result.
    with np.errstate(over="ignore", invalid="ignore"):
        total = post.sum(axis=1, keepdims=True)
        if np.any(total <= 0.0):
            raise ValueError("alpha + counts must have positive total mass")
        return m * post / total


def beta_bernoulli_posterior_pdf(p: float, successes: int, trials: int) -> float:
    """Posterior density of a uniform-prior Bernoulli rate after ``trials`` flips.

    Evaluates ``p^s (1-p)^(n-s) / B(s+1, n-s+1)`` at an interior point.
    This is the two-category reduction used as a test oracle against the
    vector machinery.
    """
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}, {trials}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    log_beta = log_gamma(successes + 1) + log_gamma(trials - successes + 1) - log_gamma(trials + 2)
    return math.exp(successes * math.log(p) + (trials - successes) * math.log1p(-p) - log_beta)
