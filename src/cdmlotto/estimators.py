"""Closed-form estimators for the Dirichlet concentration vector.

Three procedures, all cheap enough to refit at every draw of a backtest:

* mle: closed-form maximum likelihood.  Per-category shares are the
  column means; the total mass divides a constant involving the
  Euler-Mascheroni constant by a log-dispersion term of the entries.
* mm: method of moments, the plain column mean.
* md: the diagonal of the most recent square window of the matrix (the
  freshest K draws).

Each estimator exists once, in :func:`alpha_from_stats`, as a function of
a stacked batch of windows' sufficient statistics: rows and column sums,
plus the trailing diagonal for md, which :func:`_diagonals` reads from the
entries.  :func:`estimate_alpha` computes them for one matrix, a batch of
one; the backtest carries them as running sums along its walk, a chunk at
a time.
``estimate_mle``/``estimate_mom``/``estimate_main_diagonal`` wrap
``estimate_alpha``.

The MLE total-mass formula sums the logs of the smoothed entries
``x + smoothing``.  On a 0/1 indicator matrix, the kind every game's
history builds, column j's log sum is ``(r - c_j) log s + c_j log1p(s)``,
so the formula is exact from the row count r and the integer column sums
c_j alone; it is then positive unless every column is constant.  Other
integer matrices (the paper's hand examples) sum a nonnegative term per
entry, again exactly 0 only for a constant column.  Either way a zero
entry has no log: the default smoothing of 0 errors on one instead of
silently adjusting, and ``smoothing`` adds a uniform offset first for
opt-in use on such data.

The moment and diagonal estimators can legitimately return zero entries.
The predictive expectation accepts them; density code rejects them, so a
density caller lifts exact zeros itself with :func:`apply_positivity_floor`
rather than the estimators hiding a lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._numpy import np
from .distributions import CountMatrix, _as_counts, _as_real

__all__ = [
    "EULER_MASCHERONI",
    "EstimationError",
    "ZeroEntryError",
    "DegenerateDataError",
    "NonPositiveAlphaError",
    "InsufficientRowsError",
    "EstimatorKind",
    "EstimatorConfig",
    "estimate_mle",
    "estimate_mom",
    "estimate_main_diagonal",
    "estimate_alpha",
    "alpha_from_stats",
    "mle_alpha_from_stats",
    "apply_positivity_floor",
]

# Used at exactly this printed precision so results are reproducible digit
# for digit; extra decimals would change the estimates.
EULER_MASCHERONI = 0.57721566490


class EstimationError(ValueError):
    """Base class for estimator failures."""


class ZeroEntryError(EstimationError):
    """A matrix entry is zero where its log is required."""


class DegenerateDataError(EstimationError):
    """The total-mass denominator vanished (every column is constant)."""


class NonPositiveAlphaError(EstimationError):
    """The estimate is not a valid concentration vector."""


class InsufficientRowsError(EstimationError):
    """Fewer rows than categories, so no trailing square window exists."""


class EstimatorKind(Enum):
    MLE = "mle"
    MOM = "mm"
    MAIN_DIAGONAL = "md"


@dataclass(frozen=True)
class EstimatorConfig:
    """An estimator choice plus the mle's additive smoothing."""

    kind: EstimatorKind
    mle_smoothing: float = 0.0

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so test for the valid range instead.
        if not 0 <= _as_real(self.mle_smoothing, "mle_smoothing") < math.inf:
            raise ValueError("mle_smoothing must be finite and nonnegative")
        object.__setattr__(self, "mle_smoothing", float(self.mle_smoothing))


def mle_alpha_from_stats(rows, col_means: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Closed-form MLE total mass times shares, from each window's total-mass denominator.

    Takes a stacked batch of windows: ``rows`` holds each window's row
    count, row i of ``col_means`` its per-category means f_j of the
    smoothed entries x_ij and ``denominator[i]`` the sum over its entries of
    ``f_j log(f_j / x_ij)``.  A failure describes the first window that
    fails its check.
    """
    rows, col_means, denominator = np.asarray(rows), np.asarray(col_means), np.asarray(denominator)
    if np.any(denominator == 0.0):
        raise DegenerateDataError("total-mass denominator is zero (all columns constant)")
    alpha0 = rows * (col_means.shape[1] - 1) * EULER_MASCHERONI / denominator
    nonpositive = alpha0 <= 0.0
    if nonpositive.any():
        first = float(alpha0[nonpositive.argmax()])
        raise NonPositiveAlphaError(f"estimated total mass {first:.6g} is not positive")
    return alpha0[:, None] * col_means


def apply_positivity_floor(alpha: np.ndarray, floor: float) -> np.ndarray:
    """Lift exact zeros to ``floor``; positive entries are never touched."""
    if floor <= 0:
        return alpha
    return np.where(alpha == 0.0, floor, alpha)


def alpha_from_stats(config: EstimatorConfig, rows, col_sums: np.ndarray, diagonal=None,
                     entries=None) -> np.ndarray:
    """The configured estimate for a stacked batch of windows.

    Row i of each statistic describes window i: ``rows[i]`` rows whose raw
    column sums are ``col_sums[i]``.  md reads ``diagonal[i]``, the main
    diagonal of the window's trailing K rows.  mle treats the windows as
    0/1 indicator matrices and needs nothing more, unless ``entries``, a
    (windows, rows, K) array, gives the entries of general integer
    windows.  Every estimate returned is finite and nonnegative: a
    non-finite one (huge mle smoothing overflows) raises
    :class:`NonPositiveAlphaError`.  Each check raises for the first
    window that fails it.
    """
    rows = np.asarray(rows)
    r = rows[:, None]
    if config.kind is EstimatorKind.MOM:
        alpha = col_sums / r
    elif config.kind is EstimatorKind.MAIN_DIAGONAL:
        k = col_sums.shape[1]
        short = rows < k
        if short.any():
            raise InsufficientRowsError(
                f"need at least {k} rows for a trailing {k}x{k} window, got {rows[short.argmax()]}"
            )
        alpha = diagonal.astype(np.float64)
    else:
        s = config.mle_smoothing
        # A 0/1 column has a zero entry exactly when its sum is below the row count.
        if s == 0 and (np.any(entries == 0) if entries is not None else np.any(col_sums < r)):
            raise ZeroEntryError(
                "window has zero entries after smoothing; the total-mass formula takes logs of every entry"
            )
        # Huge smoothing overflows to inf or NaN here; the finiteness check on
        # alpha rejects such estimates, so numpy's warnings would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            col_means = (col_sums + r * s) / r
            p = col_sums / r
            if entries is not None:
                denominator = _entry_denominator(entries, p, s)
            elif s == 0:
                denominator = np.zeros(rows.shape)  # every entry is 1, so every column is constant
            else:
                # Each column's share of sum_i f log(f / x_i); exactly 0 for a constant column.
                denominator = rows * ((s + p) * (_log1p_ratio(p, s) - p * _log1p_ratio(1, s))).sum(axis=1)
            alpha = mle_alpha_from_stats(rows, col_means, denominator)
    if not np.isfinite(alpha).all():
        raise NonPositiveAlphaError("estimated concentration is not finite")
    return alpha


def _log1p_ratio(q, s: float):
    """``log1p(q / s)`` for q >= 0 and s > 0.

    A subnormal s overflows ``1 / s`` and ``q / s``, so there it is
    ``log(s + q) - log(s)``, one form for every q: a constant column's two
    terms still cancel exactly.  Normal s keeps ``log1p(q / s)``.
    """
    if math.isfinite(1 / s):
        return np.log1p(q / s)
    return np.log(s + q) - np.log(s)


def _entry_denominator(entries: np.ndarray, p: np.ndarray, s: float) -> np.ndarray:
    """Per window, sum_j f_j sum_i log((s + p_j) / (s + x_ij)), with f_j = s + p_j.

    With v = (x_ij - p_j) / (s + p_j), a column's v sum to 0, so its log sum
    equals sum_i (v - log1p(v)): nonnegative terms, 0 only where x_ij = p_j.
    The sum is therefore exactly 0 only when every column is constant.
    ``f_j (v - log1p(v))`` is evaluated as ``(x - p) v psi(v)``, with
    ``psi(v) = (v - log1p(v)) / v**2`` taken from its series near 0, so
    neither the cancellation of the log terms nor an underflowing ``v**2``
    at huge smoothing loses it.
    """
    deviation = entries - p[:, None, :]
    v = deviation / (s + p[:, None, :])
    return (deviation * v * _log1p_remainder(v)).sum(axis=(1, 2))


def _log1p_remainder(v: np.ndarray) -> np.ndarray:
    """``(v - log1p(v)) / v**2`` for v > -1; it tends to 1/2 at v = 0."""
    near_zero = np.abs(v) < 0.01
    # 1/2 - v/3 + v**2/4 - ... to the v**8 term; the first omitted term is
    # below 1e-18 of the sum where the series is used.
    series = np.full_like(v, 1 / 10)
    for k in range(9, 1, -1):
        series = 1 / k - v * series
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (v - np.log1p(v)) / v**2
    return np.where(near_zero, series, direct)


def _diagonals(entries: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """md's statistic: row i, matrix c is the main diagonal of matrix c's K
    rows before ``ends[i]`` in the (n, count, K) ``entries``, so entry j is
    ``entries[ends[i] - K + j, c, j]``.  Rows before row 0 read as 0: md
    rejects a window that short."""
    count, k = entries.shape[1:]
    at = ends[:, None, None] - k + np.arange(k)
    diagonals = entries[np.maximum(at, 0), np.arange(count)[:, None], np.arange(k)]
    return np.where(at >= 0, diagonals, 0)


def estimate_alpha(matrix, config: EstimatorConfig) -> np.ndarray:
    """Fit the configured estimator on one window: a CountMatrix or any
    nonnegative integer n-by-K array (no constant row sums needed)."""
    counts = matrix.counts if isinstance(matrix, CountMatrix) else _as_counts(matrix, "counts", ndim=2)
    col_sums = counts.sum(axis=0)
    # 0/1 windows fit from their column sums; others sum a term per entry.
    entries = counts[None] if config.kind is EstimatorKind.MLE and counts.max(initial=0) > 1 else None
    rows = np.array([len(counts)])
    return alpha_from_stats(config, rows, col_sums[None], _diagonals(counts[:, None], rows)[:, 0], entries)[0]


def estimate_mle(matrix, smoothing: float = 0.0) -> np.ndarray:
    """Closed-form maximum likelihood estimate of the concentration vector."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing))


def estimate_mom(matrix) -> np.ndarray:
    """Method-of-moments estimate: the per-category column mean."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM))


def estimate_main_diagonal(matrix) -> np.ndarray:
    """Main diagonal of the trailing square window (the most recent K draws)."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL))
