"""Closed-form estimators for the Dirichlet concentration vector.

Three procedures, all cheap enough to refit at every draw of a backtest:

* mle: closed-form maximum likelihood.  Per-category shares are the
  column means; the total mass divides a constant involving the
  Euler-Mascheroni constant by a log-dispersion term of the entries.
* mm: method of moments, the plain column mean.
* md: the diagonal of the most recent square window of the matrix (the
  freshest K draws).

Each estimator exists once, in :func:`alpha_from_stats`, as a function of
a stacked batch of windows' sufficient statistics (rows, column sums, the
trailing diagonal, and for mle smoothed log sums and a zero count).
:func:`estimate_alpha` computes them for one matrix, a batch of one; the
backtest computes them from prefix sums for a chunk of its walk at a time.
``estimate_mle``/``estimate_mom``/``estimate_main_diagonal`` wrap
``estimate_alpha``.

The MLE total-mass formula takes logs of every matrix entry and is
therefore undefined whenever any entry is zero, which is always the case
for 0/1 indicator matrices.  ``smoothing`` adds a uniform offset first
for opt-in use on such data; the default of 0 errors instead of silently
adjusting.

The moment and diagonal estimators can legitimately return zero entries.
Density code downstream rejects those while the predictive expectation
accepts them, so ``EstimatorConfig.positivity_floor`` offers an explicit
lift of exact zeros rather than a hidden one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import CountMatrix, _as_counts

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
    "smoothed_logs",
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
    """An estimator choice plus its knobs."""

    kind: EstimatorKind
    mle_smoothing: float = 0.0
    positivity_floor: float = 0.0

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so test for the valid range instead.
        for name in ("mle_smoothing", "positivity_floor"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


def mle_alpha_from_stats(rows, col_means: np.ndarray, col_log_sums: np.ndarray) -> np.ndarray:
    """Closed-form MLE total mass times shares, from smoothed-matrix statistics.

    Takes a stacked batch of windows: ``rows`` holds each window's row
    count, row i of ``col_means`` its per-category means f_j of the
    smoothed entries and row i of ``col_log_sums`` the per-category sums of
    their logs.  A failure describes the first window that fails its check.
    """
    rows = np.asarray(rows)
    f = np.asarray(col_means, dtype=np.float64)
    logs = np.asarray(col_log_sums, dtype=np.float64)
    k = f.shape[1]
    # 0 ln 0 = 0 by convention.
    f_log_f = np.where(f > 0.0, f * np.log(np.where(f > 0.0, f, 1.0)), 0.0)
    denominator = rows * f_log_f.sum(axis=1) - (f * logs).sum(axis=1)
    if np.any(denominator == 0.0):
        raise DegenerateDataError("total-mass denominator is zero (all columns constant)")
    alpha0 = rows * (k - 1) * EULER_MASCHERONI / denominator
    nonpositive = alpha0 <= 0.0
    if nonpositive.any():
        first = float(alpha0[nonpositive.argmax()])
        raise NonPositiveAlphaError(f"estimated total mass {first:.6g} is not positive")
    return alpha0[:, None] * f


def apply_positivity_floor(alpha: np.ndarray, floor: float) -> np.ndarray:
    """Lift exact zeros to ``floor``; positive entries are never touched."""
    if floor <= 0:
        return alpha
    return np.where(alpha == 0.0, floor, alpha)


def smoothed_logs(counts: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry ``log(count + smoothing)`` and per-row zero counts, for mle.

    Entries that are zero after smoothing are counted and get a log of 0,
    so sums stay finite and the zero check can run per window.
    """
    logs = counts + float(smoothing)
    zero = logs == 0.0
    logs[zero] = 1.0
    np.log(logs, out=logs)
    return logs, zero.sum(axis=1)


def alpha_from_stats(config: EstimatorConfig, rows, col_sums: np.ndarray, diagonal=None,
                     log_sums=None, zero_count=None) -> np.ndarray:
    """The configured estimate for a stacked batch of windows.

    Row i of each statistic describes window i: ``rows[i]`` rows whose raw
    column sums are ``col_sums[i]``.  md reads ``diagonal[i]``, the main
    diagonal of the window's trailing K rows.  mle reads ``log_sums[i]``
    and ``zero_count[i]``, the column sums and the zero count of
    :func:`smoothed_logs` over the window.  The positivity floor is applied
    last.  Each check raises for the first window that fails it.
    """
    rows = np.asarray(rows)
    if config.kind is EstimatorKind.MOM:
        alpha = col_sums / rows[:, None]
    elif config.kind is EstimatorKind.MAIN_DIAGONAL:
        k = col_sums.shape[1]
        short = rows < k
        if short.any():
            raise InsufficientRowsError(
                f"need at least {k} rows for a trailing {k}x{k} window, got {rows[short.argmax()]}"
            )
        alpha = diagonal.astype(np.float64)
    else:
        if np.any(zero_count):
            raise ZeroEntryError(
                "window has zero entries after smoothing; the total-mass formula takes logs of every entry"
            )
        # Huge smoothing overflows to inf or NaN here; the finiteness check on
        # alpha rejects such estimates, so numpy's warnings would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            col_means = (col_sums + rows[:, None] * config.mle_smoothing) / rows[:, None]
            alpha = mle_alpha_from_stats(rows, col_means, log_sums)
    return apply_positivity_floor(alpha, config.positivity_floor)


def estimate_alpha(matrix, config: EstimatorConfig) -> np.ndarray:
    """Fit the configured estimator on one window: a CountMatrix or any
    nonnegative integer n-by-K array (no constant row sums needed)."""
    if isinstance(matrix, CountMatrix):
        counts, col_sums = matrix.counts, matrix.col_sums
    else:
        counts = _as_counts(matrix, "counts", ndim=2)
        col_sums = counts.sum(axis=0)
    rows, k = counts.shape
    log_sums, zero_count = None, None
    if config.kind is EstimatorKind.MLE:
        logs, zeros = smoothed_logs(counts, config.mle_smoothing)
        log_sums, zero_count = logs.sum(axis=0)[None], zeros.sum(keepdims=True)
    diagonal = np.diagonal(counts[max(rows - k, 0):])[None]
    return alpha_from_stats(config, np.array([rows]), col_sums[None], diagonal, log_sums, zero_count)[0]


def estimate_mle(matrix, smoothing: float = 0.0) -> np.ndarray:
    """Closed-form maximum likelihood estimate of the concentration vector."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing))


def estimate_mom(matrix) -> np.ndarray:
    """Method-of-moments estimate: the per-category column mean."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM))


def estimate_main_diagonal(matrix) -> np.ndarray:
    """Main diagonal of the trailing square window (the most recent K draws)."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL))
