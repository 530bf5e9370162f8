"""Closed-form estimators for the Dirichlet concentration vector.

Three procedures, all cheap enough to refit inside a per-draw backtest
loop:

* mle: closed-form maximum likelihood.  Per-category shares are the
  column means; the total mass divides a constant involving the
  Euler-Mascheroni constant by a log-dispersion term of the entries.
* mm: method of moments, the plain column mean.
* md: the diagonal of the most recent square window of the matrix (the
  freshest K draws).

Each estimator exists once, in :func:`alpha_from_stats`, as a function of
a window's sufficient statistics (rows, column sums, trailing rows, and
for mle smoothed log sums and a zero count).  :func:`estimate_alpha`
computes them from one matrix, the backtest from prefix sums for every
window of its walk; ``estimate_mle``/``estimate_mom``/``estimate_main_diagonal``
wrap ``estimate_alpha``.

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


def mle_alpha_from_stats(rows: int, col_means: np.ndarray, col_log_sums: np.ndarray) -> np.ndarray:
    """Closed-form MLE total mass times shares, from smoothed-matrix statistics.

    ``col_means`` are the per-category means f_j of the smoothed entries,
    ``col_log_sums`` the per-category sums of their logs.
    """
    f = np.asarray(col_means, dtype=np.float64)
    logs = np.asarray(col_log_sums, dtype=np.float64)
    k = f.size
    # 0 ln 0 = 0 by convention.
    f_log_f = np.where(f > 0.0, f * np.log(np.where(f > 0.0, f, 1.0)), 0.0)
    denominator = rows * float(f_log_f.sum()) - float((f * logs).sum())
    if denominator == 0.0:
        raise DegenerateDataError("total-mass denominator is zero (all columns constant)")
    alpha0 = rows * (k - 1) * EULER_MASCHERONI / denominator
    if alpha0 <= 0.0:
        raise NonPositiveAlphaError(f"estimated total mass {alpha0:.6g} is not positive")
    return alpha0 * f


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


def alpha_from_stats(config: EstimatorConfig, rows: int, col_sums: np.ndarray, tail=None,
                     log_sums=None, zero_count: int = 0) -> np.ndarray:
    """The configured estimate from one window's sufficient statistics.

    ``col_sums`` are the raw column sums of the window's ``rows`` rows.  md
    reads ``tail``, the window's trailing ``min(rows, K)`` rows.  mle reads
    ``log_sums`` and ``zero_count``, the column sums and the zero count of
    :func:`smoothed_logs` over the window.  The positivity floor is applied
    last.
    """
    if config.kind is EstimatorKind.MOM:
        alpha = col_sums / rows
    elif config.kind is EstimatorKind.MAIN_DIAGONAL:
        k = col_sums.size
        if rows < k:
            raise InsufficientRowsError(f"need at least {k} rows for a trailing {k}x{k} window, got {rows}")
        alpha = np.diagonal(tail).astype(np.float64)
    else:
        if zero_count:
            raise ZeroEntryError(
                "window has zero entries after smoothing; the total-mass formula takes logs of every entry"
            )
        col_means = (col_sums + rows * config.mle_smoothing) / rows
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
    log_sums, zero_count = None, 0
    if config.kind is EstimatorKind.MLE:
        logs, zeros = smoothed_logs(counts, config.mle_smoothing)
        log_sums, zero_count = logs.sum(axis=0), int(zeros.sum())
    return alpha_from_stats(config, rows, col_sums, counts[max(rows - k, 0):], log_sums, zero_count)


def estimate_mle(matrix, smoothing: float = 0.0) -> np.ndarray:
    """Closed-form maximum likelihood estimate of the concentration vector."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MLE, mle_smoothing=smoothing))


def estimate_mom(matrix) -> np.ndarray:
    """Method-of-moments estimate: the per-category column mean."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MOM))


def estimate_main_diagonal(matrix) -> np.ndarray:
    """Main diagonal of the trailing square window (the most recent K draws)."""
    return estimate_alpha(matrix, EstimatorConfig(EstimatorKind.MAIN_DIAGONAL))
