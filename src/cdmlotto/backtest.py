"""Walk-forward backtest of the predictive count model over a draw history.

For every draw past the warmup, the concentration vector is fitted on a
window of prior draws only, the posterior predictive expectation scores
every category, the top-scoring picks become the played combination, and
the combination is scored against the draw that actually happened.  Draws
whose match count reaches the hit threshold are hits; the gaps between
hits feed the stretch statistics and the staking simulator.

The walk evaluates a chunk of consecutive draws per array pass instead of
one Python iteration per draw.  Prefix sums over the count matrices give
every window's column sums (and, for the smoothed-MLE path, its log sums
and zero-entry count) as one subtraction, so a pass over a multi-decade
history costs O(n K) instead of O(n^2 K); the estimate, the predictive
scores, the tie-broken pick and the match count then follow for the whole
chunk at once.  Chunks bound the size of the temporary arrays.  Tests pin
the output to the naive slice-and-refit loop.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import CountMatrix, _check_alpha, _predictive_scores
from .estimators import EstimationError, EstimatorConfig, EstimatorKind, alpha_from_stats, smoothed_logs
from .ingest import DrawHistory, DrawRecord, GameKind, GameSpec, build_count_matrices

__all__ = [
    "SHORT_LONG_CUTOFF",
    "ALTERNATION_NOTE",
    "BacktestError",
    "BacktestConfig",
    "PredictedCombination",
    "DrawOutcome",
    "BacktestResult",
    "GapStats",
    "StretchSummary",
    "select_combination",
    "match_count",
    "run_backtest",
    "gap_stats",
    "classify_stretches",
    "extrapolate_gaps",
    "render_comparison",
]

# Gaps below the cutoff are short stretches, at or above it long ones.
SHORT_LONG_CUTOFF = 500

# Draws scored per array pass: enough to amortise the per-pass Python
# overhead, few enough that a pass's (chunk, K) temporaries stay small.
_CHUNK = 512

ALTERNATION_NOTE = (
    "alternation is the fraction of adjacent gap pairs whose short/long labels differ; "
    "the previously reported 60% alternation rate is not reproduced under this definition"
)


class BacktestError(RuntimeError):
    """Failure at a specific draw while walking the history."""

    def __init__(self, draw_index: int, message: str):
        super().__init__(f"draw {draw_index}: {message}")
        self.draw_index = draw_index


@dataclass(frozen=True)
class BacktestConfig:
    """Walk-forward settings.

    ``window`` of None uses all prior draws.  ``warmup`` of None resolves
    to max(categories, 10).  ``hit_threshold`` of None means a full match.
    """

    estimator: EstimatorConfig
    window: int | None = None
    warmup: int | None = None
    hit_threshold: int | None = None


@dataclass(frozen=True)
class PredictedCombination:
    """A playable combination plus the expectation vectors that ranked it."""

    numbers: tuple[int, ...]
    scores: tuple[np.ndarray, ...]


@dataclass(frozen=True, slots=True)
class DrawOutcome:
    draw_index: int
    prediction: tuple[int, ...]
    actual: tuple[int, ...]
    match_count: int


@dataclass(frozen=True)
class GapStats:
    gaps: tuple[int, ...]
    average: float | None
    max_gap: int | None
    count: int


@dataclass(frozen=True)
class StretchSummary:
    labels: tuple[str, ...]
    alternation_fraction: float | None
    cutoff: int


@dataclass(frozen=True)
class BacktestResult:
    records: tuple[DrawOutcome, ...]
    hit_indices: tuple[int, ...]
    gaps: tuple[int, ...]
    average_gap: float | None
    max_gap: int | None
    hit_count: int
    tier_counts: dict[int, int]
    warmup: int
    hit_threshold: int

    def to_dict(self) -> dict:
        """Machine-readable document with fixed field names."""
        return {
            "records": [
                {
                    "draw_index": r.draw_index,
                    "prediction": list(r.prediction),
                    "actual": list(r.actual),
                    "match_count": r.match_count,
                }
                for r in self.records
            ],
            "hit_indices": list(self.hit_indices),
            "gaps": list(self.gaps),
            "average_gap": self.average_gap,
            "max_gap": self.max_gap,
            "hit_count": self.hit_count,
            "tier_counts": {str(k): v for k, v in sorted(self.tier_counts.items())},
            "warmup": self.warmup,
            "hit_threshold": self.hit_threshold,
        }


def select_combination(scores, spec: GameSpec) -> PredictedCombination:
    """Turn per-category expectation scores into a playable combination.

    Set games take the ``picks`` highest-scoring numbers, ties broken
    toward the smaller number, output ascending.  Digit games take the
    per-position argmax with the same tie rule.  The choice is invariant
    under any positive rescaling of the scores.
    """
    if spec.kind is GameKind.SET_DRAW:
        vec = np.asarray(scores, dtype=np.float64)
        if vec.ndim != 1 or vec.size != spec.categories:
            raise ValueError(f"set games need one score vector of length {spec.categories}")
        vectors = (vec,)
    else:
        vectors = tuple(np.asarray(v, dtype=np.float64) for v in scores)
        if len(vectors) != spec.picks:
            raise ValueError(f"digit games need {spec.picks} score vectors, got {len(vectors)}")
        if any(vec.ndim != 1 or vec.size != 10 for vec in vectors):
            raise ValueError("each position needs a score vector of length 10")
    numbers = _select(spec, [vec[None] for vec in vectors])[0]
    return PredictedCombination(tuple(numbers.tolist()), vectors)


def _select(spec: GameSpec, scores: list[np.ndarray]) -> np.ndarray:
    """The tie rule for a stacked batch: one row of picked numbers per row
    of scores (the one score matrix of a set game, one per digit position)."""
    if spec.kind is GameKind.SET_DRAW:
        (vec,) = scores
        finite = np.isfinite(vec)
        finite_count = finite.sum(axis=1)
        short = finite_count < spec.picks
        if short.any():
            raise ValueError(f"need at least {spec.picks} finite scores, got {finite_count[short.argmax()]}")
        order = np.argsort(np.where(finite, -vec, np.inf), axis=1, kind="stable")
        return np.sort(order[:, : spec.picks], axis=1) + 1
    digits = []
    for vec in scores:
        finite = np.isfinite(vec)
        if not finite.any(axis=1).all():
            raise ValueError("need at least one finite score per position")
        digits.append(np.argmax(np.where(finite, vec, -np.inf), axis=1))
    return np.stack(digits, axis=1)


def match_count(prediction: PredictedCombination, actual: DrawRecord, spec: GameSpec) -> int:
    """Matches between a prediction and an actual draw.

    Set games count the set intersection; digit games count positions
    whose digits agree exactly.
    """
    predicted = prediction.numbers
    drawn = actual.numbers
    if len(predicted) != spec.picks or len(drawn) != spec.picks:
        raise ValueError(
            f"combination arity mismatch: game plays {spec.picks}, got {len(predicted)} vs {len(drawn)}"
        )
    return int(_match_counts(spec, np.array([predicted]), np.array([drawn]))[0])


def _match_counts(spec: GameSpec, predicted: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """The match rule for stacked (draws, picks) predictions and draws."""
    if spec.kind is GameKind.SET_DRAW:
        # Drawn numbers are distinct, so counting those the prediction
        # holds counts the intersection.
        return (drawn[:, :, None] == predicted[:, None, :]).any(axis=2).sum(axis=1)
    return (predicted == drawn).sum(axis=1)


class _RollingStats:
    """Sufficient statistics of any batch of windows of one count matrix.

    Window ``[start, end)`` has column sums ``prefix[end] - prefix[start]``
    from an (n+1, K) prefix array.  md reads its trailing diagonal straight
    from the rows; mle subtracts prefix log sums of the smoothed entries and
    a prefix zero counter, so its zero check needs no rescan.
    """

    def __init__(self, matrix: CountMatrix, estimator: EstimatorConfig):
        self.estimator = estimator
        counts = matrix.counts
        n, k = counts.shape
        self.prefix = np.zeros((n + 1, k), dtype=np.int64)
        np.cumsum(counts, axis=0, out=self.prefix[1:])
        self.counts = counts if estimator.kind is EstimatorKind.MAIN_DIAGONAL else None
        self.log_prefix = self.zero_prefix = None
        if estimator.kind is EstimatorKind.MLE:
            logs, zeros = smoothed_logs(counts, estimator.mle_smoothing)
            self.log_prefix = np.zeros((n + 1, k), dtype=np.float64)
            np.cumsum(logs, axis=0, out=self.log_prefix[1:])
            self.zero_prefix = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(zeros, out=self.zero_prefix[1:])

    def scores(self, starts: np.ndarray, ends: np.ndarray, m: int) -> np.ndarray:
        """Predictive scores, one row per window ``[starts[i], ends[i])``."""
        col_sums = self.prefix[ends] - self.prefix[starts]
        diagonal = log_sums = zero_count = None
        if self.counts is not None:
            cols = np.arange(col_sums.shape[1])
            diagonal = self.counts[ends[:, None] - cols.size + cols, cols]
        if self.log_prefix is not None:
            log_sums = self.log_prefix[ends] - self.log_prefix[starts]
            zero_count = self.zero_prefix[ends] - self.zero_prefix[starts]
        alpha = alpha_from_stats(self.estimator, ends - starts, col_sums, diagonal, log_sums, zero_count)
        return _predictive_scores(_check_alpha(alpha, positive=False), col_sums, m)


def _resolve(config: BacktestConfig, spec: GameSpec, n: int) -> tuple[int, int]:
    warmup = config.warmup if config.warmup is not None else max(spec.categories, 10)
    threshold = config.hit_threshold if config.hit_threshold is not None else spec.picks
    if warmup < 1:
        raise ValueError(f"warmup must be positive, got {warmup}")
    if not 1 <= threshold <= spec.picks:
        raise ValueError(f"hit threshold must lie in [1, {spec.picks}], got {threshold}")
    needs_square = config.estimator.kind is EstimatorKind.MAIN_DIAGONAL
    if needs_square and warmup < spec.categories:
        raise ValueError(f"main-diagonal estimation needs warmup >= {spec.categories}, got {warmup}")
    if config.window is not None:
        if config.window < 1:
            raise ValueError(f"window must be positive, got {config.window}")
        if config.window > warmup:
            raise ValueError(
                f"window ({config.window}) may not exceed warmup ({warmup}); early fits would lack rows"
            )
        if needs_square and config.window < spec.categories:
            raise ValueError(f"main-diagonal estimation needs a window of at least {spec.categories} rows")
    if n <= warmup:
        raise ValueError(f"history has {n} draws but prediction starts after {warmup}")
    return warmup, threshold


def run_backtest(history: DrawHistory, config: BacktestConfig) -> BacktestResult:
    """Walk the history and score one prediction per post-warmup draw.

    A pure function of its inputs: repeated runs agree exactly.  Estimator
    failures propagate as :class:`BacktestError` carrying the index of the
    first draw that fails.
    """
    spec = history.spec
    n = len(history.records)
    warmup, threshold = _resolve(config, spec, n)
    trackers = [_RollingStats(m, config.estimator) for m in build_count_matrices(history)]
    per_matrix_picks = spec.picks if spec.kind is GameKind.SET_DRAW else 1

    def predict(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return _select(spec, [tracker.scores(starts, ends, per_matrix_picks) for tracker in trackers])

    records: list[DrawOutcome] = []
    for first in range(warmup, n, _CHUNK):
        ends = np.arange(first, min(first + _CHUNK, n))
        starts = np.zeros_like(ends) if config.window is None else ends - config.window
        predicted = _predict_chunk(predict, starts, ends)
        actual = [record.numbers for record in history.records[first : first + ends.size]]
        matches = _match_counts(spec, predicted, np.array(actual)).tolist()
        records.extend(map(DrawOutcome, ends.tolist(), zip(*predicted.T.tolist()), actual, matches))

    hit_indices = [r.draw_index for r in records if r.match_count >= threshold]
    stats = gap_stats(hit_indices)
    return BacktestResult(
        records=tuple(records),
        hit_indices=tuple(hit_indices),
        gaps=stats.gaps,
        average_gap=stats.average,
        max_gap=stats.max_gap,
        hit_count=len(hit_indices),
        tier_counts=dict(Counter(r.match_count for r in records)),
        warmup=warmup,
        hit_threshold=threshold,
    )


def _predict_chunk(predict, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``predict(starts, ends)``, or the error of the chunk's first failing draw.

    A check raises for the first window that fails it, but an earlier window
    may fail a later check.  Every check looks at one window at a time, so a
    prefix of the chunk fails exactly when it holds a failing window:
    bisection finds the shortest failing prefix, whose error concerns its
    last window alone, as the per-draw order would report it.
    """
    try:
        return predict(starts, ends)
    except ValueError as exc:
        error, bad = exc, ends.size
    good = 0
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            predict(starts[:mid], ends[:mid])
            good = mid
        except ValueError as exc:
            error, bad = exc, mid
    if isinstance(error, EstimationError):
        raise BacktestError(int(ends[bad - 1]), str(error)) from error
    raise error


def gap_stats(hit_indices: Sequence[int]) -> GapStats:
    """Successive differences of hit indices with their average and maximum.

    Fewer than two hits leave the gaps empty and the average absent.
    """
    indices = [int(i) for i in hit_indices]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("hit indices must be strictly increasing")
    gaps = tuple(b - a for a, b in zip(indices, indices[1:]))
    if not gaps:
        return GapStats((), None, None, 0)
    return GapStats(gaps, sum(gaps) / len(gaps), max(gaps), len(gaps))


def classify_stretches(gaps: Sequence[int], cutoff: int = SHORT_LONG_CUTOFF) -> StretchSummary:
    """Label every gap short (S) or long (L) and measure label alternation.

    The alternation fraction is the share of adjacent label pairs that
    differ; it is absent with fewer than two gaps.
    """
    labels = tuple("S" if g < cutoff else "L" for g in gaps)
    if len(labels) < 2:
        return StretchSummary(labels, None, cutoff)
    pairs = len(labels) - 1
    flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    return StretchSummary(labels, flips / pairs, cutoff)


def extrapolate_gaps(observed: Mapping[int, float], targets: Iterable[int]) -> dict[int, float]:
    """Log-linear least-squares projection of average gaps to other match counts.

    Fits ln(gap) against the match count over the observed points and
    evaluates the fit at the requested counts.  Outputs are projections,
    not measurements; report rendering must label them as such.
    """
    counts = sorted(int(k) for k in observed)
    if len(counts) < 2:
        raise ValueError("need at least two observed match counts to project")
    gaps = [float(observed[k]) for k in counts]
    if any(g <= 0 for g in gaps):
        raise ValueError("average gaps must be positive")
    slope, intercept = np.polyfit(counts, np.log(gaps), 1)
    return {int(t): float(math.exp(intercept + slope * int(t))) for t in targets}


def _format_numbers(numbers: Sequence[int]) -> str:
    return " ".join(str(n) for n in numbers)


def render_comparison(
    predictions: Sequence[tuple[str, Sequence[int]]],
    actual: DrawRecord | Sequence[int] | None = None,
) -> list[str]:
    """Labelled combination lines, one per estimator, then the actual draw.

    ``predictions`` holds (label, numbers) pairs; each renders as the
    numbers followed by the upper-cased label in brackets, with the actual
    draw closing the block as ``[AC]`` when given.
    """
    lines = [f"{_format_numbers(numbers)} [{label.upper()}]" for label, numbers in predictions]
    if actual is not None:
        numbers = actual.numbers if isinstance(actual, DrawRecord) else actual
        lines.append(f"{_format_numbers(numbers)} [AC]")
    return lines
