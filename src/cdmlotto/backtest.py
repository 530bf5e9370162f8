"""Walk-forward backtest of the predictive count model over a draw history.

For every draw past the warmup, the concentration vector is fitted on a
window of prior draws only, the posterior predictive expectation scores
every category, the top-scoring picks become the played combination, and
the combination is scored against the draw that actually happened.  Draws
whose match count reaches the hit threshold are hits; the gaps between
hits feed the stretch statistics and the staking simulator.

The walk evaluates a chunk of consecutive draws per array pass instead of
one Python iteration per draw.  Every rule is written once over the count
matrices that :attr:`~cdmlotto.ingest.GameSpec.matrices` lists.  One
prefix array per matrix gives every window's column sums as one
subtraction.  It is built straight from the history's numbers column,
without materialising the 0/1 indicator matrix, and the row count and those
column sums are all that mm and the smoothed MLE read (md adds the
trailing diagonal, read from the rows), so a pass over a multi-decade
history costs O(n K) instead of O(n^2 K).  The estimate, the predictive
scores, the tie-broken pick and the match count then follow for the whole
chunk at once.  Chunks bound the size of the temporary arrays, and a
chunk that raises is replayed one window at a time.
:func:`predict_next` is the same scoring on the one window before the
next draw, whose column sums are counted from its rows in place, so it
needs O(K) memory and no prefix array.  Tests pin both to an independent
slice-and-refit oracle (``naive_backtest`` and ``naive_predict`` in
``tests/test_backtest.py``), which rebuilds each window's 0/1 matrix,
fit, scores, pick and match count from the paper's rules.

The result is its columns: one int64 array each for the predicted draws'
predictions, actual numbers and match counts, whose draw indices run on
from the warmup.  Hits, tier counts and the JSON records block come from
array operations on those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from . import jsondoc
from ._numpy import np
from .distributions import _predictive_scores
from .estimators import EstimationError, EstimatorConfig, EstimatorKind, alpha_from_stats
from .ingest import DrawHistory, GameSpec

__all__ = [
    "SHORT_LONG_CUTOFF",
    "ALTERNATION_NOTE",
    "BacktestError",
    "PredictedCombination",
    "BacktestResult",
    "select_combination",
    "match_count",
    "run_backtest",
    "predict_next",
    "gap_stats",
    "gap_report",
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
class PredictedCombination:
    """A playable combination plus the expectation vectors that ranked it."""

    numbers: tuple[int, ...]
    scores: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class BacktestResult:
    """The walk's outcome as whole-history columns plus its hits.

    Row i of ``predictions`` (n, picks), ``actuals`` (n, picks) and
    ``match_counts`` (n,), all read-only int64 arrays, describes predicted
    draw ``warmup + i``; the hits are the rows whose match count reaches
    ``hit_threshold``.  :attr:`draw_indices`, :attr:`hit_indices` and
    :attr:`tier_counts` are read from these columns, and :meth:`summary`
    builds every other report field.
    """

    predictions: np.ndarray
    actuals: np.ndarray
    match_counts: np.ndarray
    warmup: int
    hit_threshold: int

    @property
    def draw_indices(self) -> np.ndarray:
        """The predicted draws' indices, one per row."""
        return np.arange(self.warmup, self.warmup + len(self.match_counts))

    @property
    def hit_indices(self) -> tuple[int, ...]:
        """The draw indices whose match count reaches the threshold."""
        return tuple(self.draw_indices[self.match_counts >= self.hit_threshold].tolist())

    @property
    def tier_counts(self) -> dict[int, int]:
        """Predicted draws per match count, for the counts that occur."""
        return {tier: count for tier, count in enumerate(np.bincount(self.match_counts).tolist()) if count}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BacktestResult):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def summary(self) -> dict:
        """Every document field but the records: :func:`gap_report` of the hits,
        the match-count histogram, and the average gap per minimum match count
        reached at least twice, with log-linear projections for the others.
        Successive gaps telescope, so a count's average gap is
        ``(last - first) / (hits - 1)`` over the draws that reach it."""
        tiers = range(1, self.predictions.shape[1] + 1)
        observed: dict[int, float] = {}
        for tier in tiers:
            reached = self.draw_indices[self.match_counts >= tier]
            if reached.size >= 2:
                observed[tier] = int(reached[-1] - reached[0]) / (reached.size - 1)
        missing = [t for t in tiers if t not in observed]
        projected = extrapolate_gaps(observed, missing) if len(observed) >= 2 and missing else {}
        hits = self.hit_indices
        # String keys in integer order: a renderer that sorts them puts "10" before "2".
        return {
            **gap_report(hits),
            "hit_count": len(hits),
            "tier_counts": {str(k): v for k, v in sorted(self.tier_counts.items())},
            "tier_average_gaps": {str(k): v for k, v in observed.items()},
            "projected_gaps": {str(k): v for k, v in projected.items()},
            "warmup": self.warmup,
            "hit_threshold": self.hit_threshold,
        }

    def to_json(self, extra: Mapping | None = None) -> str:
        """The backtest document: :func:`~cdmlotto.jsondoc.document` of
        :meth:`summary` and ``extra``, with one record per predicted draw
        written straight from the columns."""
        return jsondoc.document({**self.summary(), **(extra or {})}, {"records": self._records_json()})

    def _records_json(self) -> str:
        """The records as :func:`~cdmlotto.jsondoc.document` takes them: one
        record's text with a ``%d`` slot per number, repeated per draw and
        filled from the columns in sorted-key order."""
        columns = {"draw_index": self.draw_indices, "prediction": self.predictions,
                   "actual": self.actuals, "match_count": self.match_counts}
        slots = {name: "%d" if c.ndim == 1 else ["%d"] * c.shape[1] for name, c in columns.items()}
        record = jsondoc.compact(slots).replace('"%d"', "%d")
        values = np.column_stack([columns[name] for name in sorted(columns)]).ravel().tolist()
        return jsondoc.ITEM_SEPARATOR.join([record] * len(self.draw_indices)) % tuple(values)


def select_combination(scores, spec: GameSpec) -> PredictedCombination:
    """Turn per-category expectation scores into a playable combination.

    ``scores`` holds one vector per count matrix, bare for a game of one.
    Each matrix takes its ``m`` highest finite scores, ``m`` being the numbers
    it places (a set game's picks, or one digit), ties broken toward the smaller
    number, output ascending.  Any positive rescaling of the scores keeps the choice.
    """
    lengths = [k for _, _, k in spec.matrices]
    if len(lengths) == 1 and np.ndim(scores) == 1:
        scores = (scores,)
    vectors = tuple(np.asarray(v, dtype=np.float64) for v in scores)
    if [vec.shape for vec in vectors] != [(k,) for k in lengths]:
        raise ValueError(f"need one score vector per count matrix, of lengths {lengths}")
    numbers = _select(spec, [vec[None] for vec in vectors])[0]
    return PredictedCombination(tuple(numbers.tolist()), vectors)


def _select(spec: GameSpec, scores: list[np.ndarray]) -> np.ndarray:
    """The tie rule for a stacked batch, one score matrix per count matrix:
    each row's ``m`` highest finite scores, taken by ``m`` argmax passes that
    return the first maximum, the smaller number; a row holding fewer finds
    none on its last pass.  Output ascending within each count matrix."""
    picked = np.empty((len(scores[0]), spec.picks), dtype=np.int64)
    rows = np.arange(len(picked))
    for score, (columns, base, _) in zip(scores, spec.matrices):
        top = picked[:, columns]
        vec = np.where(np.isfinite(score), score, -np.inf)
        top[:, 0] = vec.argmax(axis=1)
        for c in range(1, top.shape[1]):
            vec[rows, top[:, c - 1]] = -np.inf
            top[:, c] = vec.argmax(axis=1)
        short = vec[rows, top[:, -1]] == -np.inf
        if short.any():
            got = np.isfinite(score[short.argmax()]).sum()
            raise ValueError(f"need at least {top.shape[1]} finite scores, got {got}")
        top.sort(axis=1)
        top += base
    return picked


def match_count(prediction: PredictedCombination, drawn: Sequence[int], spec: GameSpec) -> int:
    """Matches between a prediction and the drawn numbers.

    Set games count the set intersection; digit games count positions
    whose digits agree exactly.
    """
    predicted = prediction.numbers
    if len(predicted) != spec.picks or len(drawn) != spec.picks:
        raise ValueError(
            f"combination arity mismatch: game plays {spec.picks}, got {len(predicted)} vs {len(drawn)}"
        )
    return int(_match_counts(spec, np.array([predicted]), np.array([drawn]))[0])


def _match_counts(spec: GameSpec, predicted: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """The match rule for stacked (draws, picks) predictions and draws.  A count
    matrix's drawn numbers are distinct: counting those predicted counts the intersection."""
    counts = np.zeros(len(drawn), dtype=np.int64)
    for columns, _, _ in spec.matrices:
        counts += (drawn[:, columns, None] == predicted[:, None, columns]).any(axis=2).sum(axis=1)
    return counts


def _diagonals(picked: np.ndarray, base: int, k: int, ends: np.ndarray) -> np.ndarray:
    """Row i: the main diagonal of the K count-matrix rows before ``ends[i]``, for
    consecutive ``ends``; entry j is whether row ``ends[i] - K + j`` of ``picked``
    holds ``base + j``.  Each number read is placed on the one diagonal it lies on.
    Rows before row 0 hold nothing: md rejects such a short window."""
    first = max(int(ends[0]) - k, 0)
    cols = picked[first : ends[-1]] - base
    at = np.arange(first + k - ends[0], ends[-1] + k - ends[0])[:, None] - cols
    inside = (at >= 0) & (at < len(ends))
    diagonals = np.zeros((len(ends), k), dtype=bool)
    diagonals[at[inside], cols[inside]] = True
    return diagonals


def _prefix(picked: np.ndarray, base: int, k: int) -> np.ndarray:
    """A count matrix's (n+1, K) prefix array: row t of the matrix, never built,
    has a one in each column of ``picked[t] - base``, so window ``[start, end)``
    has column sums ``prefix[end] - prefix[start]``."""
    prefix = np.zeros((len(picked) + 1, k), dtype=np.int64)
    prefix[np.arange(1, len(picked) + 1)[:, None], picked - base] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    return prefix


def _window_stats(picked: np.ndarray, base: int, k: int) -> tuple:
    """One window's row count, column sums and trailing diagonal, as the walk
    reads them, counted from the window's rows ``picked`` alone, in O(K) memory."""
    rows = len(picked)
    # Not bincount: it copies a read-only input such as the history's numbers.
    counts = np.zeros(k + base, dtype=np.int64)
    np.add.at(counts, picked, 1)
    return np.array([rows]), counts[None, base:], _diagonals(picked, base, k, np.array([rows]))


def _score_and_pick(spec: GameSpec, estimator: EstimatorConfig,
                    stats: list[tuple]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each count matrix's predictive scores and the picked numbers, one row
    per window, from each matrix's row counts, column sums and diagonals."""
    scores = []
    for (rows, col_sums, diagonal), (columns, _, _) in zip(stats, spec.matrices):
        alpha = alpha_from_stats(estimator, rows, col_sums, diagonal)
        scores.append(_predictive_scores(alpha, col_sums, columns.stop - columns.start))
    return scores, _select(spec, scores)


def _resolve(estimator: EstimatorConfig, window: int | None, warmup: int | None,
             threshold: int | None, spec: GameSpec, n: int) -> tuple[int, int]:
    warmup = warmup if warmup is not None else max(spec.categories, 10)
    threshold = threshold if threshold is not None else spec.picks
    if warmup < 1:
        raise ValueError(f"warmup must be positive, got {warmup}")
    if not 1 <= threshold <= spec.picks:
        raise ValueError(f"hit threshold must lie in [1, {spec.picks}], got {threshold}")
    needs_square = estimator.kind is EstimatorKind.MAIN_DIAGONAL
    if needs_square and warmup < spec.categories:
        raise ValueError(f"main-diagonal estimation needs warmup >= {spec.categories}, got {warmup}")
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        if window > warmup:
            raise ValueError(f"window ({window}) may not exceed warmup ({warmup}); early fits would lack rows")
        if needs_square and window < spec.categories:
            raise ValueError(f"main-diagonal estimation needs a window of at least {spec.categories} rows")
    if n <= warmup:
        raise ValueError(f"history has {n} draws but prediction starts after {warmup}")
    return warmup, threshold


def run_backtest(history: DrawHistory, estimator: EstimatorConfig, *, window: int | None = None,
                 warmup: int | None = None, hit_threshold: int | None = None) -> BacktestResult:
    """Walk the history and score one prediction per post-warmup draw.

    Each fit reads the last ``window`` draws (all prior draws when None);
    ``warmup`` of None resolves to max(categories, 10), and
    ``hit_threshold`` of None means a full match.  A pure function of its
    inputs: repeated runs agree exactly.  Estimator failures propagate as
    :class:`BacktestError` carrying the index of the first draw that fails.
    """
    spec = history.spec
    n = len(history)
    warmup, threshold = _resolve(estimator, window, warmup, hit_threshold, spec, n)
    prefixes = [_prefix(history.numbers[:, columns], base, k) for columns, base, k in spec.matrices]
    md = estimator.kind is EstimatorKind.MAIN_DIAGONAL

    def predict(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        stats = [(ends - starts, prefix[ends] - prefix[starts],
                  _diagonals(history.numbers[:, columns], base, k, ends) if md else None)
                 for prefix, (columns, base, k) in zip(prefixes, spec.matrices)]
        return _score_and_pick(spec, estimator, stats)[1]

    chunks = []
    for first in range(warmup, n, _CHUNK):
        ends = np.arange(first, min(first + _CHUNK, n))
        starts = np.zeros_like(ends) if window is None else ends - window
        chunks.append(_predict_chunk(predict, starts, ends))
    predictions = np.concatenate(chunks)
    actuals = history.numbers[warmup:]
    match_counts = _match_counts(spec, predictions, actuals)
    for column in (predictions, actuals, match_counts):
        column.flags.writeable = False
    return BacktestResult(predictions, actuals, match_counts, warmup, threshold)


def predict_next(history: DrawHistory, estimators: Iterable[EstimatorConfig],
                 window: int | None = None) -> list[PredictedCombination]:
    """Each estimator's combination for the draw after the history: the walk's
    pick for draw ``len(history)``, fitted on the last ``window`` draws (all
    when None), whose statistics are read from those rows alone.  Estimator
    failures propagate as raised, with no draw index."""
    n = len(history)
    if not n:
        raise ValueError("history is empty")
    if window is not None and not 1 <= window <= n:
        raise ValueError(f"window {window} exceeds the {n} available draws" if window > n
                         else f"window must be positive, got {window}")
    rows = history.numbers[0 if window is None else n - window :]
    stats = [_window_stats(rows[:, columns], base, k) for columns, base, k in history.spec.matrices]
    fits = [_score_and_pick(history.spec, estimator, stats) for estimator in estimators]
    return [PredictedCombination(tuple(picks[0].tolist()), tuple(s[0] for s in scores)) for scores, picks in fits]


def _predict_chunk(predict, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``predict(starts, ends)``, or the error of the chunk's first failing draw.

    A check raises for the first window that fails it, but an earlier window
    may fail a later check, so a failing chunk is replayed one window at a
    time, in order.  Every check looks at one window at a time, so the first
    window that fails alone is the one the per-draw order would report.
    """
    try:
        return predict(starts, ends)
    except ValueError:
        for i in range(ends.size):
            try:
                predict(starts[i : i + 1], ends[i : i + 1])
            except EstimationError as exc:
                raise BacktestError(int(ends[i]), str(exc)) from exc
        raise


def gap_stats(hit_indices: Sequence[int]) -> dict:
    """The report's gap fields: the successive differences of hit indices
    (``gaps``), their ``average_gap`` and their ``max_gap``.

    Fewer than two hits leave the gaps empty and the other two None.
    """
    indices = [int(i) for i in hit_indices]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("hit indices must be strictly increasing")
    gaps = [b - a for a, b in zip(indices, indices[1:])]
    return {"gaps": gaps, "average_gap": sum(gaps) / len(gaps) if gaps else None, "max_gap": max(gaps, default=None)}


def gap_report(hit_indices: Sequence[int]) -> dict:
    """Hit indices, gap statistics and stretch labels: the report fields
    that backtest and hits-replay documents share."""
    stats = gap_stats(hit_indices)
    return {"hit_indices": list(hit_indices), **stats, "stretch": classify_stretches(stats["gaps"])}


def classify_stretches(gaps: Sequence[int]) -> dict:
    """The report's ``stretch`` object: every gap labelled short (S, below
    :data:`SHORT_LONG_CUTOFF`) or long (L), and the alternation fraction.

    The alternation fraction is the share of adjacent label pairs that
    differ; it is None with fewer than two gaps.
    """
    labels = ["S" if g < SHORT_LONG_CUTOFF else "L" for g in gaps]
    flips = sum(a != b for a, b in zip(labels, labels[1:]))
    return {
        "cutoff": SHORT_LONG_CUTOFF,
        "labels": labels,
        "alternation_fraction": flips / (len(labels) - 1) if len(labels) >= 2 else None,
        "note": ALTERNATION_NOTE,
    }


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
    actual: Sequence[int] | None = None,
) -> list[str]:
    """Labelled combination lines, one per estimator, then the actual draw.

    ``predictions`` holds (label, numbers) pairs; each renders as the
    numbers followed by the upper-cased label in brackets, with the actual
    draw closing the block as ``[AC]`` when given.
    """
    lines = [f"{_format_numbers(numbers)} [{label.upper()}]" for label, numbers in predictions]
    if actual is not None:
        lines.append(f"{_format_numbers(actual)} [AC]")
    return lines
