"""Walk-forward backtest of the predictive count model over a draw history.

For every draw past the warmup, the concentration vector is fitted on a
window of prior draws only, the posterior predictive expectation scores
every category, the top-scoring picks become the played combination, and
the combination is scored against the draw that actually happened.  Draws
whose match count reaches the hit threshold are hits; the gaps between
hits feed the stretch statistics and the staking simulator.

The walk evaluates a chunk of consecutive draws per array pass instead of
one Python iteration per draw.  A game's count matrices are alike
(:attr:`~cdmlotto.ingest.GameSpec.layout`), so the entries of a run of draws
are one (draws, count, K) int8 one-hot from ``ingest._indicators``.  The
row count and the column sums are all that mm and the smoothed MLE read; md
adds the trailing diagonal, which ``estimators._diagonals`` gathers from the
one-hot of the K rows before a draw.  The private generator ``_windows`` is
the one reader of these statistics: it sums the column sums before its first
draw a chunk of rows at a time, then carries them on, each draw adding the
draw before it and, in a window, dropping the draw a window earlier.  So a
pass costs O(n K), and no array spans the history but the result's columns.
``_walk`` yields per chunk its draws, their ``draws x count`` rows of window
statistics, and one ``_fit`` of that batch: the concentrations, the
predictive scores and the tie-broken picks.  :func:`run_backtest` fills its
columns chunk by chunk; any other per-window reading reduces the same
chunks.  Chunks bound the temporary arrays, and a chunk that raises is
replayed one row at a time.  :func:`predict_next` is ``_fit`` on the one
window ``_windows`` reads at the draw after the history.  Tests pin both to
an independent slice-and-refit oracle (``naive_backtest`` and
``naive_predict`` in ``tests/test_backtest.py``), which rebuilds each
window's 0/1 matrix, fit, scores, pick and match count from the paper's rules.

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
from .estimators import EstimationError, EstimatorConfig, EstimatorKind, _diagonals, alpha_from_stats
from .ingest import DrawHistory, GameSpec, _indicators

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

# Draws scored, or window rows counted, per array pass: enough to amortise the
# per-pass Python overhead, few enough that a pass's temporaries stay small.
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
    count, m, base = spec.layout
    if count == 1 and np.ndim(scores) == 1:
        scores = (scores,)
    vectors = tuple(np.asarray(v, dtype=np.float64) for v in scores)
    if [vec.shape for vec in vectors] != [(spec.categories,)] * count:
        raise ValueError(f"need one score vector per count matrix, of lengths {[spec.categories] * count}")
    return PredictedCombination(tuple(_select(np.stack(vectors), m, base).ravel().tolist()), vectors)


def _select(scores: np.ndarray, m: int, base: int) -> np.ndarray:
    """The tie rule for a batch of score rows, one per count matrix of a
    window: each row's ``m`` highest finite scores, taken by ``m`` argmax
    passes that return the first maximum, the smaller number; a row holding
    fewer finds none on its last pass.  Output ascending within each row."""
    rows = np.arange(len(scores))
    top = np.empty((len(scores), m), dtype=np.int64)
    vec = np.where(np.isfinite(scores), scores, -np.inf)
    top[:, 0] = vec.argmax(axis=1)
    for j in range(1, m):
        vec[rows, top[:, j - 1]] = -np.inf
        top[:, j] = vec.argmax(axis=1)
    short = vec[rows, top[:, -1]] == -np.inf
    if short.any():
        raise ValueError(f"need at least {m} finite scores, got {np.isfinite(scores[short.argmax()]).sum()}")
    top.sort(axis=1)
    return top + base


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
    count, m, _ = spec.layout
    drawn, predicted = (a.reshape(len(a), count, m) for a in (drawn, predicted))
    return (drawn[..., None] == predicted[..., None, :]).any(axis=3).sum(axis=(1, 2))


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
    warmup, threshold = _resolve(estimator, window, warmup, hit_threshold, history.spec, len(history))
    actuals = history.numbers[warmup:]
    predictions, match_counts = np.empty_like(actuals), np.empty(len(actuals), dtype=np.int64)
    for ends, *_, picks in _walk(history, estimator, window, warmup):
        done = slice(ends[0] - warmup, ends[-1] + 1 - warmup)
        predictions[done] = picks.reshape(len(ends), -1)
        match_counts[done] = _match_counts(history.spec, predictions[done], actuals[done])
    for column in (predictions, actuals, match_counts):
        column.flags.writeable = False
    return BacktestResult(predictions, actuals, match_counts, warmup, threshold)


def _walk(history: DrawHistory, estimator: EstimatorConfig, window: int | None, warmup: int):
    """Per chunk of :func:`_windows` from ``warmup``: the draws ``ends``, the batch
    ``(rows, col_sums, diagonal)`` of their windows in (draw, matrix) order, and its :func:`_fit`."""
    count, m, base = history.spec.layout
    md = estimator.kind is EstimatorKind.MAIN_DIAGONAL
    for ends, stats in _windows(history, window, warmup, len(history), md):
        yield (ends, stats, *_fit(estimator, m, base, stats, np.repeat(ends, count)))


def _windows(history: DrawHistory, window: int | None, first: int, stop: int, md: bool):
    """Per chunk of up to :data:`_CHUNK` consecutive ends from ``first`` to before ``stop``
    (at most ``len(history) + 1``): the ends and the ``(rows, col_sums, diagonal)`` batch of the
    last ``window`` draws (all when None) before each, in (end, matrix) order; ``diagonal`` is None unless ``md``."""
    numbers, spec = history.numbers, history.spec
    count, k = spec.layout[0], spec.categories
    col_sums = np.zeros((count, k), dtype=np.int64)
    for row in range(0 if window is None else first - window, first, _CHUNK):
        # At most _CHUNK ones per entry fit in int16, whose cast buffer is a quarter of int64's.
        col_sums += _indicators(numbers[row : min(row + _CHUNK, first)], spec).sum(axis=0, dtype=np.int16)
    for chunk in range(first, stop, _CHUNK):
        ends = np.arange(chunk, min(chunk + _CHUNK, stop))
        # md's diagonal reads the K rows before the chunk too.
        lo = max(chunk - k, 0) if md else chunk
        entries = _indicators(numbers[lo : ends[-1] + 1], spec)
        running = np.concatenate([col_sums[None], entries[chunk - lo :]])
        if window is not None:
            running[1:] -= _indicators(numbers[chunk - window : chunk - window + len(running) - 1], spec)
        col_sums = np.cumsum(running, axis=0, out=running)[-1]
        rows = ends if window is None else np.full_like(ends, window)
        yield ends, (np.repeat(rows, count), running[: len(ends)].reshape(-1, k),
                     _diagonals(entries, ends - lo).reshape(-1, k) if md else None)


def predict_next(history: DrawHistory, estimators: Iterable[EstimatorConfig],
                 window: int | None = None) -> list[PredictedCombination]:
    """Each estimator's combination for the draw after the history: the walk's
    pick for draw ``len(history)``, the one end of :func:`_windows` from there,
    fitted on the last ``window`` draws (all when None).  Estimator failures
    propagate as raised, with no draw index."""
    n = len(history)
    if not n:
        raise ValueError("history is empty")
    if window is not None and not 1 <= window <= n:
        raise ValueError(f"window {window} exceeds the {n} available draws" if window > n
                         else f"window must be positive, got {window}")
    _, m, base = history.spec.layout
    ((_, stats),) = _windows(history, window, n, n + 1, True)
    fits = [_fit(estimator, m, base, stats) for estimator in estimators]
    return [PredictedCombination(tuple(picks.ravel().tolist()), tuple(scores)) for _, scores, picks in fits]


def _fit(estimator: EstimatorConfig, m: int, base: int, stats: tuple, draws: np.ndarray | None = None) -> tuple:
    """The concentration, predictive scores and picks of a batch of rows, row i a
    window before draw ``draws[i]``.  A check raises for the first row that fails
    it, but an earlier row may fail a later check, so a failing batch is replayed
    one row at a time, in (draw, matrix) order: the first row that fails alone is
    the one the per-draw order would report.  Its estimator failure names its draw
    in a :class:`BacktestError`, or propagates as raised when ``draws`` is None."""
    def fit(rows, col_sums, diagonal):
        alpha = alpha_from_stats(estimator, rows, col_sums, diagonal)
        scores = _predictive_scores(alpha, col_sums, m)
        return alpha, scores, _select(scores, m, base)

    try:
        return fit(*stats)
    except ValueError:
        for i in range(len(stats[0])):
            try:
                fit(*(s if s is None else s[i : i + 1] for s in stats))
            except EstimationError as exc:
                if draws is None:
                    raise
                raise BacktestError(int(draws[i]), str(exc)) from exc
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
