"""Output checks for the benchmark's cdmlotto commands.

Every check parses the command's report and compares fields, never bytes,
against values recomputed here: histories are re-read from the CSV with
plain Python and numpy, match counts and rankings are recomputed without
the backtest engine, and sampled predictions are refitted through the
naive ``slice_window`` + ``estimate_alpha`` + ``predictive_expectation`` +
``select_combination`` path.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cdmlotto.backtest import select_combination
from cdmlotto.distributions import CountMatrix, predictive_expectation
from cdmlotto.estimators import EstimatorConfig, EstimatorKind, estimate_alpha
from cdmlotto.ingest import GameKind, GameSpec, slice_window

# Draws refitted through the naive oracle per backtest report, spread
# evenly over the walk, plus up to this many of the reported hits.
ORACLE_DRAWS = 200
ORACLE_HITS = 100

# A hit count further than this many standard deviations from the null
# expectation fails; on uniform histories a false alarm is ~1e-6.
NULL_Z_LIMIT = 5.0


class CheckError(AssertionError):
    """A command's output disagrees with the independently computed value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Game:
    kind: str  # "set" or "pick"
    pool: int  # categories: the pool size, or 10 digits
    picks: int

    @property
    def spec(self) -> GameSpec:
        kind = GameKind.SET_DRAW if self.kind == "set" else GameKind.POSITIONAL_DIGITS
        return GameSpec(kind, self.pool, self.picks)


def read_history(path, game: Game) -> np.ndarray:
    """The (n, picks) numbers of a history CSV, checked for the game's rules."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle):
            index, _, numbers = line.rstrip("\n").split(",", 2)
            require(int(index) == lineno, f"{path}: line {lineno + 1} has draw index {index}")
            rows.append([int(tok) for tok in numbers.split()])
    draws = np.array(rows, dtype=np.int64)
    require(draws.ndim == 2 and draws.shape[1] == game.picks, f"{path}: expected {game.picks} numbers per draw")
    if game.kind == "set":
        require(bool(np.all((draws >= 1) & (draws <= game.pool))), f"{path}: number outside 1..{game.pool}")
        ordered = np.sort(draws, axis=1)
        require(bool(np.all(ordered[:, 1:] != ordered[:, :-1])), f"{path}: repeated number in a set draw")
    else:
        require(bool(np.all((draws >= 0) & (draws <= 9))), f"{path}: digit outside 0..9")
    return draws


def _matches(prediction, actual, game: Game) -> int:
    if game.kind == "set":
        return len(set(prediction) & set(actual))
    return sum(1 for a, b in zip(prediction, actual) if a == b)


def _null_hit_probability(game: Game, threshold: int) -> float:
    """P(match count >= threshold) for any fixed play against a uniform draw."""
    if game.kind == "set":
        total = math.comb(game.pool, game.picks)
        below = sum(
            math.comb(game.picks, m) * math.comb(game.pool - game.picks, game.picks - m)
            for m in range(threshold)
        )
        return 1.0 - below / total
    return sum(math.comb(game.picks, m) * 0.1**m * 0.9 ** (game.picks - m) for m in range(threshold, game.picks + 1))


@dataclass(frozen=True)
class BacktestSettings:
    game: Game
    estimator: str  # md, mm or mle
    smoothing: float
    window: int | None
    warmup: int
    threshold: int


class Oracle:
    """Naive slice-and-refit prediction for any single draw of a history."""

    def __init__(self, draws: np.ndarray, settings: BacktestSettings):
        game = settings.game
        n = draws.shape[0]
        if game.kind == "set":
            matrix = np.zeros((n, game.pool), dtype=np.int64)
            matrix[np.repeat(np.arange(n), game.picks), draws.ravel() - 1] = 1
            self.matrices = [CountMatrix(matrix)]
        else:
            self.matrices = []
            for position in range(game.picks):
                matrix = np.zeros((n, 10), dtype=np.int64)
                matrix[np.arange(n), draws[:, position]] = 1
                self.matrices.append(CountMatrix(matrix))
        self.settings = settings
        self.config = EstimatorConfig(EstimatorKind(settings.estimator), mle_smoothing=settings.smoothing)

    def predict(self, t: int) -> tuple[int, ...]:
        game = self.settings.game
        per_matrix_picks = game.picks if game.kind == "set" else 1
        vectors = []
        for matrix in self.matrices:
            window = slice_window(matrix, t, self.settings.window)
            vectors.append(predictive_expectation(estimate_alpha(window, self.config), window.col_sums, per_matrix_picks))
        return select_combination(vectors[0] if game.kind == "set" else vectors, game.spec).numbers


@dataclass
class BacktestReport:
    """The fields both report formats carry.  ``records`` is None for text
    reports, which list only the hits."""

    predicted: int
    hits: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]]  # t -> (prediction, actual, matches)
    hit_indices: list[int]
    gaps: list[int]
    tiers: dict[int, int]
    records: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] | None


def parse_backtest_json(text: str) -> BacktestReport:
    doc = json.loads(text)
    records = {
        r["draw_index"]: (tuple(r["prediction"]), tuple(r["actual"]), r["match_count"]) for r in doc["records"]
    }
    require(len(records) == len(doc["records"]), "backtest JSON repeats a draw index")
    threshold = doc["hit_threshold"]
    hits = {t: rec for t, rec in records.items() if rec[2] >= threshold}
    require(doc["hit_count"] == len(doc["hit_indices"]), "hit_count differs from the number of hit indices")
    return BacktestReport(
        predicted=len(records),
        hits=hits,
        hit_indices=list(doc["hit_indices"]),
        gaps=list(doc["gaps"]),
        tiers={int(k): v for k, v in doc["tier_counts"].items()},
        records=records,
    )


_INTS = re.compile(r"-?\d+")


def _int_list(line: str, prefix: str) -> list[int]:
    require(line.startswith(prefix), f"expected a line starting {prefix!r}, got {line[:60]!r}")
    rest = line[len(prefix):]
    return [] if rest.strip() == "none" else [int(tok) for tok in _INTS.findall(rest)]


def parse_backtest_text(text: str) -> BacktestReport:
    lines = text.splitlines()
    header = re.fullmatch(r"predicted draws: (\d+); hits: (\d+)", lines[1])
    require(header is not None, f"unexpected second line {lines[1]!r}")
    hits = {}
    i = 2
    while lines[i].startswith("draw "):
        found = re.fullmatch(r"draw (\d+) \(matched (\d+)\):", lines[i])
        require(found is not None, f"unexpected hit line {lines[i]!r}")
        prediction = tuple(_int_list(lines[i + 1].rsplit("[", 1)[0].strip(), ""))
        require(lines[i + 2].endswith("[AC]"), f"hit {found.group(1)} lacks its actual draw")
        actual = tuple(_int_list(lines[i + 2].rsplit("[", 1)[0].strip(), ""))
        hits[int(found.group(1))] = (prediction, actual, int(found.group(2)))
        i += 3
    hit_indices = _int_list(lines[i], "hit indices: ")
    gaps = _int_list(lines[i + 1], "gaps: ")
    histogram = next((line for line in lines if line.startswith("match-count histogram: ")), None)
    require(histogram is not None, "text report has no match-count histogram")
    pairs = _INTS.findall(histogram.partition(": ")[2])
    tiers = {int(pairs[j]): int(pairs[j + 1]) for j in range(0, len(pairs), 2)}
    require(int(header.group(2)) == len(hit_indices), "header hit count differs from the hit indices")
    return BacktestReport(int(header.group(1)), hits, hit_indices, gaps, tiers, None)


def check_backtest(report: BacktestReport, draws: np.ndarray, settings: BacktestSettings) -> None:
    game = settings.game
    n = draws.shape[0]
    expected = n - settings.warmup
    require(report.predicted == expected, f"{report.predicted} records, expected n - warmup = {expected}")
    require(sum(report.tiers.values()) == expected, "tier counts do not sum to the record count")
    if report.records is not None:
        require(sorted(report.records) == list(range(settings.warmup, n)), "records do not cover warmup..n-1")
        counted = Counter(matches for _, _, matches in report.records.values())
        require(dict(counted) == report.tiers, "tier counts differ from the records' match counts")
    for t, (prediction, actual, matches) in (report.records or report.hits).items():
        require(actual == tuple(int(v) for v in draws[t]), f"draw {t}: reported actual differs from the history")
        require(_matches(prediction, actual, game) == matches, f"draw {t}: wrong match count")

    hits = sorted(report.hits)
    require(all(report.hits[t][2] >= settings.threshold for t in hits), "a listed hit is below the threshold")
    require(report.hit_indices == hits, "hit indices differ from the records at or above the threshold")
    tier_hits = sum(count for tier, count in report.tiers.items() if tier >= settings.threshold)
    require(tier_hits == len(hits), "tier counts at or above the threshold differ from the hit count")
    require(report.gaps == [b - a for a, b in zip(hits, hits[1:])], "gaps are not successive hit differences")

    p = _null_hit_probability(game, settings.threshold)
    z = (len(hits) - expected * p) / math.sqrt(expected * p * (1 - p))
    require(abs(z) <= NULL_Z_LIMIT, f"hit rate {len(hits)}/{expected} is {z:.1f} sigma from the null {p:.5f}")

    oracle = Oracle(draws, settings)
    sample = set(np.linspace(settings.warmup, n - 1, ORACLE_DRAWS).astype(int).tolist())
    sample.update(hits[:: max(1, len(hits) // ORACLE_HITS)])
    for t in sorted(sample):
        prediction = oracle.predict(t)
        matches = _matches(prediction, tuple(int(v) for v in draws[t]), game)
        if report.records is not None:
            require(report.records[t][0] == prediction, f"draw {t}: prediction differs from the naive refit")
        elif matches >= settings.threshold:
            require(report.hits.get(t, (None,))[0] == prediction, f"draw {t}: naive refit hits but the report differs")
        else:
            require(t not in report.hits, f"draw {t}: reported as a hit but the naive refit misses")


def check_simulate(text: str, gaps: list[int]) -> None:
    doc = json.loads(text)
    streams = doc["streams"]
    require(len(streams) == len(gaps), f"{len(streams)} staking streams for {len(gaps)} gaps")
    for i, (stream, gap) in enumerate(zip(streams, gaps)):
        require(stream["gap_draws"] == gap, f"stream {i}: gap {stream['gap_draws']}, expected {gap}")
        require(stream["outcome"] == "win", f"stream {i}: a stream with a gap must end in a win")
        spend = stream["total_spend_cents"]
        require(sum(q["spend_cents"] for q in stream["quarters"]) == spend, f"stream {i}: quarter spends do not sum")
        require(stream["profit_cents"] == stream["total_payout_cents"] - spend, f"stream {i}: profit != payout - spend")
    aggregate = doc["aggregate"]
    spend = sum(s["total_spend_cents"] for s in streams)
    payout = sum(s["total_payout_cents"] for s in streams)
    require(aggregate["total_spend_cents"] == spend, "aggregate spend is not the sum of the streams")
    require(aggregate["total_payout_cents"] == payout, "aggregate payout is not the sum of the streams")
    require(aggregate["profit_cents"] == payout - spend, "aggregate profit != payout - spend")
    require(aggregate["max_drawdown_cents"] == max(s["drawdown_cents"] for s in streams), "wrong max drawdown")


def _top_picks(scores: np.ndarray, picks: int) -> list[int]:
    """Numbers of the ``picks`` highest scores, ties toward the smaller number."""
    numbers = np.arange(1, scores.size + 1)
    order = np.lexsort((numbers, -scores))
    return sorted(int(v) for v in numbers[order[:picks]])


def check_predict(text: str, draws: np.ndarray, game: Game, estimators: list[str]) -> None:
    """Set-game predictions over the whole history against a column-sum ranking.

    With ``--window all`` the mm and mle posteriors are increasing affine
    functions of the column sums, and md adds the trailing square window's
    diagonal, so integer rankings decide every pick exactly.
    """
    doc = json.loads(text)
    col_sums = np.bincount(draws.ravel() - 1, minlength=game.pool)
    trailing = draws[-game.pool:]
    diagonal = np.array([int(j + 1 in trailing[j]) for j in range(game.pool)])
    expected = {"mm": _top_picks(col_sums, game.picks), "mle": _top_picks(col_sums, game.picks)}
    expected["md"] = _top_picks(col_sums + diagonal, game.picks)
    reported = [(p["estimator"], p["numbers"]) for p in doc["predictions"]]
    require([name for name, _ in reported] == estimators, f"predictions for {reported}, expected {estimators}")
    for name, numbers in reported:
        require(numbers == expected[name], f"{name}: picked {numbers}, column-sum ranking gives {expected[name]}")
