"""Draw-history parsing, validation, and count-matrix construction.

The on-disk format is minimal CSV, one draw per line:

    draw_index,date,numbers

``numbers`` is a space-separated integer list and ``date`` is free-text
metadata that may be empty.  Indices and numbers are ASCII digits only (no
signs, underscores or other scripts' digits).  The first line is a header
only when its first field is ``draw_index``.  File order is chronological
order, oldest first.  Encoding is UTF-8 with LF or CRLF line endings; the
CLI reads files as ``utf-8-sig``, dropping a leading byte-order mark.

Two game families are supported.  Set-draw games pick ``picks`` distinct
numbers from 1..pool without regard to order.  Positional-digit games
pick one digit 0-9 per position, order significant and repeats allowed,
so they are encoded as one one-hot matrix per position rather than a
single matrix (a single count matrix cannot express the ordering the
jackpot rules require).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .distributions import CountMatrix

__all__ = [
    "GameKind",
    "GameSpec",
    "DrawRecord",
    "DrawHistory",
    "HistoryParseError",
    "HistoryValidationError",
    "parse_history",
    "is_digits",
    "serialize_history",
    "build_count_matrices",
    "slice_window",
    "synthetic_history",
    "SYNTH_GENERATOR",
]

# The seeded generator behind synthetic histories; recorded in CLI output
# metadata so runs are comparable.
SYNTH_GENERATOR = "pcg64"


class GameKind(Enum):
    SET_DRAW = "set"
    POSITIONAL_DIGITS = "pick"


class HistoryParseError(ValueError):
    """A row does not match the draw_index,date,numbers format."""


class HistoryValidationError(ValueError):
    """A parsed row violates the game rules or the index order."""


@dataclass(frozen=True)
class GameSpec:
    """Declarative description of a lottery game.

    ``categories`` is the pool size for set games and always 10 for digit
    games; ``picks`` is numbers per draw or digit positions respectively.
    """

    kind: GameKind
    categories: int
    picks: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is GameKind.SET_DRAW:
            if not 2 <= self.picks < self.categories:
                raise ValueError(
                    f"set-draw games need 2 <= picks < pool size, got picks={self.picks}, pool={self.categories}"
                )
        else:
            if self.categories != 10:
                raise ValueError("positional-digit games draw from the 10 digits 0-9")
            if not 1 <= self.picks <= 6:
                raise ValueError(f"positional-digit games support 1 to 6 positions, got {self.picks}")


@dataclass(frozen=True)
class DrawRecord:
    draw_index: int
    date: str | None
    numbers: tuple[int, ...]


def _validate_numbers(numbers: tuple[int, ...], spec: GameSpec) -> None:
    if len(numbers) != spec.picks:
        raise HistoryValidationError(f"expected {spec.picks} numbers, got {len(numbers)}")
    if spec.kind is GameKind.SET_DRAW:
        for n in numbers:
            if not 1 <= n <= spec.categories:
                raise HistoryValidationError(f"number {n} outside the pool 1..{spec.categories}")
        if len(set(numbers)) != len(numbers):
            raise HistoryValidationError(f"duplicate number in set draw: {numbers}")
    else:
        for n in numbers:
            if not 0 <= n <= 9:
                raise HistoryValidationError(f"digit {n} outside 0..9")


@dataclass(frozen=True)
class DrawHistory:
    """A validated, chronologically ordered sequence of draws."""

    spec: GameSpec
    records: tuple[DrawRecord, ...]

    def __post_init__(self) -> None:
        previous = None
        for record in self.records:
            _validate_numbers(record.numbers, self.spec)
            if previous is not None and record.draw_index != previous + 1:
                raise HistoryValidationError(
                    f"draw index {record.draw_index} does not follow {previous}"
                )
            previous = record.draw_index


def parse_history(source: str | Iterable[str], spec: GameSpec) -> DrawHistory:
    """Parse CSV text (or a line iterable) into a validated history.

    Malformed rows raise :class:`HistoryParseError` naming the line;
    rows that break the game rules raise :class:`HistoryValidationError`.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    records: list[DrawRecord] = []
    previous = None
    first_line = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",", 2)
        if first_line:
            first_line = False
            if parts[0].strip() == "draw_index":
                continue  # optional header
        if len(parts) != 3:
            raise HistoryParseError(f"line {lineno}: expected 'draw_index,date,numbers', got {line!r}")
        index_text = parts[0].strip()
        if not is_digits(index_text):
            raise HistoryParseError(f"line {lineno}: draw index {parts[0]!r} is not an integer of ASCII digits")
        index = int(index_text)
        tokens = parts[2].split()
        # One check per row: tokens hold no whitespace, so the joined string
        # is all digits exactly when every token is.
        if tokens and not is_digits("".join(tokens)):
            raise HistoryParseError(f"line {lineno}: numbers field {parts[2]!r} is not a space-separated integer list")
        numbers = tuple(map(int, tokens))
        try:
            _validate_numbers(numbers, spec)
        except HistoryValidationError as exc:
            raise HistoryValidationError(f"line {lineno}: {exc}") from None
        if previous is not None and index != previous + 1:
            raise HistoryValidationError(f"line {lineno}: draw index {index} does not follow {previous}")
        previous = index
        records.append(DrawRecord(index, parts[1] or None, numbers))
    return DrawHistory(spec, tuple(records))


def is_digits(token: str) -> bool:
    """ASCII 0-9 only; ``int()`` would also take signs, underscores and
    digits from other scripts.  History files and the CLI's integer
    values share this rule."""
    return token.isascii() and token.isdigit()


def serialize_history(history: DrawHistory) -> str:
    """Inverse of :func:`parse_history`; round-trips exactly."""
    lines = [
        f"{r.draw_index},{r.date or ''},{' '.join(str(n) for n in r.numbers)}"
        for r in history.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def build_count_matrices(history: DrawHistory) -> list[CountMatrix]:
    """Indicator count matrices for a history.

    Set games produce a single n-by-pool 0/1 matrix whose rows sum to the
    number of picks.  Digit games produce one n-by-10 one-hot matrix per
    position (row sum 1).
    """
    if not history.records:
        raise ValueError("history is empty")
    spec = history.spec
    n = len(history.records)
    if spec.kind is GameKind.SET_DRAW:
        matrix = np.zeros((n, spec.categories), dtype=np.int64)
        for i, record in enumerate(history.records):
            matrix[i, np.asarray(record.numbers) - 1] = 1
        return [CountMatrix(matrix)]
    out = []
    for position in range(spec.picks):
        matrix = np.zeros((n, 10), dtype=np.int64)
        for i, record in enumerate(history.records):
            matrix[i, record.numbers[position]] = 1
        out.append(CountMatrix(matrix))
    return out


def slice_window(matrix: CountMatrix, end: int, width: int | None = None) -> CountMatrix:
    """Rows ``[end - width, end)`` of the matrix, or ``[0, end)`` when width is None."""
    if not 1 <= end <= matrix.rows:
        raise ValueError(f"end must lie in [1, {matrix.rows}], got {end}")
    if width is None:
        start = 0
    else:
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if width > end:
            raise ValueError(f"window of width {width} does not fit before row {end}")
        start = end - width
    return CountMatrix(matrix.counts[start:end])


def synthetic_history(spec: GameSpec, draws: int, seed: int) -> DrawHistory:
    """Uniform-random history from a seeded PCG64 generator.

    Set games draw uniform ``picks``-subsets (stored ascending), digit
    games draw independent uniform digits per position.  Identical seeds
    reproduce identical histories.
    """
    if draws < 1:
        raise ValueError(f"draws must be positive, got {draws}")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(draws):
        if spec.kind is GameKind.SET_DRAW:
            picked = rng.choice(spec.categories, size=spec.picks, replace=False)
            numbers = tuple(sorted(int(v) + 1 for v in picked))
        else:
            numbers = tuple(int(d) for d in rng.integers(0, 10, size=spec.picks))
        records.append(DrawRecord(i, None, numbers))
    return DrawHistory(spec, tuple(records))
