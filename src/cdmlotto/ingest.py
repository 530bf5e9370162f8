"""Draw-history parsing, validation, and count-matrix construction.

The on-disk format is minimal CSV, one draw per line:

    draw_index,date,numbers

``numbers`` is a space-separated integer list and ``date`` is free-text
metadata without commas or line breaks; an empty date reads as no date.
Indices and numbers are ASCII digits only (no signs, underscores or other
scripts' digits).  The first line is a header only when its first field
is ``draw_index``.  File order is chronological order, oldest first.
Encoding is UTF-8 with LF, CRLF or CR line endings, and text given as a
string splits into lines as a file does; the CLI reads files as
``utf-8-sig``, dropping a leading byte-order mark.

Two game families are supported.  Set-draw games pick ``picks`` distinct
numbers from 1..pool without regard to order.  Positional-digit games
pick one digit 0-9 per position, order significant and repeats allowed,
so they are encoded as one one-hot matrix per position rather than a
single matrix (a single count matrix cannot express the ordering the
jackpot rules require).
"""

from __future__ import annotations

import io
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
    """A parsed row violates the game rules or the index order.

    ``position`` is the offending record's position in the history.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


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


def _rule_break(numbers: tuple[int, ...], spec: GameSpec) -> str | None:
    """Why a draw's numbers break the game rules, or None if they do not."""
    if len(numbers) != spec.picks:
        return f"expected {spec.picks} numbers, got {len(numbers)}"
    if spec.kind is GameKind.SET_DRAW:
        for n in numbers:
            if not 1 <= n <= spec.categories:
                return f"number {n} outside the pool 1..{spec.categories}"
        if len(set(numbers)) != len(numbers):
            return f"duplicate number in set draw: {numbers}"
    else:
        for n in numbers:
            if not 0 <= n <= 9:
                return f"digit {n} outside 0..9"
    return None


@dataclass(frozen=True)
class DrawHistory:
    """A validated, chronologically ordered sequence of draws."""

    spec: GameSpec
    records: tuple[DrawRecord, ...]

    def __post_init__(self) -> None:
        previous = None
        for position, record in enumerate(self.records):
            problem = _rule_break(record.numbers, self.spec)
            if problem is None and previous is not None and record.draw_index != previous + 1:
                problem = f"draw index {record.draw_index} does not follow {previous}"
            if problem is not None:
                raise HistoryValidationError(problem, position)
            previous = record.draw_index


def parse_history(source: str | Iterable[str], spec: GameSpec) -> DrawHistory:
    """Parse CSV text (or a line iterable) into a validated history.

    Malformed rows raise :class:`HistoryParseError` naming the line;
    rows that break the game rules raise :class:`HistoryValidationError`,
    also naming the line.  Either way the first bad line in file order is
    reported.  Rows are checked against the game rules once, by
    :class:`DrawHistory`.
    """
    # A string splits as a text file does (``str.splitlines`` would also
    # break at form feeds, U+2028 and other characters a file keeps).
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    records: list[DrawRecord] = []
    linenos: list[int] = []
    try:
        _parse_rows(lines, records, linenos)
    except HistoryParseError:
        _history(spec, records, linenos)  # a row above the malformed one may break the rules
        raise
    return _history(spec, records, linenos)


def _history(spec: GameSpec, records: list[DrawRecord], linenos: list[int]) -> DrawHistory:
    try:
        return DrawHistory(spec, tuple(records))
    except HistoryValidationError as exc:
        raise HistoryValidationError(f"line {linenos[exc.position]}: {exc}") from None


def _parse_rows(lines: Iterable[str], records: list[DrawRecord], linenos: list[int]) -> None:
    """Append each data row's record and line number; raise on the first
    malformed row."""
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
        tokens = parts[2].split()
        # One check per row: tokens hold no whitespace, so the joined string
        # is all digits exactly when every token is.
        if tokens and not is_digits("".join(tokens)):
            raise HistoryParseError(f"line {lineno}: numbers field {parts[2]!r} is not a space-separated integer list")
        records.append(DrawRecord(int(index_text), parts[1] or None, tuple(map(int, tokens))))
        linenos.append(lineno)


def is_digits(token: str) -> bool:
    """ASCII 0-9 only; ``int()`` would also take signs, underscores and
    digits from other scripts.  History files and the CLI's integer
    values share this rule."""
    return token.isascii() and token.isdigit()


def serialize_history(history: DrawHistory) -> str:
    """Inverse of :func:`parse_history`: the text parses back to an equal history.

    A date that would read back differently, the empty string (read as no
    date) or one holding a comma, CR or LF, raises ``ValueError`` naming
    its draw index; nothing is written for such a history.
    """
    for r in history.records:
        if r.date is not None and (not r.date or any(c in r.date for c in ",\r\n")):
            raise ValueError(f"draw {r.draw_index}: date {r.date!r} cannot be written back; "
                             "dates must be nonempty and hold no comma or line break")
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
    numbers = np.array([record.numbers for record in history.records], dtype=np.int64)
    if spec.kind is GameKind.SET_DRAW:
        matrix = np.zeros((len(numbers), spec.categories), dtype=np.int64)
        matrix[np.arange(len(numbers))[:, None], numbers - 1] = 1
        return [CountMatrix(matrix)]
    one_hot = np.eye(10, dtype=np.int64)
    return [CountMatrix(one_hot[digits]) for digits in numbers.T]


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
