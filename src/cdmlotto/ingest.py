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
``utf-8-sig``, dropping a leading byte-order mark.  Blank lines are
skipped; any whitespace may pad a row, its index and its numbers (a date
keeps its spaces) and separate numbers.
One parser reads every input: it checks all rows as whole columns and
arrays, then explains the first bad line from that line's text.

Two game families are supported.  Set-draw games pick ``picks`` distinct
numbers from 1..pool without regard to order.  Positional-digit games
pick one digit 0-9 per position, order significant and repeats allowed,
so they are encoded as one one-hot matrix per position rather than a
single matrix (a single count matrix cannot express the ordering the
jackpot rules require).  :attr:`GameSpec.layout` states how a draw fills a game's
alike count matrices; the row checks and :func:`build_count_matrices` treat them all at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable

from ._numpy import np
from .distributions import CountMatrix

__all__ = [
    "GameKind",
    "GameSpec",
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

# The seeded generator behind synthetic histories, and the sampler that
# draws set games from it; recorded in CLI output metadata so runs are
# comparable.
SYNTH_GENERATOR = "pcg64+floyd"

# Draw indices are stored as int64; numpy's text conversion saturates here.
_INDEX_MAX = 2**63 - 1

# The whitespace ``str.split`` breaks at but numpy's text conversion does
# not read, each mapped to a space.
_ODD_SPACES = str.maketrans(dict.fromkeys(
    "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000", " "))


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

    @property
    def layout(self) -> tuple[int, int, int]:
        """``(count, m, base)``: a draw's numbers read as a (count, m) array, row c
        placing m ones in count matrix c, whose K = ``categories`` columns start at
        number ``base``.  A digit game has one matrix per position."""
        if self.kind is GameKind.SET_DRAW:
            return 1, self.picks, 1
        return self.picks, 1, 0


def _rule_break(index, numbers: tuple[int, ...], previous: int | None, spec: GameSpec) -> str | None:
    """Why a row breaks the game rules, the index order or the int64 column,
    checked in that order, or None if it does not.  The row holds draw
    ``index`` and ``numbers`` and follows one indexed ``previous``, or none
    when that is None."""
    if len(numbers) != spec.picks:
        return f"expected {spec.picks} numbers, got {len(numbers)}"
    if spec.kind is GameKind.SET_DRAW:
        for n in numbers:
            if not 1 <= n <= spec.categories:
                return f"number {_shown(n)} outside the pool 1..{spec.categories}"
        if len(set(numbers)) != len(numbers):
            return f"duplicate number in set draw: {numbers}"
    else:
        for n in numbers:
            if not 0 <= n <= 9:
                return f"digit {_shown(n)} outside 0..9"
    if previous is not None and index != previous + 1:
        return f"draw index {_shown(index)} does not follow {previous}"
    if index > _INDEX_MAX:
        return f"draw index {_shown(index)} does not fit in 64 bits"
    return None


def _rule_breaks(numbers: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Per row of an (n, picks) array, whether :func:`_rule_break` finds a game-rule break."""
    count, m, base = spec.layout
    ordered = np.sort(numbers.reshape(len(numbers), count, m), axis=2)
    bad = (ordered[..., 1:] == ordered[..., :-1]).any(axis=2) | (ordered[..., 0] < base)
    return (bad | (ordered[..., -1] >= base + spec.categories)).any(axis=1)


@dataclass(frozen=True, eq=False)
class DrawHistory:
    """A validated, chronologically ordered sequence of draws, held as columns.

    Row i of ``draw_indices`` (n,) and ``numbers`` (n, picks), read-only
    int64 arrays, and ``dates[i]`` (a string, or None for no date) describe
    the i-th draw.  The constructor copies the arrays and checks the game
    rules and the index order as array operations, raising
    :class:`HistoryValidationError` for the first row that breaks one.
    """

    spec: GameSpec
    draw_indices: np.ndarray
    numbers: np.ndarray
    dates: tuple[str | None, ...]

    def __post_init__(self) -> None:
        indices = np.array(self.draw_indices, dtype=np.int64)
        numbers = np.array(self.numbers, dtype=np.int64)
        dates = tuple(self.dates)
        n = len(dates)
        if indices.shape != (n,) or numbers.shape != (n, self.spec.picks):
            raise ValueError(f"a history of n draws needs n indices, an (n, {self.spec.picks}) numbers array "
                             f"and n dates; got shapes {indices.shape} and {numbers.shape} with {n} dates")
        for column in (indices, numbers):
            column.flags.writeable = False
        object.__setattr__(self, "draw_indices", indices)
        object.__setattr__(self, "numbers", numbers)
        object.__setattr__(self, "dates", dates)
        bad = _rule_breaks(numbers, self.spec)
        bad[1:] |= indices[1:] != indices[:-1] + 1
        if bad.any():
            position = int(bad.argmax())
            previous = int(indices[position - 1]) if position else None
            problem = _rule_break(int(indices[position]), tuple(numbers[position].tolist()), previous, self.spec)
            raise HistoryValidationError(problem, position)

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DrawHistory):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.dates == other.dates
            and np.array_equal(self.draw_indices, other.draw_indices)
            and np.array_equal(self.numbers, other.numbers)
        )


def parse_history(source: str | Iterable[str], spec: GameSpec) -> DrawHistory:
    """Parse CSV text, a text file handle or a line iterable into a validated history.

    Malformed rows raise :class:`HistoryParseError` naming the line;
    rows that break the game rules raise :class:`HistoryValidationError`,
    also naming the line.  Either way the first bad line in file order is
    reported.  A string splits into lines as a text file does; a handle or
    other iterable keeps its own lines.

    Each check runs over the whole column at once (a search row by row
    runs only when it fails) and keeps only the rows before the first row
    that fails it; :class:`DrawHistory` then validates those rows.  The
    row that stopped them is the first bad line, and :func:`_row_error`
    explains it from its text.
    """
    if isinstance(source, str):
        # ``str.splitlines`` would also break at form feeds, U+2028 and
        # other characters a file keeps inside a line.
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = list(map(str.strip, source))
    rows = list(filter(None, lines))
    header = 1 if rows and rows[0].split(",", 1)[0].strip() == "draw_index" else 0
    data = rows[header:]
    # Two commas a row: a third would leave a comma in the numbers.
    n = _kept(np.fromiter(map(str.count, data, repeat(",")), np.int64, len(data)) != 2)
    fields = ",".join(data[:n]).split(",") if n else []
    index_texts = list(map(str.strip, fields[0::3]))
    # Whitespace-padded ASCII digits, then an index that fits in int64.
    if not (all(index_texts) and is_digits("".join(index_texts))):
        n = next((i for i, text in enumerate(index_texts) if not is_digits(text)), n)
    indices = np.fromstring(" ".join(index_texts[:n]), dtype=np.int64, sep=" ")
    n = next((i for i in np.flatnonzero(indices == _INDEX_MAX).tolist() if _integer(index_texts[i]) > _INDEX_MAX), n)
    # Numbers: ASCII digits between whitespace, then picks of them a row.
    # The column test encodes every other character, a lone surrogate too,
    # as "?"; the search also stops at an empty field, which has too few.
    numbers = fields[2::3][:n]
    if not "".join(numbers).encode("ascii", "replace").translate(None, b" \t").isdigit():
        n = next((i for i, field in enumerate(numbers) if not is_digits("".join(field.split()))), n)
    # A -1 closes each row, so each row's count shows.
    text = " -1 ".join(numbers[:n] + [""]).translate(_ODD_SPACES)
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    n = _kept(np.diff(np.flatnonzero(values < 0), prepend=-1) != spec.picks + 1)
    values = values[: n * (spec.picks + 1)].reshape(n, spec.picks + 1)[:, :-1]
    try:
        history = DrawHistory(spec, indices[:n], values, tuple([date or None for date in fields[1::3][:n]]))
    except HistoryValidationError as exc:
        n = exc.position
    if n == len(data):
        return history
    lineno = [i for i, line in enumerate(lines, start=1) if line][header + n]
    raise _row_error(data[n], lineno, int(indices[n - 1]) if n else None, spec)


def _kept(bad: np.ndarray) -> int:
    """How many rows come before the first one flagged bad."""
    return int(bad.argmax()) if bad.any() else len(bad)


def _row_error(line: str, lineno: int, previous_index: int | None, spec: GameSpec) -> ValueError:
    """The error of a bad row, rebuilt from its text: the parse rules, then
    :func:`_rule_break`.  The row follows one indexed ``previous_index``,
    or none when that is None."""
    parts = line.split(",", 2)
    if len(parts) != 3:
        return HistoryParseError(f"line {lineno}: expected 'draw_index,date,numbers', got {_quoted(line)}")
    if not is_digits(parts[0].strip()):
        return HistoryParseError(f"line {lineno}: draw index {_quoted(parts[0])} is not an integer of ASCII digits")
    tokens = parts[2].split()
    if tokens and not is_digits("".join(tokens)):
        return HistoryParseError(
            f"line {lineno}: numbers field {_quoted(parts[2])} is not a space-separated integer list")
    problem = _rule_break(_integer(parts[0]), tuple(map(_integer, tokens)), previous_index, spec)
    return HistoryValidationError(f"line {lineno}: {problem}")


def _integer(digits: str):
    """The value of a string of ASCII digits, padded or not.  A value of 20
    or more digits lies beyond int64 and every game's range, and may be too
    long for ``int()``, so it comes as a ``Decimal``, which compares and
    prints as the same integer."""
    digits = digits.strip().lstrip("0") or "0"
    if len(digits) < 20:
        return int(digits)
    from decimal import Decimal  # only a bad row needs it

    return Decimal(digits)


def is_digits(token: str) -> bool:
    """ASCII 0-9 only; ``int()`` would also take signs, underscores and
    digits from other scripts.  History files and the CLI's integer
    values share this rule."""
    return token.isascii() and token.isdigit()


def _quoted(text: str) -> str:
    """A value as a message shows it: its repr, or past 100 characters its
    head and length.  History rows and the CLI's values share this rule."""
    return repr(text) if len(text) <= 100 else f"{text[:10]!r}... of {len(text)} characters"


def _shown(value) -> str:
    """An integer as a message shows it: whole, or past 100 digits as :func:`_quoted` shows text."""
    digits = str(value)
    return digits if len(digits) <= 100 else f"{digits[:10]}... of {len(digits)} digits"


def serialize_history(history: DrawHistory) -> str:
    """Inverse of :func:`parse_history`: the text parses back to an equal history.

    A date that would read back differently, the empty string (read as no
    date) or one holding a comma, CR or LF, raises ``ValueError`` naming
    its draw index; nothing is written for such a history.
    """
    indices = history.draw_indices.tolist()
    for index, date in zip(indices, history.dates):
        if date is not None and (not date or any(c in date for c in ",\r\n")):
            raise ValueError(f"draw {index}: date {date!r} cannot be written back; "
                             "dates must be nonempty and hold no comma or line break")
    if not indices:
        return ""
    # One line's text with a slot per field, repeated per draw and filled
    # from the columns row by row.
    line = "%d,%s," + " ".join(["%d"] * history.spec.picks)
    dates = [date or "" for date in history.dates]
    values = [value for row in zip(indices, dates, *history.numbers.T.tolist()) for value in row]
    return "\n".join([line] * len(indices)) % tuple(values) + "\n"


def build_count_matrices(history: DrawHistory) -> list[CountMatrix]:
    """Indicator count matrices for a history, in :attr:`GameSpec.layout` order.

    Set games produce a single n-by-pool 0/1 matrix whose rows sum to the
    number of picks.  Digit games produce one n-by-10 one-hot matrix per
    position (row sum 1).  The indicators are built as int8, so each
    matrix's own int64 copy is the only int64 copy.
    """
    if not len(history):
        raise ValueError("history is empty")
    return list(map(CountMatrix, _indicators(history.numbers, history.spec).transpose(1, 0, 2)))


def _indicators(numbers: np.ndarray, spec: GameSpec) -> np.ndarray:
    """The (n, count, K) int8 entries of the count matrices of the draws
    ``numbers`` (n, picks), as :attr:`GameSpec.layout` lays them out: entry
    ``[t, c, j]`` is 1 when draw t places number ``base + j`` in matrix c.
    The one place a draw's numbers become count-matrix entries."""
    n = len(numbers)
    count, m, base = spec.layout
    entries = np.zeros((n, count, spec.categories), dtype=np.int8)
    # Column by column: the whole (n, count, m) index builds temporaries of several times their bytes.
    for j, column in enumerate(numbers.T):
        entries[np.arange(n), j // m, column - base] = 1
    return entries


def slice_window(matrix: CountMatrix, end: int, width: int | None = None) -> CountMatrix:
    """Rows ``[end - width, end)`` of the matrix, or ``[0, end)`` when width is None.

    A window of every row is the matrix itself, not a copy."""
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
    if start == 0 and end == matrix.rows:
        return matrix
    return CountMatrix(matrix.counts[start:end])


def _floyd_rows(steps: np.ndarray, pool: int) -> np.ndarray:
    """The (n, m) subsets that Floyd's sampler builds from ``steps``.

    ``steps`` holds m columns of n integers, column c in 0..j with
    j = pool - m + c.  In each row, column c keeps its integer unless an
    earlier column of the row holds it, and then takes j, which none can
    hold.  Each row becomes an m-subset of 0..pool-1, in pick order, and
    uniform integers give a uniform subset (Bentley & Floyd, "A sample of
    brilliance", CACM 30(9), 1987).  A table of the numbers each row holds
    makes the test one lookup per pick; it is built for a block of rows at
    a time, so it stays near 4 MB whatever the pool.
    """
    rows = np.stack(steps, axis=1)
    m = rows.shape[1]
    block = max(1, 2**22 // pool)
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        held = np.zeros((len(chunk), pool), dtype=bool)
        at = np.arange(len(chunk))
        for c in range(m):
            column = chunk[:, c]
            column[held[at, column]] = pool - m + c
            held[at, column] = True
    return rows


def synthetic_history(spec: GameSpec, draws: int, seed: int) -> DrawHistory:
    """Uniform-random history from a seeded PCG64 generator.

    Set games draw uniform ``picks``-subsets (stored ascending) with
    Floyd's sampler: ``picks`` generator calls in all, the one for
    j = pool - picks .. pool - 1 giving each draw an integer in 0..j
    (:func:`_floyd_rows`).  Digit games draw independent uniform digits per
    position in one call.  Identical seeds reproduce identical histories.
    """
    if draws < 1:
        raise ValueError(f"draws must be positive, got {draws}")
    rng = np.random.default_rng(seed)
    if spec.kind is GameKind.SET_DRAW:
        pool = spec.categories
        steps = [rng.integers(0, j + 1, size=draws) for j in range(pool - spec.picks, pool)]
        numbers = _floyd_rows(steps, pool)
        numbers.sort(axis=1)
        numbers += 1
    else:
        # Each bounded digit reads one 32-bit word of the stream whatever the
        # call size, so one call gives the digits of one call per draw.
        numbers = rng.integers(0, 10, size=(draws, spec.picks))
    return DrawHistory(spec, np.arange(draws), numbers, (None,) * draws)
