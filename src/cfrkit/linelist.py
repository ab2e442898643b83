"""Line-list ingestion and aggregation into daily case and death-lag counts."""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache
from itertools import chain, islice, product
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError

__all__ = [
    "CaseRecord",
    "LineList",
    "EpidemicTable",
    "MAX_DAY",
    "parse_csv",
    "aggregate",
]


@dataclass(frozen=True)
class CaseRecord:
    """One confirmed case: its confirmation day and, if it died, its death day.

    Day indices count from day 0 of the epidemic; ``death_day`` is None while
    the outcome is unresolved (alive or still at risk).
    """

    confirm_day: int
    death_day: int | None = None

    def __post_init__(self) -> None:
        if self.confirm_day < 0:
            raise ValueError(f"confirm_day must be non-negative, got {self.confirm_day}")
        if self.death_day is not None and self.death_day < self.confirm_day:
            raise ValueError(
                f"death_day {self.death_day} precedes confirm_day {self.confirm_day}"
            )

    @property
    def lag(self) -> int | None:
        """Days from confirmation to death; None while unresolved."""
        if self.death_day is None:
            return None
        return self.death_day - self.confirm_day


@dataclass(frozen=True, eq=False)
class LineList:
    """The cases of one epidemic as two day columns; day 0 maps to ``epoch``
    when known.

    ``confirm[i]`` is the confirmation day of row i and ``death[i]`` its death
    day, or -1 while the outcome is unresolved. The arrays are int64, copied
    on construction and frozen; iteration yields ``CaseRecord``s in row order.
    """

    confirm: np.ndarray
    death: np.ndarray
    epoch: date | None = None

    def __post_init__(self) -> None:
        confirm = np.array(self.confirm, dtype=np.int64)
        death = np.array(self.death, dtype=np.int64)
        if confirm.ndim != 1 or death.shape != confirm.shape:
            raise ValueError("confirm and death must be one-dimensional and equally long")
        if np.any(confirm < 0):
            raise ValueError("confirmation days must be non-negative")
        if np.any((death != -1) & (death < confirm)):
            raise ValueError("death days must be -1 or on or after the confirmation day")
        confirm.setflags(write=False)
        death.setflags(write=False)
        object.__setattr__(self, "confirm", confirm)
        object.__setattr__(self, "death", death)

    @classmethod
    def from_records(
        cls, records: Iterable[CaseRecord], epoch: date | None = None
    ) -> "LineList":
        """Build a line list from case records, keeping their order."""
        records = tuple(records)
        return cls(
            [rec.confirm_day for rec in records],
            [-1 if rec.death_day is None else rec.death_day for rec in records],
            epoch,
        )

    def __len__(self) -> int:
        return int(self.confirm.size)

    def __iter__(self) -> Iterator[CaseRecord]:
        for confirm, death in zip(self.confirm.tolist(), self.death.tolist()):
            yield CaseRecord(confirm, None if death < 0 else death)

    @property
    def lags(self) -> np.ndarray:
        """Confirmation-to-death lag of every row with a death, in row order."""
        died = self.death >= 0
        return self.death[died] - self.confirm[died]


MAX_DAY = 3652
"""Last day index `parse_csv` accepts: ten years after day 0. A typo'd year
(2202 for 2020) would otherwise size the dense day-by-lag table in tens of GB."""


def _parse_day(raw: str, epoch: date | None, column: str) -> int:
    """Day index of one non-blank cell; a ParseError names no line."""
    raw = raw.strip()
    try:
        day = int(raw)
    except ValueError:
        try:
            parsed = date.fromisoformat(raw)
        except ValueError:
            raise ParseError(
                f"invalid {column} {raw!r} (expected ISO date or day index)"
            ) from None
        if epoch is None:
            raise ParseError(f"{column} is a calendar date but no epoch was given")
        day = (parsed - epoch).days
    if day < 0:
        raise ParseError(f"{column} {raw!r} falls before day 0")
    if day > MAX_DAY:
        raise ParseError(f"{column} {raw!r} is day {day}, past the last day {MAX_DAY}")
    return day


_BLOCK_BYTES = 1 << 18
"""Bytes `parse_csv` reads at a time from bytes input, then the rest of the
line. Larger blocks were no faster and raised the peak RSS."""

_CHUNK_LINES = 4096
"""Lines `parse_csv` joins at a time from an iterable of str lines."""

# A word of n < 8 digits, first digit in the lowest byte, is shifted up by
# _SHIFT[n] bits and padded with _PAD[n]'s "0"s to 8 digits.
_SHIFT = np.array([0] + [8 * (8 - n) for n in range(1, 9)], np.uint64)
_PAD = np.array([0x3030303030303030 >> 8 * n if n < 8 else 0 for n in range(9)], np.uint64)


def _number(word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each 8-byte word is 8 ASCII digits, and the number they spell."""
    t = word ^ 0x3030303030303030
    # 0x80 marks a byte >= 10; a carry can only spoil a byte above one marked.
    ok = ((t + 0x7676767676767676) | t) & 0x8080808080808080 == 0
    t = (t * (10 << 8 | 1)) >> 8 & 0x00FF00FF00FF00FF
    t = (t * (100 << 16 | 1)) >> 16 & 0x0000FFFF0000FFFF
    return ok, (t * (10000 << 32 | 1)) >> 32


@lru_cache(maxsize=8)
def _date_days(epoch: date, last_day: int) -> tuple[int, np.ndarray]:
    """The first YYYYMMDD of the years that days 0..last_day touch, and the
    day of each YYYYMMDD from it: -1 for no date or a day past 0..last_day.
    Each month's 1st comes from `_parse_day`'s own arithmetic."""
    from calendar import monthrange  # here, off the import path of cfrkit

    zero = max(1, 1 - (date(1, 1, 1) - epoch).days)  # ordinal of day 0
    last = date.fromordinal(min(zero + last_day, date.max.toordinal()))
    years = range(date.fromordinal(zero).year, last.year + 1)
    days = np.full(len(years) * 10000, -1, np.int32)
    for year, month in product(years, range(1, 13)):
        at = (year - years[0]) * 10000 + month * 100 + 1
        first = (date(year, month, 1) - epoch).days
        days[at : at + 31] = range(first, first + 31)  # and past the month: no date
        days[at + monthrange(year, month)[1] : at + 31] = -1
    days[(days < 0) | (days > last_day)] = -1
    return years[0] * 10000, days


def _cell_days(words: np.ndarray, start: np.ndarray, width: np.ndarray, epoch) -> np.ndarray:
    """Day of each cell, from the 8-byte words at its start: -1 for one that
    is not 1-8 ASCII digits or a YYYY-MM-DD date of a day 0..MAX_DAY."""
    word, iso, days = words[start], width == 10, np.full(width.size, -1)
    if epoch is None or not iso.all():
        n = np.clip(width, 1, 8)
        ok, number = _number(word << _SHIFT[n] | _PAD[n])
        days = np.where(ok & (width == n), number.view(np.int64), -1)
    if epoch is not None and iso.any():
        # YYYY-MM-DD as the digits YYYYMMDD, from the words at 0 and 2.
        later = words[start + 2]
        ok, ymd = _number(word & 0xFFFFFFFF | word >> 8 & 0xFFFF << 32 | later & 0xFFFF << 48)
        ok &= iso & (word & 0xFF0000FF << 32 == 0x2D00002D << 32)  # and the dashes
        base, table = _date_days(epoch, MAX_DAY)
        # A YYYYMMDD off the table (one below it wraps) reads its last entry, YYYY9999: no date.
        days = np.where(ok, table[np.minimum(ymd - base, table.size - 1)], days)
    return days


def _block_days(
    block: bytes, commas: int, cols: tuple[int, int], epoch
) -> tuple[np.ndarray, int] | None:
    """(2, n) C-int confirm and death days (-1 for none) of the data lines of
    a block, and its count of "\n"s. None unless the block is UTF-8 with no
    quote, carriage return, NUL or line past the csv field limit; each line
    is blank, a comment, or has ``commas`` commas and starts with an ASCII
    byte that is no blank; and each day cell is digits or YYYY-MM-DD of a
    day 0..MAX_DAY, with no death before its confirmation. The record loop
    reads such a block alike, and without an error."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    try:
        block.isascii() or block.decode()
    except UnicodeDecodeError:
        return None
    # "\n" in front ends a line before the first; 16 bytes behind let a word start at any cell.
    data = b"".join((b"\n", block, b"" if block.endswith(b"\n") else b"\n", bytes(16)))
    buf = np.frombuffer(data, np.uint8)
    pos = np.flatnonzero((buf == 44) | (buf == 10))  # every comma and line end
    ends = np.flatnonzero(buf[pos] == 10)  # index in pos of each line's end
    starts = pos[ends[:-1]] + 1
    lead = buf[starts]
    rows = (lead != 35) & (lead != 10)  # neither a comment nor blank
    if (
        np.max(pos[ends[1:]] - starts, initial=0) > csv.field_size_limit()
        or np.any(rows & ((lead <= 32) | (lead >= 128) | (np.diff(ends) != commas + 1)))
    ):
        return None
    at = (ends[1:] if rows.all() else ends[1:][rows]) - commas  # first commas
    words = np.ndarray((buf.size - 7,), "<u8", data, 0, (1,))
    days = np.full((2, at.size), -1, np.intc)
    for row, col in enumerate(cols):
        start = pos[at + col - 1] + 1
        width = pos[at + col] - start
        filled = np.flatnonzero(width) if row else slice(None)
        cells = _cell_days(words, start[filled], width[filled], epoch)
        if np.any(cells.view(np.uint64) > MAX_DAY):
            return None
        days[row, filled] = cells
    if np.any((days[1] < days[0]) & (days[1] >= 0)):
        return None
    return days, ends.size - 2 + block.endswith(b"\n")


def _pieces(text: str | bytes | BinaryIO | Iterable[str]) -> Iterator[bytes | Iterable[str]]:
    """The input as blocks of bytes cut after a ``\n``, and from the first
    chunk of str lines that is no such block on, as one iterable of lines."""
    if isinstance(text, str):  # a lone surrogate becomes a byte that is not UTF-8
        text = text.encode("utf-8", "surrogatepass")
    if isinstance(text, bytes):
        text = io.BytesIO(text)
    if isinstance(text, (io.RawIOBase, io.BufferedIOBase)):
        while block := text.read(_BLOCK_BYTES):
            block += text.readline()  # to the end of its last line
            yield block
        return
    lines = iter(text)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        try:  # a line that is no str, or "", ends the blocks
            joined, tails = "".join(chunk), "".join(map(itemgetter(-1), chunk))
            # Each line ends in its one "\n", but the input's last may lack it.
            if joined.count("\n") == tails.count("\n") == len(chunk) - (
                tails[-1] != "\n" and len(chunk) < _CHUNK_LINES
            ):
                yield joined.encode("utf-8", "surrogatepass")
                continue
        except (TypeError, IndexError):
            pass
        yield chain(chunk, lines)
        return


def _lines(pieces: Iterable[bytes | Iterable[str]]) -> Iterator[str]:
    """The lines of the pieces as str; a bytes line that is not UTF-8 raises
    UnicodeDecodeError when it is reached."""
    texts = (map(bytes.decode, io.BytesIO(p)) if isinstance(p, bytes) else p for p in pieces)
    return chain.from_iterable(texts)


def parse_csv(text: str | bytes | BinaryIO | Iterable[str], epoch: date | None = None) -> LineList:
    """Parse a line-list CSV into confirmation and death day columns.

    The header must name ``confirm_date`` and ``death_date`` columns. Values
    are ISO-8601 dates (converted against ``epoch`` as day 0) or bare
    non-negative day indices up to ``MAX_DAY``. An empty ``death_date`` means
    the case has no recorded death. Blank lines and lines starting with ``#``
    are skipped; a ``#`` line whose quote runs past its end is a ParseError,
    since the quoted field would swallow the lines after it. The input must
    be UTF-8.

    The input is read as bytes in blocks cut after a ``\n``: a str is
    encoded, a binary stream is read ``_BLOCK_BYTES`` and the rest of a line
    at a time, and an iterable of str lines is joined ``_CHUNK_LINES`` lines
    at a time while each line ends in one ``\n``. After a one-line header
    without a quote, numpy parses each block that `_block_days` takes: one
    scan finds its commas and line ends, and 8-byte loads read its digit and
    ISO date cells. The first other block, or other input, goes with the
    rest to a loop over CSV records, which parses each distinct raw cell
    once and raises every error.

    Args:
        text: CSV content as a string, bytes, a binary stream or an
            iterable of lines.
        epoch: calendar date of day 0; required when any field is a date.

    Returns:
        LineList with one row per data row, in file order.

    Raises:
        ParseError: missing header columns, an unparseable, negative or
            out-of-range day, a death date before the confirmation date, a
            comment with a quoted line break, a byte that is not UTF-8, or a
            record the csv module rejects (a field past its size limit, a
            bare carriage return); messages name the line the offending
            record starts on.
    """
    pieces = _pieces(text)
    first = next(pieces, b"")
    line = first[: first.find(b"\n") + 1 or None] if isinstance(first, bytes) else None
    if line is None or b'"' in line:  # a header that may span lines: all to the record loop
        head, pieces = chain([first], pieces), iter(())
    else:
        head, pieces = [line], chain([first[len(line) :]], pieces)
    stream = _lines(head)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: missing header row") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"line 1: {exc}") from None
    names = [name.strip() for name in header]
    try:
        cols = confirm_col, death_col = names.index("confirm_date"), names.index("death_date")
    except ValueError:
        raise ParseError(
            "line 1: header must contain confirm_date and death_date columns"
        ) from None

    # The case rows, as C ints (days are at most MAX_DAY): half the size of
    # the int64 columns LineList copies them into.
    confirms, deaths = array("i"), array("i")
    before = reader.line_num  # lines before the next block or record
    for piece in pieces:
        parsed = isinstance(piece, bytes) and _block_days(piece, len(header) - 1, cols, epoch)
        if not parsed:
            stream = _lines(chain([piece], pieces))
            break
        part, newlines = parsed
        confirms.frombytes(part[0].tobytes())
        deaths.frombytes(part[1].tobytes())
        before += newlines

    # Raw cell -> day, shared by both columns; blank cells map to -1 (no death).
    days: dict[str, int] = {}

    def day_of(raw: str, column: str) -> int:
        day = days.get(raw)
        if day is None:
            day = _parse_day(raw, epoch, column) if raw.strip() else -1
            days[raw] = day
        return day

    def parse_row(row: list[str], line: int) -> tuple[int, int]:
        """Check and parse one row in full; (-1, -1) for a blank or comment
        row. ``line`` is the line the row starts on."""
        if not row or all(not cell.strip() for cell in row):
            return -1, -1
        if row[0].lstrip().startswith("#"):
            if any("\n" in cell for cell in row):
                raise ParseError(
                    f"line {line}: comment row holds a quoted line break, "
                    "which would swallow the lines after it"
                )
            return -1, -1
        confirm_raw = row[confirm_col] if confirm_col < len(row) else ""
        if not confirm_raw.strip():
            raise ParseError(f"line {line}: empty confirm_date")
        try:
            confirm = day_of(confirm_raw, "confirm_date")
            death = day_of(row[death_col] if death_col < len(row) else "", "death_date")
        except ParseError as exc:
            raise ParseError(f"line {line}: {exc}") from None
        if 0 <= death < confirm:
            raise ParseError(f"death precedes confirmation at line {line}")
        return confirm, death

    records = csv.reader(stream)
    read = 0  # lines of the stream before the next record
    try:
        for row in records:
            # Fast path: both cells seen before and the row is no comment. A
            # cached confirm day >= 0 comes from a non-blank cell, so the row
            # is not blank.
            try:
                confirm = days[row[confirm_col]]
                death = days[row[death_col]]
            except (KeyError, IndexError):
                confirm = -1
            if confirm < 0 or ("#" in row[0] and row[0].lstrip().startswith("#")):
                confirm, death = parse_row(row, before + read + 1)
            elif confirm > death >= 0:
                raise ParseError(f"death precedes confirmation at line {before + read + 1}")
            if confirm >= 0:
                confirms.append(confirm)
                deaths.append(death)
            read = records.line_num
    except csv.Error as exc:
        raise ParseError(f"line {before + read + 1}: {exc}") from None
    except UnicodeDecodeError as exc:  # names the line that is not UTF-8
        raise ParseError(f"line {before + records.line_num + 1}: {exc}") from None
    return LineList(np.frombuffer(confirms, np.intc), np.frombuffer(deaths, np.intc), epoch)


@dataclass(frozen=True, eq=False)
class EpidemicTable:
    """Daily confirmed-case counts plus a (day, lag) death table.

    ``cases[d]`` counts cases confirmed on day d. ``deaths[d, k]`` counts
    cases confirmed on day d that died exactly k days later. Rows may sum to
    less than ``cases[d]``; the remainder survived or is unresolved. Arrays
    are copied on construction and frozen.
    """

    cases: np.ndarray
    deaths: np.ndarray

    def __post_init__(self) -> None:
        cases = np.array(self.cases, dtype=np.int64, copy=True)
        deaths = np.array(self.deaths, dtype=np.int64, copy=True)
        if cases.ndim != 1:
            raise ValueError("cases must be one-dimensional")
        if deaths.ndim != 2:
            raise ValueError("deaths must be two-dimensional")
        if deaths.shape[0] != cases.shape[0]:
            raise ValueError("deaths must have one row per day in cases")
        if deaths.shape[1] == 0:
            deaths = np.zeros((deaths.shape[0], 1), dtype=np.int64)
        if np.any(cases < 0) or np.any(deaths < 0):
            raise ValueError("counts must be non-negative")
        if np.any(deaths.sum(axis=1) > cases):
            raise ValueError("more deaths than confirmed cases on some day")
        cases.setflags(write=False)
        deaths.setflags(write=False)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "deaths", deaths)

    @classmethod
    def from_sparse(
        cls, cases: Sequence[int], lag_counts: Mapping[int, Mapping[int, int]]
    ) -> "EpidemicTable":
        """Build a table from per-day ``{lag: count}`` mappings."""
        n = len(cases)
        width = 1 + max((k for row in lag_counts.values() for k in row), default=0)
        deaths = np.zeros((n, width), dtype=np.int64)
        for d, row in lag_counts.items():
            for k, count in row.items():
                deaths[d, k] = count
        return cls(np.asarray(cases, dtype=np.int64), deaths)

    @property
    def n_days(self) -> int:
        return int(self.cases.shape[0])

    @property
    def max_lag(self) -> int:
        return int(self.deaths.shape[1]) - 1

    @property
    def total_cases(self) -> int:
        return int(self.cases.sum())

    @property
    def total_deaths(self) -> int:
        return int(self.deaths.sum())

    # Cumulative tables; every query below is O(1) or O(t) thanks to these.
    @cached_property
    def _cum_cases(self) -> np.ndarray:
        return np.cumsum(self.cases)

    @cached_property
    def _cum_lag(self) -> np.ndarray:
        return np.cumsum(self.deaths, axis=1)

    @cached_property
    def _cum_day(self) -> np.ndarray:
        return np.cumsum(self.deaths, axis=0)

    def cumulative_cases(self, t: int) -> int:
        """Total cases confirmed on days 0..t."""
        if not 0 <= t < self.n_days:
            raise ValueError(f"day {t} outside table (0..{self.n_days - 1})")
        return int(self._cum_cases[t])

    def deaths_by(self, d: int, t: int) -> int:
        """Cases confirmed on day d that died on or before day t."""
        if not 0 <= d < self.n_days:
            raise ValueError(f"day {d} outside table (0..{self.n_days - 1})")
        if d > t:
            raise ValueError(f"confirmation day {d} is after query day {t}")
        return int(self._cum_lag[d, min(t - d, self.max_lag)])

    def observed_deaths(self, t: int) -> np.ndarray:
        """Vector of ``deaths_by(d, t)`` for d = 0..min(t, n_days - 1)."""
        if t < 0:
            raise ValueError("t must be non-negative")
        upto = min(t, self.n_days - 1)
        d = np.arange(upto + 1)
        return self._cum_lag[d, np.minimum(t - d, self.max_lag)]

    @cached_property
    def _cum_final(self) -> np.ndarray:
        return np.cumsum(self._cum_lag[:, -1])

    def final_deaths(self) -> np.ndarray:
        """Per-day counts of cases with a recorded death at any lag."""
        return self._cum_lag[:, -1].copy()

    def cumulative_final_deaths(self, t: int) -> int:
        """Cases confirmed on days 0..t with a recorded death at any lag."""
        if not 0 <= t < self.n_days:
            raise ValueError(f"day {t} outside table (0..{self.n_days - 1})")
        return int(self._cum_final[t])


def _death_table(day: np.ndarray, lags: np.ndarray, n_days: int) -> np.ndarray:
    """Dense (n_days, max lag + 1) counts of deaths per (day, lag) cell, from
    one day and one lag per death."""
    width = int(lags.max()) + 1 if lags.size else 1
    return np.bincount(day * width + lags, minlength=n_days * width).reshape(n_days, width)


def aggregate(linelist: LineList) -> EpidemicTable:
    """Count confirmations per day and deaths per (confirmation day, lag) cell.

    The table spans days 0..max confirmation day, so the total over ``cases``
    equals the number of rows.
    """
    confirm, death = linelist.confirm, linelist.death
    n = int(confirm.max()) + 1 if confirm.size else 0
    died = death >= 0
    lags = death[died] - confirm[died]
    cases = np.bincount(confirm, minlength=n)
    return EpidemicTable(cases, _death_table(confirm[died], lags, n))
