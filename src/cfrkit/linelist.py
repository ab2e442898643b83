"""Line-list ingestion and aggregation into daily case and death-lag counts."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache
from itertools import chain, islice, product
from operator import itemgetter, methodcaller
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError

__all__ = [
    "LineList",
    "EpidemicTable",
    "MAX_DAY",
    "MAX_CASES",
    "parse_csv",
    "aggregate",
]


@dataclass(frozen=True, eq=False)
class LineList:
    """A line list as `parse_csv` reads it: its `EpidemicTable` of daily
    case counts and death events, and the calendar date of day 0, when
    known. ``len()`` counts its case rows."""

    table: EpidemicTable
    epoch: date | None = None

    def __len__(self) -> int:
        return self.table.total_cases

    @property
    def lags(self) -> np.ndarray:
        """Confirmation-to-death lag of every row with a death, in row
        order: the table's own read-only array, not a copy."""
        return self.table._lag


MAX_DAY = 3652
"""Last day index `parse_csv` accepts: ten years after day 0. A typo'd year
(2202 for 2020) would otherwise stretch the days that `cfrkit estimate`
evaluates, and each (days x cohorts) block the estimators hold, to some
66,000 days."""

MAX_CASES = 1 << 25
"""Most cases a simulated scenario may hold, about 33.5 million: a study
peaked at 60-95 bytes per death (draws in flight and the tables built from
them, on 4M-death studies) and has no more deaths than cases, so it stays
near 3 GiB even if every case dies. The bundled mirrored curve holds 3.2M."""


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
"""Lines `parse_csv` joins at a time from an iterable of str lines, and
records of the record loop in each day piece it yields."""

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


def _records(lines: Iterable[str], at: list[int], before: int = 0) -> Iterator[list[str]]:
    """The cells of each CSV record of the lines that is neither blank nor a
    comment (a first cell starting with ``#`` after any blanks); while one is
    out, it starts on line ``before + at[0] + 1``. A quoted cell keeps its
    blank and ``#`` lines. One byte-order mark at the start of the input
    (``before`` 0), as Excel writes one, is dropped. A ParseError names the
    line of a comment holding a quoted line break, which would swallow the
    lines after it, of a record the csv module rejects and of a line that
    is not UTF-8."""
    lines = iter(lines)
    if not before:  # first line lazily, so that a decode error is raised below
        lines = chain(map(methodcaller("removeprefix", "\ufeff"), islice(lines, 1)), lines)
    reader = csv.reader(lines)
    at[0] = 0
    try:
        for row in reader:
            # A first cell from "$" to "\x84" starts with no blank and no "#".
            if row and "$" <= row[0] < "\x85":
                yield row
            elif row and row[0].lstrip().startswith("#"):
                if any("\n" in cell for cell in row):
                    raise ParseError(
                        f"line {before + at[0] + 1}: comment row holds a quoted line break, "
                        "which would swallow the lines after it"
                    )
            elif any(cell.strip() for cell in row):
                yield row
            at[0] = reader.line_num  # a (line, cells) pair or an add here cost 4-8%
    except csv.Error as exc:
        raise ParseError(f"line {before + at[0] + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"line {before + reader.line_num + 1}: {exc}") from None


def _file_records(handle: BinaryIO, path: object) -> Iterator[tuple[int, list[str]]]:
    """The (line, cells) of each record of a binary CSV file, the header
    first, read one at a time as `parse_csv` reads a line list; a
    ParseError names ``path`` and the line."""
    at = [0]
    try:
        for cells in _records(map(bytes.decode, handle), at):
            yield at[0] + 1, cells
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def parse_csv(text: str | bytes | BinaryIO | Iterable[str], epoch: date | None = None) -> LineList:
    """Read a line-list CSV into its `EpidemicTable`: the day pieces of the
    rows are folded into daily case counts and the deaths' (confirmation
    day, lag) events as they are read, so the reader holds O(deaths + days
    + one piece), not a column of every row. The CLI reads a file this way.

    The header must name ``confirm_date`` and ``death_date`` columns. Values
    are ISO-8601 dates (converted against ``epoch`` as day 0) or bare
    non-negative day indices up to ``MAX_DAY``. An empty ``death_date`` means
    the case has no recorded death. Blank records and records starting with
    ``#`` are skipped, also before the header; a ``#`` record whose quote
    runs past its line is a ParseError, since the quoted field would swallow
    the lines after it. The input must be UTF-8.

    The input is read as bytes in blocks cut after a ``\n``: a str is
    encoded, a binary stream is read ``_BLOCK_BYTES`` and the rest of a line
    at a time, and an iterable of str lines is joined ``_CHUNK_LINES`` lines
    at a time while each line ends in one ``\n``. The header is read from
    the first block's lines, and numpy parses each block after it that
    `_block_days` takes: one scan finds its commas and line ends, and 8-byte
    loads read its digit and ISO date cells. The first other block, a header
    past the first block or other input goes with the rest to a CSV record
    loop, which parses each distinct raw cell once and raises every error.

    Args:
        text: CSV content as a string, bytes, a binary stream or an
            iterable of lines.
        epoch: calendar date of day 0; required when any field is a date.

    Returns:
        LineList of the table, whose cases sum to the number of data rows
        and whose death events, and so ``lags``, are in file order.

    Raises:
        ParseError: missing header columns, an unparseable, negative or
            out-of-range day, a death date before the confirmation date, a
            comment with a quoted line break, a byte that is not UTF-8, or a
            record the csv module rejects (a field past its size limit, a
            bare carriage return); messages name the line the offending
            record starts on.
    """
    return LineList(_fold(_case_days(text, epoch)), epoch)


def _case_days(
    text: str | bytes | BinaryIO | Iterable[str], epoch: date | None
) -> Iterator[np.ndarray]:
    """The (2, n) C-int confirm and death days (-1 for none) of the case rows
    of a line list, a piece at a time, as `parse_csv` reads them: one piece
    per block that `_block_days` takes, then one per ``_CHUNK_LINES`` records
    of the record loop. A ParseError is raised when its line is reached."""
    pieces = _pieces(text)
    first = next(pieces, b"")
    # A first block of bytes is read by lines up to its header, and numpy
    # may read the blocks after it; other input all goes to the record loop.
    if not isinstance(first, bytes):
        pieces, first = chain([first], pieces), b""
    head = io.BytesIO(first)
    at = [0]  # lines before the record out of _records
    records = _records(chain(map(bytes.decode, head), _lines(pieces)), at)
    header = next(records, None)
    if header is None:
        raise ParseError("line 1: missing header row")
    names = [name.strip() for name in header]
    try:
        cols = confirm_col, death_col = names.index("confirm_date"), names.index("death_date")
    except ValueError:
        raise ParseError(
            f"line {at[0] + 1}: header must contain confirm_date and death_date columns"
        ) from None

    before = 0  # lines before the first of the records
    if 0 < head.tell() < len(first):  # the header ends inside the first block
        before = first.count(b"\n", 0, head.tell())
        pieces = chain([first[head.tell() :]], pieces)
        for piece in pieces:
            parsed = isinstance(piece, bytes) and _block_days(piece, len(header) - 1, cols, epoch)
            if not parsed:
                pieces = chain([piece], pieces)
                break
            yield parsed[0]
            before += parsed[1]
        records = _records(_lines(pieces), at, before)

    # Raw cell -> day, shared by both columns; blank cells map to -1 (no death).
    days: dict[str, int] = {}

    def day_of(raw: str, column: str) -> int:
        day = days.get(raw)
        if day is None:
            day = _parse_day(raw, epoch, column) if raw.strip() else -1
            days[raw] = day
        return day

    chunk = _CHUNK_LINES
    while True:
        confirms, deaths = [], []  # faster to append to than arrays
        for row in islice(records, chunk):
            # Fast path: both cells seen before. A cached confirm day >= 0
            # comes from a non-blank cell.
            try:
                confirm = days[row[confirm_col]]
                death = days[row[death_col]]
            except (KeyError, IndexError):
                confirm = -1
            if confirm < 0:  # the record in full
                confirm_raw = row[confirm_col] if confirm_col < len(row) else ""
                if not confirm_raw.strip():
                    raise ParseError(f"line {before + at[0] + 1}: empty confirm_date")
                try:
                    confirm = day_of(confirm_raw, "confirm_date")
                    death = day_of(row[death_col] if death_col < len(row) else "", "death_date")
                except ParseError as exc:
                    raise ParseError(f"line {before + at[0] + 1}: {exc}") from None
            if 0 <= death < confirm:
                raise ParseError(f"death precedes confirmation at line {before + at[0] + 1}")
            confirms.append(confirm)
            deaths.append(death)
        yield np.array([confirms, deaths], np.intc)
        if len(confirms) < chunk:  # the records ran out
            return


def _whole(values, name: str) -> np.ndarray:
    """``values`` as a new int64 array. A ValueError names the first value
    that is not a finite whole number; integer input is only copied."""
    array = np.asarray(values)
    if array.dtype.kind not in "biu" or array.dtype == np.uint64:  # a uint64 may pass 2**63
        real = array.astype(float)
        bad = ~(np.abs(real) < 2.0**63) | (real != np.trunc(real))
        if bad.any():
            raise ValueError(f"{name} must be finite whole numbers, got {real[bad][0]}")
    return np.array(array, dtype=np.int64)


def _index(value, name: str, negative: str = "{name} must be non-negative") -> int:
    """``value``, one finite whole number >= 0, as an int. Any other value
    raises a ValueError naming ``name`` and the value: ``negative``, with
    ``name`` and the number as ``value``, for a negative whole number."""
    array = np.asarray(value)
    if array.ndim or array.dtype.kind not in "biufO":
        raise ValueError(f"{name} must be a single number, not a {type(value).__name__}")
    index = int(_whole(array, name))
    if index < 0:
        raise ValueError(negative.format(name=name, value=index))
    return index


def _table_day(value, n_days: int, name: str) -> int:
    """``value`` read by `_index` as a day 0..n_days - 1 of a table."""
    outside = f"day {{value}} outside table (0..{n_days - 1})"
    day = _index(value, name, outside)
    if day >= n_days:
        raise ValueError(outside.format(value=day))
    return day


def _day_counts(cases) -> np.ndarray:
    """Daily case counts as an int64 copy."""
    cases = _whole(cases, "cases")
    if cases.ndim != 1:
        raise ValueError("cases must be one-dimensional")
    if np.any(cases < 0):
        raise ValueError("counts must be non-negative")
    return cases


class _Running:
    """Counts of events per bin on each evaluation day, where an event counts
    on every day from its first day on: ``counts(t, out)[i, b]`` is the
    number of events in bin b whose first day is at most t[i], and the
    second array it returns counts them all: the total of row i.

    A first query of one day, all a study's final-day replicate asks, is
    one ``bincount`` of the events counted by then, whose order it does not
    need. Any other query first puts the events in first-day order, once:
    sorted as unsigned 32-bit keys ``first << shift | bin`` where they fit,
    else by ``argsort`` of the first days, as packed int64 keys would wrap
    once first days and bins pass 2**31. Either way the events are then
    held as two columns, int64 first days and their bins. A block of
    ascending days finds the events first counted within it with one
    ``searchsorted`` and costs one ``bincount`` over them and one
    ``cumsum`` down its rows, over the bins they touch, on top of the
    counts carried from the previous query if that ended no later, else of
    none, so a query before the previous one recounts from the first
    event. The state is one tuple, replaced whole, so a table may be read
    from several threads.
    """

    def __init__(self, first: np.ndarray, bins: np.ndarray) -> None:
        # whether in first-day order, the first day >= 0 and bin of each
        # event, the last day counted, and its counts
        self._state = False, first, bins, -1, np.zeros(0, np.int64)

    def counts(self, t: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The counts at the ascending non-empty days t, written to and
        returned as ``out``, an int64 array of shape (t.size, width), and
        each row's total. Each event counted by t[-1] has a bin below
        ``width``, which grows with t[-1] from one query to the next."""
        ordered, first, bins, day, carried = self._state
        if not ordered:
            if t.size == 1 and day < 0:
                # Sorting here too made a final-day study of about 20.8k
                # deaths a replicate 15% slower: its calling thread spent
                # 0.35-0.45 ms more CPU per replicate.
                counted = bins[first <= t[0]]
                out[0] = np.bincount(counted, minlength=out.shape[1])
                self._state = False, first, bins, int(t[0]), out[0].copy()
                return out, np.array([counted.size])
            days = int(first.max()) + 1 if first.size else 0
            shift = int(bins.max(initial=0)).bit_length()
            if days << shift < 1 << 32:
                keys = first.astype(np.uint32) << shift | bins.astype(np.uint32)
                keys.sort()
                # Shifted straight into int64: ``(keys >> shift).astype()``
                # read 0.11 MB more peak RSS on ``study-estimated``.
                first = np.right_shift(keys, shift, dtype=np.int64)
                bins = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
            else:
                order = np.argsort(first)
                first, bins = first[order], bins[order]
        if day > t[0]:
            day, carried = -1, carried[:0]
        # The events counted by the carried day and by each day t_i.
        ends = np.searchsorted(first, np.concatenate(([day], t)), side="right")
        out[:, : carried.size] = carried
        out[:, carried.size :] = 0
        if ends[-1] > ends[0]:
            new = bins[ends[0] : ends[-1]]
            lo, span = int(new.min()), int(new.max() - new.min()) + 1
            rows = np.repeat(np.arange(t.size), ends[1:] - ends[:-1])
            step = np.bincount(rows * span + (new - lo), minlength=t.size * span)
            step = step.reshape(t.size, span)
            out[:, lo : lo + span] += np.cumsum(step, axis=0, out=step)
        self._state = True, first, bins, int(t[-1]), out[-1].copy()
        return out, ends[1:]


class EpidemicTable:
    """Daily confirmed-case counts plus the deaths of each day's cases.

    ``cases[d]`` counts cases confirmed on day d. Each death is held as one
    event, its confirmation day d and its lag k (days from confirmation to
    death), beside each day's death total, which may be less than
    ``cases[d]``: the remainder survived or is unresolved. The running
    totals are built with the table, the dense (day, lag) table of counts
    ``deaths[d, k]`` and the cohort counter of ``observed_deaths`` on first
    access; the estimators count the events per block of evaluation days,
    so their memory is O(deaths + block x days). The table is immutable and
    its arrays frozen: ``cases`` is a copy, or a scenario's shared curve.
    """

    def __init__(self, cases, deaths) -> None:
        """A table from a (day, lag) count table with one row per day of ``cases``."""
        cases, deaths = _day_counts(cases), _whole(deaths, "deaths")
        if deaths.ndim != 2:
            raise ValueError("deaths must be two-dimensional")
        if deaths.shape[0] != cases.shape[0]:
            raise ValueError("deaths must have one row per day in cases")
        if np.any(deaths < 0):
            raise ValueError("counts must be non-negative")
        day, lag = np.nonzero(deaths)
        count = deaths[day, lag]
        self._set(cases, np.repeat(day, count), np.repeat(lag, count), deaths.shape[1])

    @classmethod
    def _from_events(
        cls, cases: np.ndarray, day: np.ndarray, lag: np.ndarray, width: int | None = None
    ) -> "EpidemicTable":
        """A table from inputs the caller checked: non-negative int64 daily
        ``cases`` and one confirmation day and one lag per death, all kept
        and frozen; days index ``cases`` and lags are non-negative.
        ``max_lag`` is ``width - 1``, by default the largest lag."""
        table = cls.__new__(cls)
        table._set(cases, day, lag, width)
        return table

    def _set(self, cases: np.ndarray, day: np.ndarray, lag: np.ndarray, width: int | None):
        totals = np.bincount(day, minlength=cases.size)
        if np.any(totals > cases):
            raise ValueError("more deaths than confirmed cases on some day")
        width = int(lag.max(initial=0)) + 1 if width is None else width
        derived = dict(_totals=totals, _cum_cases=np.cumsum(cases), _cum_totals=np.cumsum(totals))
        for array in (cases, day, lag, *derived.values()):
            array.setflags(write=False)
        vars(self).update(derived, cases=cases, _day=day, _lag=lag, _width=max(width, 1))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"EpidemicTable is immutable: cannot set {name!r}")

    @classmethod
    def from_sparse(
        cls, cases: Sequence[int], lag_counts: Mapping[int, Mapping[int, int]]
    ) -> "EpidemicTable":
        """Build a table from per-day ``{lag: count}`` mappings.

        Raises:
            ValueError: a day outside 0..len(cases) - 1, a negative lag or
                count, or a day, lag or count that is no whole number, which
                names the day, the lag or the deaths.
        """
        cases = _day_counts(cases)
        cells = []
        for d, row in lag_counts.items():
            d = _table_day(d, cases.size, "day")
            for k, count in row.items():
                cells.append((d, _index(k, "lag", f"negative lag {{value}} on day {d}"), count))
        day, lag, count = _whole(np.reshape(cells, (-1, 3)), "deaths").T
        if np.any(count < 0):
            raise ValueError("counts must be non-negative")
        width = int(lag.max()) + 1 if lag.size else 1
        return cls._from_events(cases, np.repeat(day, count), np.repeat(lag, count), width)

    @property
    def n_days(self) -> int:
        return int(self.cases.shape[0])

    @property
    def max_lag(self) -> int:
        return self._width - 1

    @property
    def total_cases(self) -> int:
        return int(self.cases.sum())

    @property
    def total_deaths(self) -> int:
        return int(self._day.size)

    @cached_property
    def deaths(self) -> np.ndarray:
        """Dense (n_days, max_lag + 1) table: ``deaths[d, k]`` counts cases
        confirmed on day d that died exactly k days later."""
        width = self._width
        cells = np.bincount(self._day * width + self._lag, minlength=self.n_days * width)
        deaths = cells.reshape(self.n_days, width)
        deaths.setflags(write=False)
        return deaths

    @cached_property
    def _by_cohort(self) -> _Running:
        """Each death counted by cohort from its death day on."""
        return _Running(self._day + self._lag, self._day)

    def _observed(self, t: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """``deaths_by(d, t_i)`` at each of the ascending days t (rows) of
        the cohorts d = 0..min(t[-1], n_days - 1) (columns), written to
        ``out`` if given, and the deaths observed by each day t_i. A cohort
        after t_i has no death by t_i, so it reads 0 in row i."""
        if out is None:
            out = np.empty((t.size, min(int(t[-1]), self.n_days - 1) + 1), np.int64)
        return self._by_cohort.counts(t, out)

    def _eligible_lags(self, t: np.ndarray, lookback: int, width: int | None = None) -> np.ndarray:
        """Deaths at each lag k (columns, ``width``, by default max_lag + 1)
        that are eligible at each of the ascending days t (rows): cohort d
        at most min(t_i - lookback, n_days - 1), and dead by t_i, so
        d <= t_i - k. That is every death from day d + max(k, lookback) on.
        No lag past t[-1] is eligible by then, so t[-1] + 1 columns hold
        them all."""
        held = vars(self).get("_lag_events")
        if held is None or held[0] != lookback:
            # Shifted by lookback, as are the days t, so that the first days
            # stay below n_days + width whatever the lookback.
            first = self._day + np.maximum(self._lag - lookback, 0)
            held = lookback, _Running(first, self._lag)
            vars(self)["_lag_events"] = held  # the last lookback's only
        width = self._width if width is None else width
        return held[1].counts(t - lookback, np.empty((t.size, width), np.int64))[0]

    def cumulative_cases(self, t: int) -> int:
        """Total cases confirmed on days 0..t, a day of the table."""
        return int(self._cum_cases[_table_day(t, self.n_days, "t")])

    def deaths_by(self, d: int, t: int) -> int:
        """Cases confirmed on day d that died on or before day t: d is a
        day of the table and t a whole number >= d.

        Costs what ``observed_deaths(t)`` costs.
        """
        d = _table_day(d, self.n_days, "d")
        after = f"confirmation day {d} is after query day {{value}}"
        t = _index(t, "t", after)
        if d > t:
            raise ValueError(after.format(value=t))
        return int(self._observed(np.array([t]))[0][0, d])

    def observed_deaths(self, t: int) -> np.ndarray:
        """Vector of ``deaths_by(d, t)`` for d = 0..min(t, n_days - 1), t a
        whole number >= 0.

        A table's first query costs O(n_days + deaths), and the next one
        sorts the deaths, once. The counts then carry from one query to the
        next: a query no earlier than the previous one costs O(n_days) plus
        the deaths first seen since, an earlier one O(n_days + deaths).
        """
        return self._observed(np.array([_index(t, "t")]))[0][0]

    def final_deaths(self) -> np.ndarray:
        """Per-day counts of cases with a recorded death at any lag."""
        return self._totals.copy()

    def cumulative_final_deaths(self, t: int) -> int:
        """Cases confirmed on days 0..t, a day of the table, with a recorded
        death at any lag."""
        return int(self._cum_totals[_table_day(t, self.n_days, "t")])


def aggregate(linelist: LineList) -> EpidemicTable:
    """The daily case counts and death events of a line list: its table,
    which spans days 0..max confirmation day, so the total over ``cases``
    equals the number of rows."""
    return linelist.table


def _fold(pieces: Iterable[Sequence[np.ndarray]]) -> EpidemicTable:
    """The table of the (confirm, death) day pieces of a line list, its
    death events in row order, holding O(deaths + days + one piece):
    confirmations are counted per day as each piece comes."""
    cases, days, lags = np.zeros(0, np.int64), [], []
    for confirm, death in pieces:
        counts = np.bincount(confirm, minlength=cases.size)
        counts[: cases.size] += cases
        cases = counts
        died = death >= 0
        days.append(confirm[died])
        lags.append(death[died] - days[-1])
    day = np.concatenate([np.zeros(0, np.int64), *days])
    lag = np.concatenate([np.zeros(0, np.int64), *lags])
    return EpidemicTable._from_events(cases, day, lag)
