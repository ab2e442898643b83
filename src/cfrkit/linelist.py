"""Line-list ingestion and aggregation into daily case and death-lag counts."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

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


def parse_csv(text: str | Iterable[str], epoch: date | None = None) -> LineList:
    """Parse a line-list CSV into confirmation and death day columns.

    The header must name ``confirm_date`` and ``death_date`` columns. Values
    are ISO-8601 dates (converted against ``epoch`` as day 0) or bare
    non-negative day indices up to ``MAX_DAY``. An empty ``death_date`` means
    the case has no recorded death. Blank lines and lines starting with ``#``
    are skipped; a ``#`` line whose quote runs past its end is a ParseError,
    since the quoted field would swallow the lines after it.

    Each distinct raw cell is parsed once; later rows with the same cell reuse
    its day, so a large file costs one dict lookup per cell.

    Args:
        text: CSV content as a string or an iterable of lines.
        epoch: calendar date of day 0; required when any field is a date.

    Returns:
        LineList with one row per data row, in file order.

    Raises:
        ParseError: missing header columns, an unparseable, negative or
            out-of-range day, a death date before the confirmation date, or
            a comment with a quoted line break; messages name the line the
            offending record starts on.
    """
    stream = io.StringIO(text) if isinstance(text, str) else iter(text)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: missing header row") from None
    names = [name.strip() for name in header]
    try:
        confirm_col = names.index("confirm_date")
        death_col = names.index("death_date")
    except ValueError:
        raise ParseError(
            "line 1: header must contain confirm_date and death_date columns"
        ) from None

    # Raw cell -> day, shared by both columns; blank cells map to -1 (no death).
    days: dict[str, int] = {}

    def day_of(raw: str, column: str) -> int:
        day = days.get(raw)
        if day is None:
            day = _parse_day(raw, epoch, column) if raw.strip() else -1
            days[raw] = day
        return day

    def first_line(row: list[str]) -> int:
        """Line the record ``row`` starts on. Reads ahead, so call it only
        to raise: the reader's line count less the line breaks inside the
        cells, of which a quote left open at the end of the input keeps the
        input's last one."""
        breaks = sum(cell.count("\n") for cell in row)
        if breaks and row[-1].endswith("\n") and next(reader, None) is None:
            breaks -= 1
        return reader.line_num - breaks

    def parse_row(row: list[str]) -> tuple[int, int] | None:
        """Check and parse one row in full; None for a blank or comment row."""
        if not row or all(not cell.strip() for cell in row):
            return None
        if row[0].lstrip().startswith("#"):
            if any("\n" in cell for cell in row):
                raise ParseError(
                    f"line {first_line(row)}: comment row holds a quoted line break, "
                    "which would swallow the lines after it"
                )
            return None
        confirm_raw = row[confirm_col] if confirm_col < len(row) else ""
        if not confirm_raw.strip():
            raise ParseError(f"line {first_line(row)}: empty confirm_date")
        try:
            confirm = day_of(confirm_raw, "confirm_date")
            death = day_of(row[death_col] if death_col < len(row) else "", "death_date")
        except ParseError as exc:
            raise ParseError(f"line {first_line(row)}: {exc}") from None
        if 0 <= death < confirm:
            raise ParseError(f"death precedes confirmation at line {first_line(row)}")
        return confirm, death

    confirms: list[int] = []
    deaths: list[int] = []
    for row in reader:
        # Fast path: both cells seen before and the row is no comment. A cached
        # confirm day >= 0 comes from a non-blank cell, so the row is not blank.
        try:
            confirm = days[row[confirm_col]]
            death = days[row[death_col]]
        except (KeyError, IndexError):
            confirm = -1
        if confirm < 0 or ("#" in row[0] and row[0].lstrip().startswith("#")):
            parsed = parse_row(row)
            if parsed is None:
                continue
            confirm, death = parsed
        elif confirm > death >= 0:
            raise ParseError(f"death precedes confirmation at line {first_line(row)}")
        confirms.append(confirm)
        deaths.append(death)
    return LineList(confirms, deaths, epoch)


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
