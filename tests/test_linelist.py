"""Parsing and aggregation: line-number errors, recount oracles, caching."""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfrkit.estimators as est
import cfrkit.linelist as linelist_module
from cfrkit import (
    CaseRecord,
    DelaySample,
    EpidemicTable,
    LineList,
    ParseError,
    aggregate,
    parse_csv,
)

EPOCH = date(2020, 3, 3)


# ---------------------------------------------------------------------------
# CaseRecord / LineList


def test_record_lag():
    assert CaseRecord(3, 7).lag == 4
    assert CaseRecord(3).lag is None
    assert CaseRecord(3, 3).lag == 0


def test_record_rejects_negative_day():
    with pytest.raises(ValueError):
        CaseRecord(-1)


def test_record_rejects_death_before_confirmation():
    with pytest.raises(ValueError):
        CaseRecord(5, 4)


def test_linelist_iteration():
    ll = LineList.from_records((CaseRecord(0), CaseRecord(1, 2)))
    assert len(ll) == 2
    assert [r.confirm_day for r in ll] == [0, 1]


def test_linelist_columns_round_trip_records():
    records = (CaseRecord(4, 9), CaseRecord(0), CaseRecord(2, 2))
    ll = LineList.from_records(records, epoch=EPOCH)
    assert ll.confirm.tolist() == [4, 0, 2]
    assert ll.death.tolist() == [9, -1, 2]
    assert ll.lags.tolist() == [5, 0]
    assert tuple(ll) == records
    assert ll.epoch == EPOCH
    with pytest.raises(ValueError):
        ll.confirm[0] = 1


def test_linelist_validation():
    with pytest.raises(ValueError, match="equally long"):
        LineList([0, 1], [-1])
    with pytest.raises(ValueError, match="non-negative"):
        LineList([-1], [-1])
    with pytest.raises(ValueError, match="on or after"):
        LineList([5], [4])
    with pytest.raises(ValueError, match="on or after"):
        LineList([0], [-2])


# ---------------------------------------------------------------------------
# parse_csv


def test_parse_iso_dates():
    text = "confirm_date,death_date\n2020-03-03,2020-03-10\n2020-03-05,\n"
    ll = parse_csv(text, epoch=EPOCH)
    assert ll.epoch == EPOCH
    assert [(r.confirm_day, r.death_day) for r in ll] == [(0, 7), (2, None)]


def test_parse_bare_day_indices_need_no_epoch():
    ll = parse_csv("confirm_date,death_date\n0,4\n2,\n")
    assert [(r.confirm_day, r.death_day) for r in ll] == [(0, 4), (2, None)]


def test_parse_extra_columns_and_any_order():
    text = "id,death_date,confirm_date\na,,3\nb,6,4\n"
    ll = parse_csv(text)
    assert [(r.confirm_day, r.death_day) for r in ll] == [(3, None), (4, 6)]


def test_parse_skips_blank_and_comment_lines():
    # A quote inside a comment's field is plain text and opens nothing.
    text = 'confirm_date,death_date\n\n# note\n# batch "B" from lab, "x\n1,\n'
    assert len(parse_csv(text)) == 1


# The last lead starts with a byte-order mark, as Excel's "CSV UTF-8" export writes one.
@pytest.mark.parametrize(
    "lead", ["# exported 2020-10-01\n\n", "\n  # note\n,,\n", "\r\n#\r\n", "\ufeff# exported\n"]
)
def test_parse_skips_blank_and_comment_lines_before_the_header(lead):
    rows = "1,\n2,5\n3,x\n"
    with pytest.raises(ParseError, match=f"line {lead.count(chr(10)) + 4}: invalid death_date"):
        parse_csv(lead + "confirm_date,death_date\n" + rows)
    ll = parse_csv(lead + "confirm_date,death_date\n" + rows[:-4])
    assert [(r.confirm_day, r.death_day) for r in ll] == [(1, None), (2, 5)]


def test_parse_names_the_header_line_after_comments():
    with pytest.raises(ParseError, match="line 3: header must contain"):
        parse_csv("# exported\n\nwhen,outcome\n1,2\n")
    with pytest.raises(ParseError, match="line 1: missing header row"):
        parse_csv("# no header\n\n")


def test_parse_reads_blocks_after_a_leading_comment(monkeypatch):
    """The lines before a header with no quote leave the blocks after it to
    numpy."""
    taken = []
    block_days = linelist_module._block_days

    def spy(*args):
        parsed = block_days(*args)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(linelist_module, "_block_days", spy)
    text = "# exported 2020-10-01\n\nconfirm_date,death_date\n" + "1,\n2,5\n" * 100
    ll = parse_csv(io.BytesIO(text.encode()))
    assert len(ll) == 200 and taken == [True]


def test_parse_reads_blocks_after_a_quoted_header(monkeypatch):
    """A header quoted as R's write.csv quotes it, over unquoted rows,
    leaves the blocks after it to numpy; a quoted line break in the header
    still counts in the line a bad row names."""
    taken = []
    block_days = linelist_module._block_days

    def spy(*args):
        parsed = block_days(*args)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(linelist_module, "_block_days", spy)
    text = '"confirm_date","death_date"\n' + "1,\n2,5\n" * 100
    ll = parse_csv(io.BytesIO(text.encode()))
    assert len(ll) == 200 and taken == [True]
    text = '"confirm_date","death_date","note\nmore"\n' + "1,,a\n2,5,b\n" * 3 + "3,1,c\n"
    with pytest.raises(ParseError, match=r"^death precedes confirmation at line 9$"):
        parse_csv(io.BytesIO(text.encode()))
    assert taken == [True, False]


def test_parse_crlf():
    text = "confirm_date,death_date\r\n1,2\r\n"
    assert [(r.confirm_day, r.death_day) for r in parse_csv(text)] == [(1, 2)]


def test_parse_accepts_iterable_of_lines():
    lines = ["confirm_date,death_date\n", "1,3\n"]
    assert len(parse_csv(lines)) == 1


def test_parse_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_csv("when,outcome\n1,2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_csv("")


def test_parse_bad_value_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_csv("confirm_date,death_date\n1,\nnonsense,\n")


def test_parse_date_without_epoch():
    with pytest.raises(ParseError, match="epoch"):
        parse_csv("confirm_date,death_date\n2020-03-03,\n")


def test_parse_negative_day():
    with pytest.raises(ParseError, match="before day 0"):
        parse_csv("confirm_date,death_date\n-2,\n")
    with pytest.raises(ParseError, match="before day 0"):
        parse_csv("confirm_date,death_date\n2020-03-01,\n", epoch=EPOCH)


def test_parse_death_before_confirmation_names_line():
    text = "confirm_date,death_date\n1,5\n7,3\n"
    with pytest.raises(ParseError, match="death precedes confirmation at line 3"):
        parse_csv(text)


def test_parse_empty_confirm():
    with pytest.raises(ParseError, match="empty confirm_date"):
        parse_csv("confirm_date,death_date\n,4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # Both cells were parsed on earlier rows.
        ("1,5\n7,\n7,5\n", "death precedes confirmation at line 4"),
        # A confirm cell seen before comes back as a death cell.
        ("5,\n1,6\n5,1\n", "death precedes confirmation at line 4"),
        # A blank cell seen before as "no death" comes back as a confirm cell.
        ("1,\n2,\n,4\n", "line 4: empty confirm_date"),
        # A valid confirm cell seen before, then a bad death cell.
        ("1,\n1,x\n", "line 3: invalid death_date 'x'"),
        ("1,\n1,-3\n", "line 3: death_date '-3' falls before day 0"),
        # The first bad row wins over a later one.
        ("3,\n3,1\n,\n,2\n", "death precedes confirmation at line 3"),
    ],
)
def test_parse_errors_after_cached_cells(text, message):
    with pytest.raises(ParseError, match=message):
        parse_csv("confirm_date,death_date\n" + text)


def test_parse_skips_comment_rows_whose_cells_were_seen():
    text = "note,confirm_date,death_date\na,1,2\n# b,1,2\n  #c,1,2\n,,\na#d,1,\n"
    ll = parse_csv(text)
    assert [(r.confirm_day, r.death_day) for r in ll] == [(1, 2), (1, None)]


@pytest.mark.parametrize(
    "rows, line",
    [
        # The open quote would swallow the rows after it.
        ('0,3\n1,\n#,"batch from lab B\n2,5\n3,\n4,\n', 4),
        ('#,"batch from lab B\n0,3\n1,\n2,5\n3,\n4,\n', 2),
        # A quote that closes on a later line spans lines too.
        ('0,3\n#,"batch\nfrom lab B"\n1,\n', 3),
    ],
)
def test_parse_rejects_comment_with_quoted_line_break(rows, line):
    with pytest.raises(ParseError, match=f"line {line}: comment row holds a quoted line break"):
        parse_csv("confirm_date,death_date\n" + rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        # A quote opened in a data cell and left open to the end of the input.
        ('0,"3\n1,\n2,\n', "line 2: invalid death_date"),
        # A quote that closes on the next line, before a bad cell.
        ('1,\n"5\n",x\n', "line 3: invalid death_date 'x'"),
        # A cell ending in a line break, then one more record.
        ('0,"x\n"\n1,\n', "line 2: invalid death_date 'x'"),
        ('1,\n"5\n",\n"5\n",2\n', "death precedes confirmation at line 5"),
        # Both cells cached, so the row takes the fast path to its error.
        ('2,\n"5\n",\n"5\n",2\n', "death precedes confirmation at line 5"),
        ('1,\n"\n",4\n', "line 3: empty confirm_date"),
        # The input's last record, with its quote closed on the last line.
        ('0,"x\n"\n', "line 2: invalid death_date 'x'"),
        ('1,\n0,"x\n"', "line 3: invalid death_date 'x'"),
    ],
)
def test_parse_error_names_first_line_of_multiline_record(rows, message):
    with pytest.raises(ParseError, match=message):
        parse_csv("confirm_date,death_date\n" + rows)


@pytest.mark.parametrize(
    "rows, line",
    [
        # A bare carriage return inside an unquoted field of a str input.
        ("1,\n1,\r2\n", 3),
        # The same on the second line of a quoted record.
        ('1,\n"2\n",3\r4\n', 3),
    ],
)
def test_parse_csv_module_error_names_record_start(rows, line):
    with pytest.raises(ParseError, match=f"^line {line}: new-line character seen"):
        parse_csv("confirm_date,death_date\n" + rows)


def test_parse_rejects_day_past_max_day(monkeypatch):
    monkeypatch.setattr(linelist_module, "MAX_DAY", 10)
    assert len(parse_csv("confirm_date,death_date\n10,10\n")) == 1
    with pytest.raises(ParseError, match="line 3: death_date '11' is day 11, past the last day 10"):
        parse_csv("confirm_date,death_date\n0,\n0,11\n")
    with pytest.raises(ParseError, match="line 2: confirm_date '2020-03-14' is day 11"):
        parse_csv("confirm_date,death_date\n2020-03-14,\n", epoch=EPOCH)


def test_parse_rejects_typo_year():
    # Fails in the parse, before any table is sized from the day.
    last = EPOCH + timedelta(days=linelist_module.MAX_DAY)
    assert len(parse_csv(f"confirm_date,death_date\n{last},\n", epoch=EPOCH)) == 1
    with pytest.raises(ParseError, match="line 3: death_date '2202-03-20'"):
        parse_csv(
            "confirm_date,death_date\n2020-03-10,\n2020-03-10,2202-03-20\n", epoch=EPOCH
        )


# ---------------------------------------------------------------------------
# EpidemicTable


def test_table_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        EpidemicTable(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="one row per day"):
        EpidemicTable([1, 2], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        EpidemicTable([-1], np.zeros((1, 1)))
    with pytest.raises(ValueError, match="more deaths than confirmed"):
        EpidemicTable([1], [[2]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: EpidemicTable([1, 1], [1, 0]), ValueError, "deaths must be two-dimensional"),
        (lambda: EpidemicTable([1], [[-1]]), ValueError, "counts must be non-negative"),
        (lambda: EpidemicTable.from_sparse([2], {0: {1: -1}}), ValueError,
         "counts must be non-negative"),
        (lambda: setattr(EpidemicTable([1], [[0]]), "cases", [2]), AttributeError,
         "EpidemicTable is immutable: cannot set 'cases'"),
        (lambda: EpidemicTable([1], [[0]]).observed_deaths(-1), ValueError,
         "t must be non-negative"),
    ],
    ids=["deaths-1d", "deaths-negative", "sparse-count-negative", "set-attribute",
         "observed-negative-t"],
)
def test_input_checks_raise_their_messages(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_table_is_immutable_and_copies_input():
    src = np.array([3, 2], dtype=np.int64)
    table = EpidemicTable(src, np.zeros((2, 1), dtype=np.int64))
    src[0] = 99
    assert table.cases[0] == 3
    with pytest.raises(ValueError):
        table.cases[0] = 5


def test_table_counts():
    table = EpidemicTable.from_sparse([5, 3, 4], {0: {0: 1, 2: 2}, 2: {1: 1}})
    assert table.n_days == 3
    assert table.max_lag == 2
    assert table.total_cases == 12
    assert table.total_deaths == 4
    assert table.cumulative_cases(0) == 5
    assert table.cumulative_cases(2) == 12
    assert list(table.final_deaths()) == [3, 0, 1]
    assert [table.cumulative_final_deaths(t) for t in range(3)] == [3, 3, 4]
    with pytest.raises(ValueError, match="outside table"):
        table.cumulative_final_deaths(3)


def test_deaths_by_hand_example():
    # Day 0: one death at lag 0, two at lag 2.
    table = EpidemicTable.from_sparse([5, 3], {0: {0: 1, 2: 2}})
    assert table.deaths_by(0, 0) == 1
    assert table.deaths_by(0, 1) == 1
    assert table.deaths_by(0, 2) == 3
    assert table.deaths_by(0, 100) == 3
    assert table.deaths_by(1, 1) == 0


def test_deaths_by_domain_errors():
    table = EpidemicTable.from_sparse([5, 3], {})
    with pytest.raises(ValueError, match="after query day"):
        table.deaths_by(1, 0)
    with pytest.raises(ValueError, match="outside table"):
        table.deaths_by(2, 5)
    with pytest.raises(ValueError, match="outside table"):
        table.cumulative_cases(2)


def test_observed_deaths_matches_per_day_queries():
    table = EpidemicTable.from_sparse([4, 4, 4], {0: {1: 2}, 1: {0: 1}, 2: {2: 1}})
    for t in range(6):
        expected = [table.deaths_by(d, t) for d in range(min(t, 2) + 1)]
        assert table.observed_deaths(t).tolist() == expected


@pytest.mark.parametrize(
    "lag_counts, message",
    [
        ({0: {3: 1, -1: 2}}, r"^negative lag -1 on day 0$"),
        ({-1: {0: 1}}, r"^day -1 outside table \(0\.\.1\)$"),
        ({2: {0: 1}}, r"^day 2 outside table \(0\.\.1\)$"),
    ],
)
def test_from_sparse_rejects_days_and_lags_outside_the_table(lag_counts, message):
    with pytest.raises(ValueError, match=message):
        EpidemicTable.from_sparse([5, 5], lag_counts)


@pytest.mark.parametrize(
    "build, name, value",
    [
        (lambda: EpidemicTable(np.array([3.7, 2.0]), np.zeros((2, 1))), "cases", "3.7"),
        (lambda: EpidemicTable([3, 2], np.array([[1.5], [0.2]])), "deaths", "1.5"),
        (lambda: EpidemicTable([3, 2], np.array([[np.nan], [0.0]])), "deaths", "nan"),
        (lambda: EpidemicTable([np.inf], [[0]]), "cases", "inf"),
        (lambda: EpidemicTable.from_sparse([3, 2], {0: {1: 0.5}}), "deaths", "0.5"),
        (lambda: LineList([0.5, 2.9], [-1, 3.2]), "confirmation days", "0.5"),
        (lambda: LineList([0, 2], [-1, 3.2]), "death days", "3.2"),
    ],
)
def test_counts_and_days_must_be_finite_whole_numbers(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite whole numbers, got {value}$"):
        build()


def test_whole_floats_are_kept():
    table = EpidemicTable(np.array([3.0, 2.0]), np.array([[1.0], [0.0]]))
    assert table.cases.tolist() == [3, 2] and table.deaths.tolist() == [[1], [0]]
    assert LineList([0.0, 2.0], [-1.0, 3.0]).death.tolist() == [-1, 3]


@st.composite
def _event_queries(draw):
    """A small table built three ways, ascending days with gaps and past its
    end, a lookback (0, past the table, or any), and a block size: 1, 7 or
    the kernel's ``_BLOCK``. Some tables hold lags past 2**16, whose lag
    events do not fit 32-bit packed keys and take the argsort path."""
    n_days = draw(st.integers(1, 9))
    width = draw(st.integers(1, 14))  # lags may run past the table's last day
    far = draw(st.sampled_from([None, 1 << 16 | 5]))
    lags = st.integers(0, width - 1)
    if far is not None:
        lags, width = lags | st.just(far), far + 1
    cases = draw(st.lists(st.integers(0, 4), min_size=n_days, max_size=n_days))
    deaths = np.zeros((n_days, width), dtype=np.int64)
    for d, count in enumerate(cases):  # rows may be empty
        for k in draw(st.lists(lags, max_size=count)):
            deaths[d, k] += 1
    build = draw(st.sampled_from(["dense", "sparse", "aggregate"]))
    # max_lag: the dense table's last column, else the largest lag of a death.
    died_at = np.flatnonzero(deaths.any(axis=0))
    max_lag = width - 1 if build == "dense" else int(died_at.max(initial=0))
    if build == "dense":
        table = EpidemicTable(cases, deaths)
    elif build == "sparse":
        cells = [{k: int(row[k]) for k in np.flatnonzero(row).tolist()} for row in deaths]
        table = EpidemicTable.from_sparse(cases, dict(enumerate(cells)))
    else:
        lags = [np.repeat(np.arange(width), row).tolist() for row in deaths]
        records = [CaseRecord(d, d + k) for d in range(n_days) for k in lags[d]]
        records += [CaseRecord(d) for d in range(n_days) for _ in range(cases[d] - len(lags[d]))]
        table = aggregate(LineList.from_records(records or [CaseRecord(0)]))
    day = st.integers(0, n_days + 16)
    if far is not None:  # and days that count the far lags
        day |= st.integers(far, far + n_days + 16)
    days = sorted(set(draw(st.lists(day, min_size=1, max_size=12))))
    lookback = draw(st.one_of(st.just(0), st.just(n_days + 3), st.integers(0, 20)))
    block = draw(st.sampled_from([1, 7, est._BLOCK]))
    return table, deaths, max_lag, np.array(days), lookback, block


@given(_event_queries())
@settings(max_examples=300, deadline=None)
def test_event_queries_match_the_dense_table(case):
    """Every query the table answers from its death events equals its
    definition on the dense (day, lag) table, computed with np.cumsum, in
    any order of blocks, and so do the deaths observed by each day, the
    row totals of the death-event counter."""
    table, deaths, max_lag, days, lookback, block = case
    assert table.max_lag == max_lag
    n, width = table.n_days, max_lag + 1
    dense = table.deaths
    assert dense.shape == (n, width) and np.array_equal(dense, deaths[:n, :width])
    assert not deaths[:n, width:].any() and not deaths[n:].any()
    cum_lag, cum_day = np.cumsum(dense, axis=1), np.cumsum(dense, axis=0)

    def grid(t):
        cols = min(t[-1], n - 1) + 1
        d = np.arange(cols)
        lag = np.minimum(np.maximum(t[:, None] - d, 0), width - 1)
        return np.where(d <= t[:, None], cum_lag[d, lag], 0)

    def lag_counts(t):
        k = np.arange(width)
        last = np.minimum(np.minimum(t - lookback, n - 1)[:, None], t[:, None] - k)
        return np.where(last >= 0, cum_day[np.maximum(last, 0), k], 0)

    # A first query of the last day, which the counter answers unsorted;
    # then sorted: every day, from before the day it carries, the last day
    # again, carried, and the first, before it.
    for i, t in enumerate((days[-1:], days, days[-1:], days[:1])):
        counts, totals = table._observed(t)
        assert table._by_cohort._state[0] == (i > 0)
        assert np.array_equal(counts, grid(t))
        assert np.array_equal(totals, grid(t).sum(axis=1))
    # Blocks in order, again one day at a time, then in order once more; the
    # grids with new arrays, and in arrays that earlier blocks wrote.
    work = est._Buffers(12 * 9)  # at most 12 days by 9 cohorts
    for size in (block, 1, block):
        for i in range(0, days.size, size):
            t = days[i : i + size]
            for c in (est._cohorts(table, t), est._cohorts(table, t, work)):
                assert np.array_equal(c.deaths, grid(t))
                assert np.array_equal(c.dead, grid(t).sum(axis=1))
            assert np.array_equal(table._eligible_lags(t, lookback), lag_counts(t))
    for t in days.tolist():
        assert np.array_equal(table.observed_deaths(t), grid(np.array([t]))[0])
        for d in range(min(t, n - 1) + 1):
            assert table.deaths_by(d, t) == cum_lag[d, min(t - d, width - 1)]
        if t < n:
            assert table.cumulative_final_deaths(t) == dense[: t + 1].sum()
    assert np.array_equal(table.final_deaths(), dense.sum(axis=1))
    assert table.total_deaths == dense.sum()


@st.composite
def _running_queries(draw):
    """Events and blocks of ascending query days for ``_Running``, each
    block with the width its counts need. First days run from 0 and, unless
    ``far`` is 0, from ``far``: 2**28 keeps the 32-bit packed keys, 2**32
    and 2**35 pass them and take the argsort path, as do bins past 2**32,
    whose events count only after every query day. Days run below 0, and
    the first block comes again last, so a block may start before the
    carried day."""
    far = draw(st.sampled_from([0, 1 << 28, 1 << 32, 1 << 35]))
    near = st.integers(0, 12)
    first_day = near | near.map(lambda d: far + d) if far else near
    events = draw(st.lists(st.tuples(first_day, st.integers(0, 6)), max_size=40))
    last = far + 16
    if draw(st.booleans()):
        wide = st.tuples(st.integers(last + 1, last + 9), st.integers(1 << 32, (1 << 32) + 9))
        events += draw(st.lists(wide, min_size=1, max_size=3))
    first, bins = np.array(events, dtype=np.int64).reshape(-1, 2).T
    day = st.integers(-5, 16)
    if far:
        day |= st.integers(far - 5, last)
    blocks = draw(st.lists(st.sets(day, min_size=1, max_size=6), min_size=1, max_size=4))
    blocks = [sorted(block) for block in blocks + blocks[:1]]
    # Each block's width is the bins counted by its last day, plus a spare
    # column or two, so it grows with the last day as counts() requires.
    spare = draw(st.integers(0, 2))
    widths = [int(bins[first <= t[-1]].max(initial=-1)) + 1 + spare for t in blocks]
    return first, bins, list(zip(blocks, widths))


_FAR = 1 << 35


@given(_running_queries())
@example(
    (
        np.array([0, 3, 2 * _FAR + 4, 2, _FAR, 9, _FAR + 2, 2, _FAR + 7], dtype=np.int64),
        np.array([2, 0, _FAR + 3, 1, 4, 5, _FAR, 2, 3], dtype=np.int64),
        [([0, 2], 6), ([3, 9, 12], 6), ([1, 2], 6)],
    )
)
@settings(max_examples=300, deadline=None)
def test_running_counts_first_days_and_bins_past_2_35(case):
    """The counts and each row's total equal a brute-force count, block
    after block, in either sorted layout. In the hand example keys packed as
    first << shift | bin would pass 2**63 and wrap, and the counts would ask
    for 512 GiB."""
    first, bins, blocks = case
    running = linelist_module._Running(first, bins)
    for t, width in blocks:
        t = np.array(t, dtype=np.int64)
        want = [[np.sum((first <= day) & (bins == b)) for b in range(width)] for day in t]
        counts, totals = running.counts(t, np.empty((t.size, width), np.int64))
        assert counts.tolist() == want
        assert totals.tolist() == [np.sum(first <= day) for day in t]


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_hand_example():
    ll = LineList.from_records(
        (
            CaseRecord(0),
            CaseRecord(0, 2),
            CaseRecord(2, 2),
            CaseRecord(2),
            CaseRecord(4, 9),
        )
    )
    table = aggregate(ll)
    assert table.cases.tolist() == [2, 0, 2, 0, 1]
    assert table.deaths[0].tolist() == [0, 0, 1, 0, 0, 0]
    assert table.deaths[2].tolist() == [1, 0, 0, 0, 0, 0]
    assert table.deaths[4].tolist() == [0, 0, 0, 0, 0, 1]


def test_aggregate_empty():
    table = aggregate(LineList.from_records(()))
    assert table.n_days == 0
    assert table.total_cases == 0


def test_aggregate_conserves_record_count():
    rng = np.random.default_rng(7)
    records = []
    for _ in range(10_000):
        confirm = int(rng.integers(0, 120))
        if rng.random() < 0.03:
            records.append(CaseRecord(confirm, confirm + int(rng.integers(0, 40))))
        else:
            records.append(CaseRecord(confirm))
    table = aggregate(LineList.from_records(records))
    assert table.total_cases == 10_000
    assert table.total_deaths == sum(1 for r in records if r.death_day is not None)


record_strategy = st.builds(
    lambda c, lag: CaseRecord(c, c + lag if lag is not None else None),
    st.integers(0, 30),
    st.one_of(st.none(), st.integers(0, 10)),
)


@given(st.lists(record_strategy, min_size=1, max_size=60))
@settings(max_examples=100)
def test_aggregate_recount_oracle(records):
    """deaths_by and cumulative_cases agree with direct scans of the records."""
    table = aggregate(LineList.from_records(records))
    assert table.total_cases == len(records)
    t_checks = [0, 5, 17, 30, 45]
    for t in t_checks:
        for d in range(0, min(t, table.n_days - 1) + 1):
            direct = sum(
                1
                for r in records
                if r.confirm_day == d and r.death_day is not None and r.death_day <= t
            )
            assert table.deaths_by(d, t) == direct
        if t < table.n_days:
            assert table.cumulative_cases(t) == sum(
                1 for r in records if r.confirm_day <= t
            )


@given(st.lists(record_strategy, min_size=1, max_size=40))
@settings(max_examples=60)
def test_observed_deaths_sum_is_monotone_in_t(records):
    table = aggregate(LineList.from_records(records))
    totals = [int(table.observed_deaths(t).sum()) for t in range(table.n_days + 12)]
    assert all(a <= b for a, b in zip(totals, totals[1:]))
    assert totals[-1] == table.total_deaths


@given(st.lists(record_strategy, min_size=1, max_size=60), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_aggregate_ignores_row_order(records, rnd):
    rows = [f"{r.confirm_day},{'' if r.death_day is None else r.death_day}" for r in records]
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    table = aggregate(parse_csv("\n".join(["confirm_date,death_date", *rows])))
    other = aggregate(parse_csv("\n".join(["confirm_date,death_date", *shuffled])))
    assert np.array_equal(table.cases, other.cases)
    assert np.array_equal(table.deaths, other.deaths)


# ---------------------------------------------------------------------------
# Columnar parse + aggregate against a record-wise oracle


def _blank_or_comment(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row) or row[0].lstrip().startswith("#")


def _oracle_parse(text: str, epoch: date) -> list[tuple[int, int | None]]:
    """Record-wise reference parse of valid input: (confirm, death) per row."""
    reader = csv.reader(io.StringIO(text))
    rows = (row for row in reader if not _blank_or_comment(row))
    names = [name.strip() for name in next(rows)]
    ci, di = names.index("confirm_date"), names.index("death_date")

    def day(raw: str) -> int:
        raw = raw.strip()
        try:
            return int(raw)
        except ValueError:
            return (date.fromisoformat(raw) - epoch).days

    records = []
    for row in rows:
        death_raw = row[di] if di < len(row) else ""
        records.append((day(row[ci]), day(death_raw) if death_raw.strip() else None))
    return records


def _oracle_table(records: list[tuple[int, int | None]]) -> tuple[list, list]:
    n = max((c for c, _ in records), default=-1) + 1
    width = max((d - c for c, d in records if d is not None), default=0) + 1
    cases = [0] * n
    deaths = [[0] * width for _ in range(n)]
    for c, d in records:
        cases[c] += 1
        if d is not None:
            deaths[c][d - c] += 1
    return cases, deaths


def _cell(day: int, style: str) -> str:
    if style == "iso":
        return (EPOCH + timedelta(days=day)).isoformat()
    if style == "padded":
        return f" {day} "
    return str(day)


cell_style = st.sampled_from(["index", "iso", "padded"])
data_row = st.tuples(
    st.integers(0, 40),
    st.one_of(st.none(), st.integers(0, 15)),
    cell_style,
    cell_style,
    st.sampled_from(["", "a", "#b", " #c", "d#", 'q"e', "f,g"]),
    st.lists(st.text(alphabet="xy,", max_size=3), max_size=2),
)
filler_line = st.sampled_from(["", "# comment, with a comma", "  # indented", ",,", " , , "])


@given(
    st.lists(filler_line, max_size=3),
    st.permutations(["note", "confirm_date", "death_date"]),
    st.lists(st.one_of(data_row, filler_line), min_size=1, max_size=40),
    st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    st.sampled_from(["\n", "\r\n"]),
)
@settings(max_examples=150)
def test_columnar_parse_matches_record_oracle(lead, header, lines, quoting, newline):
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=quoting, lineterminator=newline)
    buffer.writelines(line + newline for line in lead)
    writer.writerow(header)
    for line in lines:
        if isinstance(line, str):
            buffer.write(line + newline)
            continue
        confirm, lag, confirm_style, death_style, note, extra = line
        cells = {
            "note": note,
            "confirm_date": _cell(confirm, confirm_style),
            "death_date": (
                _cell(confirm + lag, death_style)
                if lag is not None
                else " " if death_style == "padded" else ""
            ),
        }
        writer.writerow([cells[name] for name in header] + extra)
    text = buffer.getvalue()

    expected = _oracle_parse(text, EPOCH)
    ll = parse_csv(text, epoch=EPOCH)
    assert [(r.confirm_day, r.death_day) for r in ll] == expected
    assert DelaySample.from_linelist(ll).lags.tolist() == [
        d - c for c, d in expected if d is not None
    ]
    cases, deaths = _oracle_table(expected)
    table = aggregate(ll)
    assert table.cases.tolist() == cases
    assert table.deaths.tolist() == deaths


# ---------------------------------------------------------------------------
# Block parse against the record-by-record loop


def _record_loop_parse(text, epoch=None) -> LineList:
    """``parse_csv`` as one loop over CSV records with no caching and no
    block path: the oracle for the block parse. A record starts on the
    line after the reader's line count before it is fetched."""
    stream = io.StringIO(text) if isinstance(text, str) else iter(text)
    reader = csv.reader(stream)

    def records():
        """(line, row) of each record that is neither blank nor a comment."""
        while True:
            line = reader.line_num + 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise ParseError(f"line {line}: {exc}") from None
            if not any(cell.strip() for cell in row):
                continue
            if row[0].lstrip().startswith("#"):
                if any("\n" in cell for cell in row):
                    raise ParseError(
                        f"line {line}: comment row holds a quoted line break, "
                        "which would swallow the lines after it"
                    )
                continue
            yield line, row

    rows = records()
    line, header = next(rows, (1, None))
    if header is None:
        raise ParseError("line 1: missing header row")
    names = [name.strip() for name in header]
    try:
        ci, di = names.index("confirm_date"), names.index("death_date")
    except ValueError:
        raise ParseError(
            f"line {line}: header must contain confirm_date and death_date columns"
        ) from None
    confirms, deaths = [], []
    for line, row in rows:
        confirm_raw = row[ci] if ci < len(row) else ""
        death_raw = row[di] if di < len(row) else ""
        if not confirm_raw.strip():
            raise ParseError(f"line {line}: empty confirm_date")
        try:
            confirm = linelist_module._parse_day(confirm_raw, epoch, "confirm_date")
            death = (
                linelist_module._parse_day(death_raw, epoch, "death_date")
                if death_raw.strip()
                else -1
            )
        except ParseError as exc:
            raise ParseError(f"line {line}: {exc}") from None
        if 0 <= death < confirm:
            raise ParseError(f"death precedes confirmation at line {line}")
        confirms.append(confirm)
        deaths.append(death)
    return LineList(confirms, deaths, epoch)


def _outcome(parse, data, epoch=EPOCH):
    """The day columns a parse returns, or the message of its ParseError."""
    try:
        ll = parse(data, epoch=epoch)
    except ParseError as exc:
        return str(exc)
    return ll.confirm.tolist(), ll.death.tolist()


def _assert_parse_matches_record_loop(data, epoch=EPOCH):
    text = data.decode() if isinstance(data, bytes) else data
    expected = _outcome(_record_loop_parse, text, epoch)
    got = _outcome(parse_csv, data, epoch)
    assert got == expected
    if not isinstance(got, str):
        ll = parse_csv(data, epoch=epoch)
        assert ll.confirm.dtype == ll.death.dtype == np.int64


# "{nl}" stands for the input's line ending.
_day_cell = st.sampled_from(["0", "1", "3", "12", "0007", "2020-03-05", "2024-02-29"])
_edge_cell = st.sampled_from(
    ["", "2020-02-30", "2021-02-29", "2020-04-31", "0999-01-01", "Córdoba"]
)
_valid_cell = st.one_of(_day_cell, st.sampled_from([" 4 ", '"2"']))
_other_cell = st.one_of(
    _edge_cell,
    st.sampled_from([" ", "x", "-2", "99999", '""', '"1{nl}"', '"{nl}2"', "7\r8", '"3"x', "a#b"]),
)
# "\u00a0# note" is a comment: str.lstrip strips the no-break space.
_other_line = st.sampled_from(
    ["", "  ", "\t", "# note", "\u00a0# note", "  # indented, 3", '# batch "B" from lab, "x']
    + ['#,"a{nl}b"', ",,"]
)


def _line_strategies(header: list[str]):
    """(lines of the block path, any line) under ``header``."""
    note = st.sampled_from(["", "a", "Córdoba", "Santiago del Estero", "AR00000000001"])

    def row(confirm, death):
        cells = {"note": note, "confirm_date": confirm, "death_date": death}
        return st.tuples(*(cells[name] for name in header)).map(",".join)

    # Digits or an ISO date, with no death before the confirmation.
    day_row = row(
        st.sampled_from(["0", "1", "3", "12", "0007", "2020-03-05"]),
        st.sampled_from(["", "", "12", "0012", "2024-02-29"]),
    )
    block_line = st.one_of(
        day_row,
        day_row,
        # As many cells as the header, where a day may be a bad date.
        st.lists(st.one_of(_day_cell, _edge_cell), min_size=len(header), max_size=len(header)).map(
            ",".join
        ),
        st.sampled_from(["", "# note", "#,x"]),
    )
    line = st.one_of(
        block_line,
        # A well-formed row, which may have its death before its confirmation.
        row(_valid_cell, st.one_of(_valid_cell, st.just(""))),
        # Anything: short, long, blank or bad cells.
        st.lists(st.one_of(_valid_cell, _other_cell), max_size=4).map(",".join),
        _other_line,
    )
    return block_line, line


@st.composite
def _line_lists(draw):
    """(input, epoch, chunk lines, block bytes, csv field limit) for a
    parse: a few blank or comment lines, the header, lines of the block
    path, then repeats of a few lines mixed with fresh ones, so blocks and
    chunks are cut anywhere and switch to the record loop anywhere."""
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lead = draw(st.lists(_other_line, max_size=2))
    header = draw(st.permutations(["note", "confirm_date", "death_date"]))
    header = header if draw(st.booleans()) else [name for name in header if name != "note"]
    block_line, line = _line_strategies(header)
    pool = draw(st.lists(line, min_size=1, max_size=5))
    lines = draw(st.lists(block_line, max_size=20))
    lines += draw(st.lists(st.one_of(st.sampled_from(pool), line), max_size=40))
    end = newline if draw(st.booleans()) else ""
    text = newline.join([*lead, ",".join(header), *lines]) + end
    text = text.replace("{nl}", newline)
    form = draw(st.sampled_from(["str", "bytes", "lines", "lines without ends"]))
    if form == "bytes":
        text = text.encode()
    elif form == "lines":
        text = text.splitlines(keepends=True)
    elif form == "lines without ends":
        text = text.splitlines()
    epoch = draw(st.sampled_from([EPOCH, np.datetime64("2020-03-03")]))
    chunk = draw(st.sampled_from([1, 2, 3, 4, linelist_module._CHUNK_LINES]))
    block = draw(st.sampled_from([1, 2, 5, 13, 40, linelist_module._BLOCK_BYTES]))
    # 8 stops the header; 12 lets it pass and stops a long note.
    limit = draw(st.sampled_from([None, 8, 12, 12]))
    return text, epoch, chunk, block, limit


def _fold_outcome(fold, data, epoch):
    """The cases, dense deaths and lags of a fold of ``data``, or the
    message of its ParseError."""
    try:
        table, lags = fold(data, epoch)
    except ParseError as exc:
        return str(exc)
    assert lags.dtype == np.int64
    return table.cases.tolist(), table.deaths.tolist(), lags.tolist()


def _stream_fold(data, epoch):
    return linelist_module._fold(linelist_module._case_days(data, epoch))


def _list_fold(data, epoch):
    linelist = parse_csv(data, epoch=epoch)
    return aggregate(linelist), linelist.lags


@given(_line_lists())
@settings(max_examples=500, deadline=None)
def test_chunked_parse_matches_record_loop(case):
    """The days, or the error message, equal those of the record loop, for
    every block and chunk size, so each path and each switch between them
    agree. Folding the day pieces as they stream, as the CLI does, gives
    the table and the lags, in row order, of ``aggregate(parse_csv(...))``,
    or its error, with pieces and record-loop flushes crossed anywhere."""
    data, epoch, chunk, block, limit = case
    old_limit = csv.field_size_limit(limit) if limit else None
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linelist_module, "_CHUNK_LINES", chunk)
            mp.setattr(linelist_module, "_BLOCK_BYTES", block)
            _assert_parse_matches_record_loop(data, epoch)
            assert _fold_outcome(_stream_fold, data, epoch) == _fold_outcome(_list_fold, data, epoch)
    finally:
        if old_limit is not None:
            csv.field_size_limit(old_limit)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_streamed_fold_crosses_record_loop_flushes(chunk, monkeypatch):
    """A quoted file goes to the record loop from its header on, which
    yields a piece every ``chunk`` records; the fold of those pieces keeps
    the lags in row order and counts each day once."""
    monkeypatch.setattr(linelist_module, "_CHUNK_LINES", chunk)
    rows = [(d % 9, d % 9 + d % 4 if d % 3 else None) for d in range(40)]
    text = '"confirm_date","death_date"\r\n' + "".join(
        f'"{c}","{"" if d is None else d}"\r\n' for c, d in rows
    )
    pieces = list(linelist_module._case_days(text, None))
    assert [piece.shape[1] for piece in pieces] == [chunk] * (40 // chunk) + [40 % chunk]
    table, lags = linelist_module._fold(pieces)
    assert table.cases.tolist() == np.bincount([c for c, _ in rows]).tolist()
    assert lags.tolist() == [d - c for c, d in rows if d is not None]


@pytest.mark.parametrize(
    "tail",
    [
        # A quoted cell after the first full blocks and chunk.
        '"5",\n6,"7\n"\n',
        # Distinct lines, which blocks take as well.
        "".join(f"{day},\n" for day in range(3000)),
    ],
)
@pytest.mark.parametrize("last", ["9,\n", "9,2\n"])
def test_parse_switches_to_record_loop_after_a_full_chunk(tail, last, monkeypatch):
    monkeypatch.setattr(linelist_module, "_BLOCK_BYTES", 4096)  # several blocks before the tail
    text = "confirm_date,death_date\n# rows\n" + "1,\n2,3\n" * 3000 + tail + last
    _assert_parse_matches_record_loop(text)
    _assert_parse_matches_record_loop(text.splitlines(keepends=True))
