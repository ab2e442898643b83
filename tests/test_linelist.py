"""Parsing and aggregation: line-number errors, recount oracles, caching."""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ('1,\n"5\n",\n"5\n",2\n', "death precedes confirmation at line 5"),
        # Both cells cached, so the row takes the fast path to its error.
        ('2,\n"5\n",\n"5\n",2\n', "death precedes confirmation at line 5"),
        ('1,\n"\n",4\n', "line 3: empty confirm_date"),
    ],
)
def test_parse_error_names_first_line_of_multiline_record(rows, message):
    with pytest.raises(ParseError, match=message):
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


def _oracle_parse(text: str, epoch: date) -> list[tuple[int, int | None]]:
    """Record-wise reference parse of valid input: (confirm, death) per row."""
    reader = csv.reader(io.StringIO(text))
    names = [name.strip() for name in next(reader)]
    ci, di = names.index("confirm_date"), names.index("death_date")

    def day(raw: str) -> int:
        raw = raw.strip()
        try:
            return int(raw)
        except ValueError:
            return (date.fromisoformat(raw) - epoch).days

    records = []
    for row in reader:
        if not any(cell.strip() for cell in row) or row[0].lstrip().startswith("#"):
            continue
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
    st.permutations(["note", "confirm_date", "death_date"]),
    st.lists(st.one_of(data_row, filler_line), min_size=1, max_size=40),
    st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    st.sampled_from(["\n", "\r\n"]),
)
@settings(max_examples=150)
def test_columnar_parse_matches_record_oracle(header, lines, quoting, newline):
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=quoting, lineterminator=newline)
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
