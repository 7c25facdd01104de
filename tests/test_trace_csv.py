"""Trace-to-CSV rows: the text of each row, whatever the records share and
wherever a block ends."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from parbuck import TraceRecord
from parbuck.sim import STRETCH_RECORDS, Stretch
from parbuck.trace_csv import CSV_COLUMNS, trace_csv_rows

from stretches import expanded


def _row(r: TraceRecord) -> str:
    """One CSV row written field by field, with repr for every float."""
    return (
        f"{r.t!r},{r.iL1!r},{r.iL2!r},{r.Vo!r},{r.d1!r},{r.d2!r},{r.d2_dot!r},"
        f"{r.e!r},{r.e2!r},{r.V1_lyap!r},{r.V2_lyap!r},{r.R_active!r},"
        f"{int(r.sat1)},{int(r.sat2)}\n"
    )


def _passed_and_rows(trace):
    """The items that trace_csv_rows passes on, in order, and its rows,
    after checking that each block's text is the rows of that block."""
    passed, rows = [], []
    for block, text in trace_csv_rows(trace):
        passed += block
        rows += text.splitlines(keepends=True)
        assert text == "".join(map(_row, expanded(block)))
    return passed, rows


def test_rows_are_written_field_by_field_whatever_the_records_share():
    """Rows equal the field-by-field row byte for byte, and each record is
    passed on as it came, on hand-made records: bodies equal by == that
    differ in the sign of a zero, alternating bodies, a stretch that shares
    one body object, and equal bodies built from distinct float objects."""
    zero, negative_zero = 0.0, -0.0
    # Equal by ==, but d2_dot and e differ in the sign of their zeros.
    plus = (0.5714285714285715, 0.22857142857142854, 8.0, 0.5, 0.5, zero, zero,
            1e-300, 0.0, 5e-324, 10.0, False, False)
    minus = plus[:5] + (negative_zero, negative_zero) + plus[7:]
    assert plus == minus
    # Equal values in objects of their own.
    copy = tuple(float(repr(x)) if type(x) is float else x for x in plus)
    assert copy == plus and any(a is not b for a, b in zip(copy, plus))
    # Same state, but the other load and both flags set.
    other = plus[:10] + (15.0, True, True)
    bodies = [plus, minus, plus, minus, *[plus] * 4, copy, copy, other, other, minus, plus]
    records = [TraceRecord(i * 1e-6, *body) for i, body in enumerate(bodies)]
    records.insert(6, TraceRecord(records[5].t, *other))  # two records at one time

    passed, rows = _passed_and_rows(records)
    assert passed == records
    assert all(a is b for a, b in zip(passed, records))
    assert rows == [_row(r) for r in records]
    assert len(rows[0].split(",")) == len(CSV_COLUMNS)
    assert {row.split(",")[6] for row in rows} == {"0.0", "-0.0"}


def _fresh(x):
    """x in a float object of its own; any other value as it is."""
    return float(repr(x)) if type(x) is float else x


def test_column_text_is_reused_only_for_the_same_bits():
    """Rows equal the field-by-field row byte for byte on records that never
    share a body object, so that each column's text is reused or written
    afresh value by value: a column flipping between 0.0 and -0.0 while the
    others repeat by value in objects of their own, a column that repeats
    while its neighbours change, infinities and a nan, and an int next to
    an equal float, whose repr differs."""
    values = [0.5714285714285715, 0.22857142857142854, 8.0, 0.5, 0.5, 0.0, 1e-300,
              -2.5e-17, 5e-324, 10.0]
    bodies = []
    for k in range(6):  # d2_dot flips the sign of its zero
        body = [_fresh(x) for x in values]
        body[5] = -0.0 if k % 2 else 0.0
        bodies.append(body)
    for k in range(1, 6):  # Vo repeats while iL1 and iL2 change
        body = [_fresh(x) for x in values]
        body[0] += k * 1e-3
        body[1] -= k * 1e-3
        bodies.append(body)
    for x in (math.inf, math.inf, -math.inf, -math.inf, math.nan, math.nan):
        bodies.append([_fresh(v) for v in values[:7]] + [x] + [_fresh(v) for v in values[8:]])
    for d1 in (1, 1.0, 1.0, 1, 1):  # an int and an equal float in turn
        bodies.append([_fresh(x) for x in values[:3]] + [d1] + [_fresh(x) for x in values[4:]])
    records = [
        TraceRecord(i * 1e-6, *body, 15.0 if i > 10 else 10.0, i % 3 == 0, False)
        for i, body in enumerate(bodies)
    ]
    assert all(
        any(x is not y for x, y in zip(a[1:11], b[1:11])) for a, b in zip(records, records[1:])
    )

    passed, rows = _passed_and_rows(records)
    assert len(passed) == len(records) and all(a is b for a, b in zip(passed, records))
    assert rows == [_row(r) for r in records]
    columns = [row.split(",") for row in rows]
    assert {c[6] for c in columns} == {"0.0", "-0.0"}
    assert {c[8] for c in columns} >= {"inf", "-inf", "nan"}
    assert [c[4] for c in columns[-5:]] == ["1", "1.0", "1.0", "1", "1"]


# Column values whose text must not be reused wrongly: both zeros, a nan, an
# int next to an equal float, and floats that repeat by value in objects of
# their own.
_values = st.sampled_from((0.0, -0.0, math.nan, 1, 1.0, 0.5, 8.0, 1e-300)).map(_fresh)


@st.composite
def _streams(draw):
    """Records and Stretches whose bodies draw each column from _values,
    some repeating the previous body's objects, with one or two loads."""
    items, t, body = [], 0.0, None
    for size in draw(st.lists(st.integers(0, STRETCH_RECORDS), min_size=1, max_size=10)):
        if body is None or not draw(st.booleans()):
            body = (*draw(st.lists(_values, min_size=10, max_size=10)),
                    draw(st.sampled_from((10.0, 15.0))), draw(st.booleans()), draw(st.booleans()))
        if size:
            times = [t + 1e-6 * (k + 1) for k in range(size)]
            items.append(Stretch(times, body))
            t = times[-1]
        else:
            t += 1e-6
            items.append(TraceRecord(t, *body))
    return items


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_streams())
def test_stretch_text_is_the_rows_of_its_records(items):
    """A Stretch's text is the field-by-field rows of its records, joined,
    and each record's row after it is unchanged: the column memo carries
    over a Stretch as over a record. Each item is passed on as it came."""
    got = list(trace_csv_rows(items))
    passed = [item for block, _ in got for item in block]
    assert len(passed) == len(items) and all(a is b for a, b in zip(passed, items))
    for block, text in got:
        assert text == "".join(map(_row, expanded(block)))
    assert "".join(text for _, text in got) == \
        "".join(text for _, text in trace_csv_rows(expanded(items)))


def test_stretch_text_keeps_signed_zeros_nan_and_ints():
    """Hand-made: a Stretch whose body holds 0.0, -0.0, a nan and an int,
    between records that hold the other zero, an equal float and a nan."""
    body = (0.0, -0.0, math.nan, 1, 0.5, 0.0, -0.0, 1e-300, math.nan, 1.0, 10.0, False, True)
    other = (-0.0, 0.0, math.nan, 1.0, 0.5, -0.0, 0.0, 1e-300, math.nan, 1, 10.0, True, False)
    items = [TraceRecord(0.0, *other), Stretch([1e-6, 2e-6, 3e-6], body),
             TraceRecord(4e-6, *other), Stretch([5e-6], other), TraceRecord(6e-6, *body)]
    got = [text for _, text in trace_csv_rows(items)]
    assert got == ["".join(map(_row, expanded([item]))) for item in items]
    assert got[1].count("\n") == 3 and got[1].split("\n")[0].split(",")[1:5] == \
        ["0.0", "-0.0", "nan", "1"]


def _ring():
    """Bodies in a ring, each a change of the one before it that must not
    reuse a column's text wrongly: the same objects, equal floats in objects
    of their own, 0.0 and -0.0 in turn, a nan after a nan, an int next to an
    equal float, a change of the load, an equal load in an object of its
    own, and an infinity."""
    base = [0.5714285714285715, 0.22857142857142854, 8.0, 0.5, 0.5, 0.0, 1e-300,
            -2.5e-17, 5e-324, 10.0]
    ten, fifteen = 10.0, 15.0
    bodies = [base + [ten, False, False]]
    bodies.append(bodies[-1])
    for change in (
        {},                                 # equal floats, objects of their own
        {5: -0.0, 7: -0.0},                 # zeros change sign
        {5: 0.0, 7: 0.0, 8: math.nan},      # and back; a nan
        {8: math.nan, 3: 1},                # a nan after a nan; an int
        {3: 1.0, 10: fifteen},              # an equal float; the load changes
        {3: 1, 10: float(repr(fifteen)), 11: True, 12: True},  # an equal load
        {2: math.inf, 10: ten},             # the first load again
    ):
        body = [_fresh(x) for x in bodies[-1]]
        for k, value in change.items():
            body[k] = value
        bodies.append(body)
    return [tuple(body) for body in bodies]


_RING = _ring()


@st.composite
def _blocky_streams(draw):
    """Runs of 1 to 2 * STRETCH_RECORDS + 1 records between Stretches of 1 to
    STRETCH_RECORDS times, each run walking the ring from a drawn offset, so
    that block edges fall between every pair of neighbours in the ring and
    next to Stretches."""
    items, t = [], 0.0
    runs = st.integers(-STRETCH_RECORDS, 2 * STRETCH_RECORDS + 1).filter(bool)
    for run in draw(st.lists(runs, min_size=1, max_size=8)):
        offset = draw(st.integers(0, len(_RING) - 1))
        if run < 0:
            times = [t + 1e-6 * (k + 1) for k in range(-run)]
            items.append(Stretch(times, _RING[offset]))
            t = times[-1]
        else:
            for k in range(run):
                t += 1e-6
                items.append(TraceRecord(t, *_RING[(offset + k) % len(_RING)]))
    return items


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_blocky_streams())
def test_block_texts_are_the_rows_of_their_records_wherever_a_block_ends(items):
    """The trace passes in blocks of up to STRETCH_RECORDS consecutive records,
    as many as the run of records has left, or of one Stretch; each block's
    text is the field-by-field rows of its records, byte for byte, whatever
    the column memo carried over from the block before."""
    got = list(trace_csv_rows(items))
    passed = [item for block, _ in got for item in block]
    assert len(passed) == len(items) and all(a is b for a, b in zip(passed, items))
    position = 0
    for block, text in got:
        assert text == "".join(map(_row, expanded(block)))
        position += len(block)
        if type(block[0]) is Stretch:
            assert len(block) == 1
        else:
            assert 1 <= len(block) <= STRETCH_RECORDS
            assert all(type(item) is TraceRecord for item in block)
            assert len(block) == STRETCH_RECORDS or position == len(items) or \
                type(items[position]) is Stretch
