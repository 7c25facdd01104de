"""Trace-to-CSV export.

Floats are written with repr (shortest round-trip form, decimal point, no
locale), so identical runs produce byte-identical files. The trace passes
through in blocks, each with the text of its rows as one string: up to
STRETCH_RECORDS consecutive records, or one Stretch (records at rest that
share one body), whose body's text after t is formatted once and joined with
each time. Vo, e and V1_lyap reuse the text of their last value, across
blocks too, when the new value is a float equal to it and nonzero: equal
nonzero floats have the same bits. A zero (0.0 == -0.0), a nan (never
equal) and any value that is not a float (an int's repr differs from an
equal float's) are written afresh. Only these three columns repeat from
record to record: the voltage loop settles about 2e4 times faster than the
sharing pair, so they rest bit for bit while every other column still
moves, and a memo there would only add a comparison per value.
"""

from __future__ import annotations

from itertools import groupby, islice
from typing import Iterable, Iterator

from .sim import STRETCH_RECORDS, Stretch, TraceRecord

CSV_COLUMNS = (
    "t", "iL1", "iL2", "Vo", "d1", "d2", "d2_dot",
    "e", "e2", "V1_lyap", "V2_lyap", "R", "sat1", "sat2",
)


CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def trace_csv_rows(
    trace: Iterable[TraceRecord | Stretch],
) -> Iterator[tuple[list[TraceRecord | Stretch], str]]:
    """The trace in blocks, each a list of up to STRETCH_RECORDS consecutive
    records or of one Stretch, with the CSV text of all its rows as one
    string, each row ending in a newline. The blocks hold the items as they
    came, in order."""
    # Records of one load segment share one resistance object: format it
    # once. Vo, e and V1_lyap each keep their last value (the v_ names) and
    # that value's text (the s_ names), across records, Stretches and blocks.
    R = R_text = None
    v_Vo = v_e = v_V1 = s_Vo = s_e = s_V1 = None
    # groupby splits the trace into runs of records and runs of Stretches;
    # islice cuts each run into blocks, so no block holds more rows than a
    # Stretch.
    for kind, items in groupby(trace, type):
        stretch = kind is Stretch
        size = 1 if stretch else STRETCH_RECORDS
        while block := list(islice(items, size)):
            rows = []
            for item in block:
                t, iL1, iL2, Vo, d1, d2, d2_dot, e, e2, V1, V2, R_active, sat1, sat2 = (
                    (None, *item.body) if stretch else item
                )
                if R_active is not R:
                    R = R_active
                    R_text = repr(R)
                if not (Vo == v_Vo and Vo and type(Vo) is float is type(v_Vo)):
                    v_Vo, s_Vo = Vo, repr(Vo)
                if not (e == v_e and e and type(e) is float is type(v_e)):
                    v_e, s_e = e, repr(e)
                if not (V1 == v_V1 and V1 and type(V1) is float is type(v_V1)):
                    v_V1, s_V1 = V1, repr(V1)
                # A record's row; for a Stretch, the text after t, joined with its times.
                row = (
                    f"{'' if stretch else repr(t)},{iL1!r},{iL2!r},{s_Vo},{d1!r},{d2!r},"
                    f"{d2_dot!r},{s_e},{e2!r},{s_V1},{V2!r},{R_text},{int(sat1)},{int(sat2)}\n"
                )
                rows.append(row.join(map(repr, item.times)) + row if stretch else row)
            # The rows, the block and its text are dropped before the next
            # block is read, not while it is built.
            text = "".join(rows)
            del rows
            yield block, text
            del block, text


def format_trace_csv(trace: Iterable[TraceRecord | Stretch]) -> str:
    """The whole trace as CSV text, header first, one row per record (each
    time of a Stretch included)."""
    return CSV_HEADER + "".join(text for _, text in trace_csv_rows(trace))
