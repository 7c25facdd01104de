"""Trace-to-CSV export.

Floats are written with repr (shortest round-trip form, decimal point, no
locale), so identical runs produce byte-identical files. A record whose
fields after t are the very objects of the previous record's, as those of
a stationary stretch are, reuses that row's text after t.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, Iterator

from .sim import TraceRecord

CSV_COLUMNS = (
    "t", "iL1", "iL2", "Vo", "d1", "d2", "d2_dot",
    "e", "e2", "V1_lyap", "V2_lyap", "R", "sat1", "sat2",
)


CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def trace_csv_rows(trace: Iterable[TraceRecord]) -> Iterator[tuple[TraceRecord, str]]:
    """Each record with its CSV row, the row ending in a newline."""
    # == rejects a new body fast; `is` accepts a repeated one, since equal
    # floats may differ in the sign of a zero. Records of one load segment
    # share one resistance object: format it once.
    body = text = R = R_text = None
    for r in trace:
        b = r[1:]
        if b != body or not all(map(is_, b, body)):
            body = b
            if r.R_active is not R:
                R = r.R_active
                R_text = repr(R)
            text = (
                f",{r.iL1!r},{r.iL2!r},{r.Vo!r},{r.d1!r},{r.d2!r},{r.d2_dot!r},"
                f"{r.e!r},{r.e2!r},{r.V1_lyap!r},{r.V2_lyap!r},{R_text},"
                f"{int(r.sat1)},{int(r.sat2)}\n"
            )
        yield r, f"{r.t!r}{text}"


def format_trace_csv(trace: Iterable[TraceRecord]) -> str:
    """The whole trace as CSV text, header first, one row per record."""
    return CSV_HEADER + "".join(row for _, row in trace_csv_rows(trace))
