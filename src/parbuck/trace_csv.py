"""Trace-to-CSV export.

Floats are written with repr (shortest round-trip form, decimal point, no
locale), so identical runs produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .sim import TraceRecord

CSV_COLUMNS = (
    "t", "iL1", "iL2", "Vo", "d1", "d2", "d2_dot",
    "e", "e2", "V1_lyap", "V2_lyap", "R", "sat1", "sat2",
)


def trace_csv_lines(trace: Iterable[TraceRecord]) -> Iterator[str]:
    """The trace as CSV lines, header first, one row per record, each ending
    in a newline; a writer can stream them without holding the whole text."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for r in trace:
        yield (
            f"{r.t!r},{r.iL1!r},{r.iL2!r},{r.Vo!r},{r.d1!r},{r.d2!r},{r.d2_dot!r},"
            f"{r.e!r},{r.e2!r},{r.V1_lyap!r},{r.V2_lyap!r},{r.R_active!r},"
            f"{int(r.sat1)},{int(r.sat2)}\n"
        )


def format_trace_csv(trace: Iterable[TraceRecord]) -> str:
    """The whole trace as CSV text, one row per record."""
    return "".join(trace_csv_lines(trace))
