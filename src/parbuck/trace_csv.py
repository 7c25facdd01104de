"""Trace-to-CSV export.

Floats are written with repr (shortest round-trip form, decimal point, no
locale), so identical runs produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable

from .sim import TraceRecord

CSV_COLUMNS = (
    "t", "iL1", "iL2", "Vo", "d1", "d2", "d2_dot",
    "e", "e2", "V1_lyap", "V2_lyap", "R", "sat1", "sat2",
)


def format_trace_csv(trace: Iterable[TraceRecord]) -> str:
    """The whole trace as CSV text, one row per record."""
    lines = [",".join(CSV_COLUMNS)]
    for r in trace:
        lines.append(
            f"{r.t!r},{r.iL1!r},{r.iL2!r},{r.Vo!r},{r.d1!r},{r.d2!r},{r.d2_dot!r},"
            f"{r.e!r},{r.e2!r},{r.V1_lyap!r},{r.V2_lyap!r},{r.R_active!r},"
            f"{int(r.sat1)},{int(r.sat2)}"
        )
    return "\n".join(lines) + "\n"
