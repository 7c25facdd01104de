"""Quantitative post-processing of simulation traces.

Settling is "enter the band and never leave it again before the end of the
trace"; a signal still outside its band at the last sample has no settling
time. Steady-state errors are means over the final 10% of the trace's time
span. Every metric is computed in one pass over the records, so a trace can
be reduced while it is produced, holding only t, e and e2 (24 bytes) of each
record that may fall in the final tenth, plus up to 1,024 more rows and the
rest of one Stretch's (records at rest, which come as one item). Lyapunov
decrease is a reported diagnostic rather than a hard check: the sharing-loop
energy (e2^2 + v_tilde^2)/2 is guaranteed to decrease only while d1 is
frozen, and the voltage law moves d1 against d2 (see the docstring of
control.py).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from math import fsum, inf
from struct import Struct
from typing import Iterable, NamedTuple

from .errors import ParbuckError
from .sim import Stretch, TraceRecord

_ROW = Struct("3d")  # t, e and e2 of one record in the steady-state window
_BAND = 0.02  # relative voltage band, |Vo - Vref|/Vref
_SHARE = 1e-3  # bound on the per-unit sharing error |e2|
_LYAP_TOL = 1e-9  # rise in a loop energy that counts as a violation


class RunMetrics(NamedTuple):
    """Summary numbers extracted from one trace.

    The voltage settles inside the 2% band |Vo - Vref|/Vref < 0.02, and the
    sharing error inside |e2| < 1e-3. Times are absolute trace times except
    recovery_time, which is the delay from the last load event until the
    voltage re-enters (and keeps) its band. Fields are None where the
    quantity does not exist for the trace (never settled, or no load event).
    """

    settle_time_v: float | None
    settle_time_share: float | None
    ss_voltage_error: float
    ss_sharing_error: float
    recovery_time: float | None
    lyap_violation_fraction: float
    max_duty_saturation_time: float


def compute_metrics(trace: Iterable[TraceRecord | Stretch], Vref: float) -> RunMetrics:
    """Reduce a time-sorted trace to RunMetrics in one pass.

    trace may be any iterable, a generator included, of records and
    Stretches. A Stretch counts as its records: its first time is reduced
    as a record is, and the rest at once, since they repeat its fields at
    later, distinct times. Each record is dropped once seen, except that its
    t, e and e2 stay as a 24-byte row while it may fall in the final tenth
    of the time span; a Stretch's rows are appended at once, and rows are
    pruned after each 1,024 or more. The voltage band is 2% of Vref, the
    sharing bound 1e-3, and a pair violates when a loop energy rises by more
    than 1e-9. A Vref or a time that is not finite, or a Vref <= 0, raises
    ParbuckError.
    """
    if not 0.0 < Vref < inf:  # also rejects a nan Vref
        raise ParbuckError(f"Vref must be positive and finite, got {Vref!r}")
    # A settle time is a candidate: an outside sample clears it, the next
    # inside sample sets it, and it stands if no outside sample follows.
    settle_v = settle_share = None
    last_outside_v = None
    last_event_t = None
    violations = pairs = 0
    longest = 0.0
    sat_start = None
    # Signed rows (abs is exact; the tail sums take it). Row 0 stays, so a
    # prune moves the rest down in place: a bytearray cut at its start would
    # copy itself on the next append.
    rows = bytearray()
    pack = _ROW.pack
    prune_at = 1024 * 24
    # Each record is unpacked once. The previous record's t, R, loop
    # energies and saturation are carried forward to test each pair.
    first = True
    prev_t = prev_R = prev_V1 = prev_V2 = prev_sat = None
    for item in trace:
        if type(item) is Stretch:
            times, (_, _, Vo, _, _, _, e, e2, V1, V2, R, sat1, sat2) = item
            t = times[0]
        else:
            times = ()
            t, _, _, Vo, _, _, _, e, e2, V1, V2, R, sat1, sat2 = item
        sat = sat1 or sat2
        if first:
            # Times are sorted, so a finite first and last time bound them all.
            if not -inf < t < inf:
                raise ParbuckError(f"trace times must be finite, got t={t!r}")
            first = False
            t0 = t
        else:
            if not t >= prev_t:  # also rejects a nan time
                raise ParbuckError(f"trace must be time-sorted: t={t!r} follows t={prev_t!r}")
            if R != prev_R:
                last_event_t = t
            if not (t == prev_t or prev_sat or sat):
                pairs += 1
                if V1 - prev_V1 > _LYAP_TOL or V2 - prev_V2 > _LYAP_TOL:
                    violations += 1
        prev_t, prev_R, prev_V1, prev_V2, prev_sat = t, R, V1, V2, sat

        if abs(Vo - Vref) / Vref < _BAND:
            if settle_v is None:
                settle_v = t
        else:
            settle_v = None
            last_outside_v = t
        if abs(e2) < _SHARE:
            if settle_share is None:
                settle_share = t
        else:
            settle_share = None

        if sat:
            if sat_start is None:
                sat_start = t
            longest = max(longest, t - sat_start)
        else:
            sat_start = None

        rows += pack(t, e, e2)
        if times:
            # The Stretch's other times: the same fields as its first, each
            # at a later, distinct time, so each is reduced as that one was;
            # no pair inside a Stretch changes a loop energy.
            # (Only a nan load, unequal to itself, would make each an event;
            # an event inside a Stretch moves no metric, so none is noted.)
            t = prev_t = times[-1]
            if sat:
                longest = max(longest, t - sat_start)
            else:
                pairs += len(times) - 1
            if settle_v is None:  # the first time was outside the band
                last_outside_v = t
            rows += b"".join(map(pack, times[1:], repeat(e), repeat(e2)))
        if len(rows) >= prune_at:
            # The final tenth starts no earlier than it would if this record
            # were the last; the margin covers the rounding of that bound,
            # which moves it by a few ulps of |t| + |t0|.
            keep_from = t - 0.1 * (t - t0) - (1e-12 * (abs(t) + abs(t0)) + 1e-300)
            with memoryview(rows) as raw, raw.cast("d") as flat:
                keep = bisect_left(flat[::3], keep_from, 1)
            del rows[24:24 * keep]
            prune_at = len(rows) + 1024 * 24

    if first:
        raise ParbuckError("cannot compute metrics of an empty trace")
    t_last = prev_t
    if t_last == inf:
        raise ParbuckError(f"trace times must be finite, got t={t_last!r}")
    window_start = t_last - 0.1 * (t_last - t0)
    with memoryview(rows) as raw, raw.cast("d") as flat:
        start = 3 * bisect_left(flat[::3], window_start)
        count = (len(flat) - start) // 3
        ss_voltage = fsum(map(abs, flat[start + 1::3])) / count
        ss_sharing = fsum(map(abs, flat[start + 2::3])) / count

    # Recovery is the voltage settle time of the records from the last event
    # on; the first of them is at the event time.
    recovery = None
    if last_event_t is not None and settle_v is not None:
        if last_outside_v is None or last_outside_v < last_event_t:
            recovery = 0.0
        else:
            recovery = settle_v - last_event_t

    return RunMetrics(
        settle_time_v=settle_v,
        settle_time_share=settle_share,
        ss_voltage_error=ss_voltage,
        ss_sharing_error=ss_sharing,
        recovery_time=recovery,
        lyap_violation_fraction=violations / pairs if pairs else 0.0,
        max_duty_saturation_time=longest,
    )
