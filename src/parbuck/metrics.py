"""Quantitative post-processing of simulation traces.

Settling is "enter the band and never leave it again before the end of the
trace"; a signal still outside its band at the last sample has no settling
time. Steady-state errors are means over the final 10% of the trace's time
span. Every metric is computed in one pass over the records, so a trace can
be reduced while it is produced. Lyapunov decrease is a reported diagnostic
rather than a hard check: the sharing-loop energy (e2^2 + v_tilde^2)/2 is
guaranteed to decrease only while d1 is frozen, and the voltage law moves d1
against d2 (see the parbuck.control module docstring).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable

from .errors import ParbuckError
from .sim import TraceRecord


@dataclass(frozen=True)
class RunMetrics:
    """Summary numbers extracted from one trace.

    Times are absolute trace times except recovery_time, which is the delay
    from the last load event until the voltage re-enters (and keeps) its
    band. Fields are None where the quantity does not exist for the trace
    (never settled, or no load event).
    """

    settle_time_v: float | None
    settle_time_share: float | None
    ss_voltage_error: float
    ss_sharing_error: float
    recovery_time: float | None
    lyap_violation_fraction: float
    max_duty_saturation_time: float


def _pair_verdict(a: TraceRecord, b: TraceRecord, lyap_tol: float, t_start: float) -> bool | None:
    """None when consecutive records a, b form no Lyapunov pair, else whether
    a loop energy grew by more than lyap_tol between them.

    A pair starts at or after t_start, spans nonzero time (load events
    duplicate a timestamp to show both resistances; those pairs are
    re-evaluations, not evolution) and has neither record saturated.
    """
    if a.t < t_start or b.t == a.t or a.sat1 or a.sat2 or b.sat1 or b.sat2:
        return None
    return b.V1_lyap - a.V1_lyap > lyap_tol or b.V2_lyap - a.V2_lyap > lyap_tol


def lyapunov_violation_fraction(
    trace: Iterable[TraceRecord],
    lyap_tol: float = 1e-9,
    t_start: float = 0.0,
) -> float:
    """Fraction of unsaturated sample pairs where a loop energy grew.

    Pairs are consecutive records with t >= t_start, neither record
    saturated, spanning nonzero time. A pair counts as a violation when V1
    or V2 increased by more than lyap_tol. Returns 0.0 when no pair
    qualifies.
    """
    violations = 0
    total = 0
    for a, b in pairwise(trace):
        verdict = _pair_verdict(a, b, lyap_tol, t_start)
        if verdict is not None:
            total += 1
            violations += verdict
    return violations / total if total else 0.0


def compute_metrics(
    trace: Iterable[TraceRecord],
    Vref: float,
    band: float = 0.02,
    share_threshold: float = 1e-3,
    lyap_tol: float = 1e-9,
) -> RunMetrics:
    """Reduce a time-sorted trace to RunMetrics in one pass.

    trace may be any iterable, a generator included. Each record is dropped
    once seen, except that (t, |e|, |e2|) is kept while it may still fall in
    the final tenth of the time span. band is the relative voltage tolerance
    (|Vo - Vref|/Vref), and share_threshold the absolute bound on the
    per-unit sharing error.
    """
    # A settle time is a candidate: an outside sample clears it, the next
    # inside sample sets it, and it stands if no outside sample follows.
    settle_v = settle_share = None
    last_outside_v = None
    last_event_t = None
    violations = pairs = 0
    longest = 0.0
    sat_start = None
    window: deque[tuple[float, float, float]] = deque()
    prev = None
    for rec in trace:
        t = rec.t
        if prev is None:
            t0 = t
        else:
            if not t >= prev.t:  # also rejects a nan time
                raise ParbuckError(f"trace must be time-sorted: t={t!r} follows t={prev.t!r}")
            if rec.R_active != prev.R_active:
                last_event_t = t
            verdict = _pair_verdict(prev, rec, lyap_tol, 0.0)
            if verdict is not None:
                pairs += 1
                violations += verdict
        prev = rec

        if abs(rec.Vo - Vref) / Vref < band:
            if settle_v is None:
                settle_v = t
        else:
            settle_v = None
            last_outside_v = t
        if abs(rec.e2) < share_threshold:
            if settle_share is None:
                settle_share = t
        else:
            settle_share = None

        if rec.sat1 or rec.sat2:
            if sat_start is None:
                sat_start = t
            longest = max(longest, t - sat_start)
        else:
            sat_start = None

        # The final tenth starts no earlier than it would if this record were
        # the last; the margin covers the rounding of that bound, which moves
        # it by a few ulps of |t| + |t0|.
        window.append((t, abs(rec.e), abs(rec.e2)))
        keep_from = t - 0.1 * (t - t0) - (1e-12 * (abs(t) + abs(t0)) + 1e-300)
        while window[0][0] < keep_from:
            window.popleft()

    if prev is None:
        raise ParbuckError("cannot compute metrics of an empty trace")
    t_last = prev.t
    window_start = t_last - 0.1 * (t_last - t0)
    tail = [(abs_e, abs_e2) for t, abs_e, abs_e2 in window if t >= window_start]
    ss_voltage = sum(abs_e for abs_e, _ in tail) / len(tail)
    ss_sharing = sum(abs_e2 for _, abs_e2 in tail) / len(tail)

    # Recovery is the voltage settle time of the records from the last event
    # on; the first of them is at the event time.
    recovery = None
    if last_event_t is not None and settle_v is not None:
        if last_outside_v is None or last_outside_v < last_event_t:
            recovery = last_event_t - last_event_t
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
