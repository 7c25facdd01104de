"""The multi-pass metrics reduction, kept as the oracle for compute_metrics.

This is the reduction parbuck shipped before compute_metrics became a single
pass over an iterable: it takes a list and makes one pass per metric. The
one-pass version must return the same RunMetrics, every field bit for bit.
Its Lyapunov pair definition is a private copy, so the oracle does not share
code with the function it checks.
"""

from __future__ import annotations

from math import fsum

from parbuck import ParbuckError, RunMetrics, TraceRecord


def _check_trace(trace: list[TraceRecord]) -> None:
    if not trace:
        raise ParbuckError("cannot compute metrics of an empty trace")
    for a, b in zip(trace, trace[1:]):
        if b.t < a.t:
            raise ParbuckError(
                f"trace must be time-sorted: t={b.t!r} follows t={a.t!r}"
            )


def _settle_time(trace: list[TraceRecord], inside) -> float | None:
    """First time after which `inside` holds through the end of the trace."""
    last_outside = None
    for i, rec in enumerate(trace):
        if not inside(rec):
            last_outside = i
    if last_outside is None:
        return trace[0].t
    if last_outside == len(trace) - 1:
        return None
    return trace[last_outside + 1].t


def violation_fraction(
    trace: list[TraceRecord],
    lyap_tol: float = 1e-9,
    t_start: float = 0.0,
) -> float:
    """Fraction of unsaturated sample pairs where a loop energy grew.

    Pairs are consecutive records with t >= t_start, neither record
    saturated, spanning nonzero time (load events duplicate a timestamp to
    show both resistances; those pairs are re-evaluations, not evolution).
    A pair counts as a violation when V1 or V2 increased by more than
    lyap_tol. Returns 0.0 when no pair qualifies.
    """
    violations = 0
    total = 0
    for a, b in zip(trace, trace[1:]):
        if a.t < t_start or b.t == a.t or a.sat1 or a.sat2 or b.sat1 or b.sat2:
            continue
        total += 1
        if b.V1_lyap - a.V1_lyap > lyap_tol or b.V2_lyap - a.V2_lyap > lyap_tol:
            violations += 1
    return violations / total if total else 0.0


def multipass_metrics(
    trace: list[TraceRecord],
    Vref: float,
    band: float = 0.02,
    share_threshold: float = 1e-3,
    lyap_tol: float = 1e-9,
) -> RunMetrics:
    """Reduce a time-sorted trace to RunMetrics.

    band is the relative voltage tolerance (|Vo - Vref|/Vref), and
    share_threshold the absolute bound on the per-unit sharing error.
    """
    _check_trace(trace)

    settle_v = _settle_time(trace, lambda r: abs(r.Vo - Vref) / Vref < band)
    settle_share = _settle_time(trace, lambda r: abs(r.e2) < share_threshold)

    t0, t_last = trace[0].t, trace[-1].t
    window_start = t_last - 0.1 * (t_last - t0)
    tail = [r for r in trace if r.t >= window_start]
    ss_voltage = fsum(abs(r.e) for r in tail) / len(tail)
    ss_sharing = fsum(abs(r.e2) for r in tail) / len(tail)

    recovery = None
    last_event_t = None
    for a, b in zip(trace, trace[1:]):
        if b.R_active != a.R_active:
            last_event_t = b.t
    if last_event_t is not None:
        after = [r for r in trace if r.t >= last_event_t]
        settled = _settle_time(after, lambda r: abs(r.Vo - Vref) / Vref < band)
        recovery = None if settled is None else settled - last_event_t

    longest = 0.0
    run_start = None
    for rec in trace:
        if rec.sat1 or rec.sat2:
            if run_start is None:
                run_start = rec.t
            longest = max(longest, rec.t - run_start)
        else:
            run_start = None

    return RunMetrics(
        settle_time_v=settle_v,
        settle_time_share=settle_share,
        ss_voltage_error=ss_voltage,
        ss_sharing_error=ss_sharing,
        recovery_time=recovery,
        lyap_violation_fraction=violation_fraction(trace, lyap_tol),
        max_duty_saturation_time=longest,
    )
