"""Metrics: settling semantics, tail means, Lyapunov diagnostic, invariances,
and equality of the one-pass reduction with the multi-pass oracle."""

import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parbuck import (
    ParbuckError,
    TraceRecord,
    compute_metrics,
    run,
    simulate,
)

from parbuck.sim import STRETCH_RECORDS, Stretch

from multipass_metrics import multipass_metrics, violation_fraction
from stretches import expanded


def make_record(
    t,
    Vo=8.0,
    e2=0.0,
    V1=0.0,
    V2=0.0,
    R=10.0,
    sat1=False,
    sat2=False,
):
    return TraceRecord(
        t=t, iL1=0.5, iL2=0.2, Vo=Vo, d1=0.5, d2=0.5, d2_dot=0.0,
        e=8.0 - Vo, e2=e2, V1_lyap=V1, V2_lyap=V2, R_active=R,
        sat1=sat1, sat2=sat2,
    )


def flat_trace(n=21, dt=0.005, **kwargs):
    return [make_record(i * dt, **kwargs) for i in range(n)]


# ── Settling and steady-state ─────────────────────────────────────────────────


def test_perfect_trace_has_trivial_metrics():
    m = compute_metrics(flat_trace(), Vref=8.0)
    assert m.settle_time_v == 0.0
    assert m.settle_time_share == 0.0
    assert m.ss_voltage_error == 0.0
    assert m.ss_sharing_error == 0.0
    assert m.recovery_time is None
    assert m.lyap_violation_fraction == 0.0
    assert m.max_duty_saturation_time == 0.0


def test_settling_requires_never_leaving_the_band():
    """An excursion at t=0.07 pushes the settle time past it."""
    trace = flat_trace()
    trace[14] = make_record(0.07, Vo=7.0)  # 12.5% off, far outside a 2% band
    m = compute_metrics(trace, Vref=8.0)
    print(f"\n  settle_time_v = {m.settle_time_v}")
    assert m.settle_time_v == pytest.approx(0.075)
    assert m.settle_time_v > 0.07


def test_never_settling_reports_none():
    trace = [make_record(i * 0.01, Vo=5.0) for i in range(11)]
    m = compute_metrics(trace, Vref=8.0)
    assert m.settle_time_v is None


def test_tail_means_use_final_tenth():
    """Only the last 10% of the time span feeds the steady-state means."""
    trace = [make_record(i * 0.01, Vo=(8.0 if i >= 9 else 4.0)) for i in range(11)]
    m = compute_metrics(trace, Vref=8.0)
    assert m.ss_voltage_error == 0.0  # records at 0.09 s and 0.1 s are exact


def test_recovery_time_measured_from_last_event():
    trace = flat_trace(n=10)
    trace += [make_record(0.05, R=15.0, Vo=7.0)]
    trace += [make_record(0.05 + 0.005 * k, R=15.0, Vo=(7.0 if k < 3 else 8.0))
              for k in range(1, 9)]
    m = compute_metrics(trace, Vref=8.0)
    print(f"\n  recovery_time = {m.recovery_time}")
    assert m.recovery_time == pytest.approx(0.015)


# ── Lyapunov diagnostic ───────────────────────────────────────────────────────


def test_violation_fraction_counts_energy_increases():
    trace = [
        make_record(0.00, V1=1.0),
        make_record(0.01, V1=0.5),            # decrease: fine
        make_record(0.02, V1=0.5 + 1e-12),    # within tolerance: fine
        make_record(0.03, V1=0.7),            # violation
        make_record(0.04, V1=0.1, V2=0.2),    # V1 down, V2 up: violation
    ]
    assert compute_metrics(trace, Vref=8.0).lyap_violation_fraction == pytest.approx(0.5)


def test_violation_fraction_skips_saturated_and_zero_time_pairs():
    trace = [
        make_record(0.00, V1=1.0),
        make_record(0.01, V1=2.0, sat1=True),   # both pairs touching it skipped
        make_record(0.02, V1=3.0),
        make_record(0.02, V1=9.0, R=15.0),      # event re-evaluation: same t
        make_record(0.03, V1=1.0),
    ]
    assert compute_metrics(trace, Vref=8.0).lyap_violation_fraction == 0.0


def test_violation_fraction_start_time_filter():
    trace = [
        make_record(0.00, V1=1.0),
        make_record(0.01, V1=2.0),  # violation, but before t_start
        make_record(0.02, V1=1.5),
        make_record(0.03, V1=1.0),
    ]
    assert compute_metrics(trace, Vref=8.0).lyap_violation_fraction == pytest.approx(1.0 / 3.0)
    after = [r for r in trace if r.t >= 0.01]
    assert compute_metrics(after, Vref=8.0).lyap_violation_fraction == 0.0


def test_fixed_thresholds_at_their_exact_float_boundaries():
    """The 2% band and the 1e-3 sharing bound are strict, a loop energy
    rising by exactly 1e-9 is no violation, and pairs before t = 0 count,
    in a Stretch and between records."""
    assert abs(51.0 - 50.0) / 50.0 == abs(49.0 - 50.0) / 50.0 == 0.02
    for Vo, settle in ((51.0, None), (49.0, None), (50.99, 0.0)):
        assert compute_metrics([make_record(0.0, Vo=Vo)], Vref=50.0).settle_time_v == settle
    for e2, settle in ((1e-3, None), (-1e-3, None), (9.99e-4, 0.0)):
        assert compute_metrics([make_record(0.0, e2=e2)], Vref=8.0).settle_time_share == settle

    def fraction(trace):
        return compute_metrics(trace, Vref=8.0).lyap_violation_fraction

    for rise, violations in ((1e-9, 0.0), (2e-9, 1.0)):
        assert fraction([make_record(0.0), make_record(0.01, V1=rise)]) == violations
        assert fraction([make_record(0.0), make_record(0.01, V2=rise)]) == violations
    before_zero = Stretch([-0.02, -0.01], make_record(0.0)[1:])
    assert fraction([before_zero, make_record(0.0, V1=1.0)]) == 0.5


def test_max_duty_saturation_time_is_longest_streak():
    trace = flat_trace()
    for i in (3, 4, 5, 10, 15, 16):
        trace[i] = make_record(trace[i].t, sat1=True)
    m = compute_metrics(trace, Vref=8.0)
    assert m.max_duty_saturation_time == pytest.approx(0.01)  # records 3..5


# ── Input validation ──────────────────────────────────────────────────────────


def test_empty_trace_rejected():
    with pytest.raises(ParbuckError):
        compute_metrics([], Vref=8.0)


def test_reversed_trace_rejected():
    trace = list(reversed(flat_trace()))
    with pytest.raises(ParbuckError):
        compute_metrics(trace, Vref=8.0)


def test_nan_time_is_not_time_sorted():
    trace = flat_trace(n=3)
    trace[1] = make_record(float("nan"))
    with pytest.raises(ParbuckError, match="time-sorted"):
        compute_metrics(trace, Vref=8.0)


@pytest.mark.parametrize("times", [
    (0.0, 0.01, float("inf")),
    (float("-inf"), 0.0, 0.01),
    (float("inf"),),
    (float("nan"),),
], ids=["inf_last", "minus_inf_first", "single_inf", "single_nan"])
def test_infinite_time_is_rejected(times):
    """A time span with an infinite or nan end has no final tenth."""
    trace = [make_record(t) for t in times]
    with pytest.raises(ParbuckError, match="times must be finite"):
        compute_metrics(trace, Vref=8.0)


@pytest.mark.parametrize("Vref", [0.0, -12.0, float("inf"), float("nan")])
def test_vref_must_be_positive_and_finite(Vref):
    """The voltage band is relative to Vref, so no other Vref defines it."""
    with pytest.raises(ParbuckError, match="Vref must be positive and finite"):
        compute_metrics(flat_trace(), Vref=Vref)


# ── One pass equals the multi-pass oracle ────────────────────────────────────


def assert_same_metrics(trace, Vref):
    """compute_metrics over a generator equals the oracle over the list, bit
    for bit (repr tells -0.0 from 0.0)."""
    streamed = compute_metrics((r for r in trace), Vref)
    assert repr(streamed) == repr(multipass_metrics(trace, Vref))
    return streamed


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# Per sample: time step, load event (< 4), Vo/Vref - 1, e2, V1, V2, saturation.
_samples = st.tuples(
    st.sampled_from((0.0, 1e-6, 1e-3)) | _finite(0.0, 0.01),
    st.integers(0, 15),
    st.sampled_from((0.0, 0.019, -0.021, 0.3)) | _finite(-0.05, 0.05),
    st.sampled_from((0.0, 9.99e-4, -1e-3)) | _finite(-3e-3, 3e-3),
    _finite(0.0, 1.0),
    _finite(0.0, 1.0),
    st.integers(0, 5),
)


@st.composite
def traces(draw):
    """Time-sorted traces around Vref = 8 V: repeated timestamps, load events
    (some as the simulator records them, both sides at one time), values on
    both sides of the voltage and sharing bands, saturation streaks, any t0."""
    t = draw(st.sampled_from((0.0, 0.05, -1.0, 1e3)) | _finite(-10.0, 10.0))
    R = 10.0
    trace = []
    for i, (dt, event, offset, e2, V1, V2, sat) in enumerate(
            draw(st.lists(_samples, min_size=1, max_size=40))):
        if i:
            t += dt
        if i and event < 4:
            if event < 2:
                trace.append(trace[-1]._replace(t=t))
            R = (10.0, 15.0, 12.5, 10.0)[event]
        Vo = 8.0 * (1.0 + offset)
        trace.append(TraceRecord(
            t=t, iL1=0.5, iL2=0.2, Vo=Vo, d1=0.5, d2=0.5, d2_dot=0.0, e=8.0 - Vo, e2=e2,
            V1_lyap=V1, V2_lyap=V2, R_active=R, sat1=sat == 1, sat2=sat == 2,
        ))
    return trace


@settings(derandomize=True, max_examples=300, deadline=None)
@given(traces(), _finite(-1.0, 1e3))
def test_one_pass_metrics_equal_the_multipass_oracle(trace, t_start):
    assert_same_metrics(trace, 8.0)
    # Pairs from a later start, as criterion 7 takes them: the records from there on.
    after = [r for r in trace if r.t >= t_start]
    if after:
        assert (repr(compute_metrics(iter(after), 8.0).lyap_violation_fraction)
                == repr(violation_fraction(trace, t_start)))


# Per item: a record (size 0) or a Stretch of that many times, time step,
# load event (< 4), Vo/Vref - 1, e2, V1, V2, saturation.
_items = st.tuples(
    st.sampled_from((0, 0, 1, 2, STRETCH_RECORDS)) | st.integers(0, STRETCH_RECORDS),
    st.sampled_from((0.0, 1e-6, 1e-3)) | _finite(0.0, 0.01),
    st.integers(0, 15),
    st.sampled_from((0.0, 0.019, -0.021, 0.3)),
    st.sampled_from((0.0, 9.99e-4, -1e-3)),
    st.sampled_from((0.0, 0.25, math.inf, math.nan)) | _finite(0.0, 1.0),
    st.sampled_from((0.0, 0.25, math.inf, math.nan)) | _finite(0.0, 1.0),
    st.integers(0, 5),
)


@st.composite
def streams(draw):
    """Time-sorted streams of records and Stretches around Vref = 8 V: bodies
    inside and outside both bands, saturated or not, with infinite and nan
    loop energies; Stretches of 1 to STRETCH_RECORDS times, first, last and
    next to load events (some with both sides at one time), a nan load among
    them; times on both sides of 0."""
    t = draw(st.sampled_from((0.0, -0.02, -1.0, 1e3)) | _finite(-10.0, 10.0))
    R = 10.0
    stream, last = [], None
    for i, (size, dt, event, offset, e2, V1, V2, sat) in enumerate(
            draw(st.lists(_items, min_size=1, max_size=12))):
        if i:
            t += dt
        if i and event < 4:
            if event < 2:
                stream.append(last._replace(t=t))
            R = (10.0, 15.0, 12.5, math.nan)[event]
        Vo = 8.0 * (1.0 + offset)
        body = (0.5, 0.2, Vo, 0.5, 0.5, 0.0, 8.0 - Vo, e2, V1, V2, R, sat == 1, sat == 2)
        if size:
            step = draw(st.sampled_from((1e-6, 1e-3)))
            times = [t + k * step for k in range(size)]
            assert all(a < b for a, b in zip(times, times[1:]))
            stream.append(Stretch(times, body))
            t = times[-1]
        else:
            stream.append(TraceRecord(t, *body))
        last = TraceRecord(t, *body)
    return stream


@settings(derandomize=True, max_examples=200, deadline=None)
@given(streams())
def test_metrics_of_stretches_equal_the_metrics_of_their_records(stream):
    """A Stretch reduces as its records would, every field equal by repr."""
    records = list(expanded(stream))
    assert repr(compute_metrics(iter(stream), 8.0)) == repr(compute_metrics(iter(records), 8.0))


def test_long_runs_of_stretches_keep_the_final_tenth():
    """A window pruned after whole Stretches, rather than after each record,
    keeps every row of the final tenth: 40 Stretches of 64 times, the
    voltage outside its band at one stretch in three."""
    stream = []
    for k in range(40):
        times = [1e-3 * (64 * k + i) for i in range(STRETCH_RECORDS)]
        stream.append(Stretch(times, make_record(0.0, Vo=7.0 if k % 3 == 0 else 8.0,
                                                 e2=1e-4 * k)[1:]))
    records = list(expanded(stream))
    assert len(records) == 2560
    m = compute_metrics(iter(stream), 8.0)
    assert repr(m) == repr(compute_metrics(iter(records), 8.0))
    assert repr(m) == repr(multipass_metrics(records, 8.0))
    assert m.ss_voltage_error > 0.0


@pytest.mark.parametrize("case", [
    "single", "event_then_inside", "event_then_outside", "event_off_sample", "outside_at_event",
    "outside_at_end", "outside_in_final_tenth", "late_t0",
])
def test_one_pass_metrics_equal_the_oracle_on_edge_cases(case):
    """The cases the recovery and tail bookkeeping must get right."""
    base = flat_trace(n=11, dt=0.01)
    event = [make_record(0.05, R=15.0)]
    traces = {
        "single": [make_record(0.3, Vo=7.0, e2=0.1, sat2=True)],
        "event_then_inside": base[:6] + event + [make_record(0.05 + 0.01 * k, R=15.0)
                                                 for k in range(1, 5)],
        "event_then_outside": base[:6] + event + [make_record(0.06, Vo=7.0, R=15.0),
                                                  make_record(0.07, R=15.0)],
        "event_off_sample": base[:6] + [make_record(0.055, Vo=7.0, R=15.0),
                                        make_record(0.06, R=15.0)],
        "outside_at_event": base[:5] + [make_record(0.05, Vo=7.0),
                                        make_record(0.05, Vo=7.0, R=15.0),
                                        make_record(0.06, R=15.0)],
        "outside_at_end": base[:-1] + [make_record(0.1, Vo=7.0)],
        "outside_in_final_tenth": base[:-2] + [make_record(0.09, Vo=7.0, e2=0.1),
                                               make_record(0.1)],
        "late_t0": [make_record(1e3 + 1e-6 * k, Vo=(7.0 if k % 5 == 0 else 8.0))
                    for k in range(40)],
    }
    m = assert_same_metrics(traces[case], 8.0)
    print(f"\n  {case}: {m}")


def test_one_pass_metrics_equal_the_oracle_on_the_load_step(step_trace):
    m = assert_same_metrics(step_trace, 8.0)
    assert m.recovery_time is not None


def test_window_pruned_next_to_the_end_keeps_the_rounded_final_tenth():
    """The 1,024th record prunes the window with the final tenth's bound as
    it rounds there, which exceeds the bound at the next and last record by
    one ulp; the record at the final bound must survive that pruning."""
    t0, a = -1000.0, 1.0000000000000568
    b = math.nextafter(a, math.inf)
    start_at_a, start_at_b = a - 0.1 * (a - t0), b - 0.1 * (b - t0)
    assert start_at_a > start_at_b
    times = ([t0 + i for i in range(800)] + [start_at_b]
             + [-99.0 + 0.1 * i for i in range(222)] + [a, b])
    assert len(times) == 1025 and times == sorted(times)
    trace = [make_record(t, Vo=7.9 if t == start_at_b else 8.0) for t in times]
    m = assert_same_metrics(trace, 8.0)
    assert m.ss_voltage_error > 0.0


def test_metrics_window_grows_a_few_bytes_per_record(step_scenario):
    """Doubling a dense run adds at most 4 bytes of traced peak per added
    record: the window keeps 24 bytes for each record of the final tenth."""

    def peak_bytes(t_end):
        scn = replace(step_scenario, record_every=1, t_end=t_end)
        tracemalloc.start()
        try:
            compute_metrics(simulate(scn), scn.Vref)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(0.01), peak_bytes(0.02)
    added = round((0.02 - 0.01) / step_scenario.dt)
    per_record = (long - short) / added
    print(f"\n  peak: {short} B at 0.01 s, {long} B at 0.02 s, {per_record:.2f} B per record")
    assert per_record <= 4.0


def test_streamed_metrics_keep_a_fraction_of_the_trace_in_memory(step_scenario):
    """Reducing the records as simulate() yields them peaks under a tenth of
    the memory of reducing run()'s list: only the final tenth is kept."""
    scn = replace(step_scenario, record_every=1, t_end=0.01)

    def peak_bytes(make_trace):
        tracemalloc.start()
        try:
            metrics = compute_metrics(make_trace(scn), scn.Vref)
            return tracemalloc.get_traced_memory()[1], metrics
        finally:
            tracemalloc.stop()

    streamed, m_streamed = peak_bytes(simulate)
    listed, m_listed = peak_bytes(run)
    print(f"\n  peak: simulate {streamed / 1e6:.3f} MB, run {listed / 1e6:.3f} MB")
    assert m_streamed == m_listed
    assert streamed < listed / 10


# ── Invariance under subsampling, and regression pins ────────────────────────


def test_metrics_stable_under_subsampling(step_scenario):
    """record_every 1 vs 2 moves times by at most one coarse sample period."""
    scn = replace(step_scenario, t_end=0.06)
    fine = compute_metrics(run(replace(scn, record_every=1)), Vref=8.0)
    coarse = compute_metrics(run(replace(scn, record_every=2)), Vref=8.0)
    period = 2 * scn.dt
    print(f"\n  fine:   {fine}")
    print(f"  coarse: {coarse}")
    for name in ("settle_time_v", "settle_time_share", "recovery_time"):
        a, b = getattr(fine, name), getattr(coarse, name)
        if a is None or b is None:
            assert a == b
        else:
            assert abs(a - b) <= period
    assert coarse.ss_voltage_error == pytest.approx(fine.ss_voltage_error, abs=1e-9)
    assert coarse.ss_sharing_error == pytest.approx(fine.ss_sharing_error, rel=0.01)
    assert abs(coarse.max_duty_saturation_time - fine.max_duty_saturation_time) <= period


def test_reference_runs_lyapunov_fraction_pins(constant_scenario, step_scenario,
                                               constant_trace, step_trace):
    """Regression pins for the two bundled scenarios' measured diagnostics.

    From equilibrium the constant-load run never violates. After the load
    step the sharing-loop energy grows on roughly a quarter of the sample
    pairs; fraction pinned from measurement. The cause, checked on every
    violating pair after the event, is the d1-d2 coupling in the
    parbuck.control module docstring: the voltage loop is at rest and its
    law holds d1 + (L1*Vin2)/(L2*Vin1)*d2 constant.
    """
    frac_const = compute_metrics([r for r in constant_trace if r.t >= 5e-3],
                                 constant_scenario.Vref).lyap_violation_fraction
    frac_step = compute_metrics([r for r in step_trace if r.t >= 5e-3],
                                step_scenario.Vref).lyap_violation_fraction
    print(f"\n  constant: {frac_const:.4f}, load step: {frac_step:.4f}")
    assert frac_const == 0.0
    assert 0.20 <= frac_step <= 0.35

    p1, p2 = step_scenario.p1, step_scenario.p2
    ratio = (p1.L * p2.Vin) / (p2.L * p1.Vin)
    after = [r for r in step_trace if r.t >= 0.051]
    violating = [
        (a, b) for a, b in zip(after, after[1:])
        if b.t != a.t and not (a.sat1 or a.sat2 or b.sat1 or b.sat2)
        and (b.V1_lyap - a.V1_lyap > 1e-9 or b.V2_lyap - a.V2_lyap > 1e-9)
    ]
    assert violating
    for a, b in violating:
        assert a.V1_lyap < 1e-20 and b.V1_lyap < 1e-20
    tied = [r.d1 + ratio * r.d2 for r in after]
    assert max(tied) - min(tied) < 1e-9


def test_criterion_7_reads_the_oracles_pair_rule(constant_scenario, step_scenario,
                                                 constant_trace, step_trace):
    """Criterion 7's number, the printed lyap_violation_fraction over the
    records from 5 ms on, is the oracle's pair rule started at 5 ms over
    the whole trace, bit for bit."""
    for scenario, trace in ((constant_scenario, constant_trace), (step_scenario, step_trace)):
        gate = compute_metrics([r for r in trace if r.t >= 5e-3],
                               scenario.Vref).lyap_violation_fraction
        print(f"\n  {gate!r}")
        assert repr(gate) == repr(violation_fraction(trace, t_start=5e-3))
