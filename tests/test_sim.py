"""Integrator, load schedule and run loop: fixed points, order, events, guards."""

import hashlib
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from parbuck import (
    MAX_STEPS,
    CcmViolationError,
    DivergenceError,
    LoadStep,
    ParameterError,
    PlantState,
    Scenario,
    ScenarioFormatError,
    bundled_scenario_text,
    controller_step,
    equilibrium,
    format_trace_csv,
    parse_scenario,
    plant_derivatives,
    run,
    validate_scenario,
)
from parbuck.sim import _compile

import identities
import numerics

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


# ── Integrator kernel ─────────────────────────────────────────────────────────


def test_one_step_matches_exponential_to_fifth_order():
    """Single RK4 step on dx/dt=-x at dt=0.1: error is the dt^5 residual."""
    y = numerics.rk4_update(lambda s: (-s[0],), (1.0,), 0.1)
    err = abs(y[0] - math.exp(-0.1))
    print(f"\n  one-step error {err:.3e} vs dt^5 = 1e-5")
    assert err < 1.5e-7


def test_order_four_at_simulation_step_sizes():
    """Errors on the exponential shrink 16x per halving over the working dts.

    The test system decays at 1e4/s, the plant's own timescale, so the
    pinned dt values place truncation error well above roundoff.
    """
    dts = (1e-5, 5e-6, 2.5e-6)
    orders = numerics.exponential_orders(rate=1e4, dts=dts, t_end=1e-3)
    errors = [numerics.exponential_error(1e4, dt, 1e-3) for dt in dts]
    print(f"\n  errors: {[f'{e:.3e}' for e in errors]}, orders: {orders}")
    for a, b in zip(errors, errors[1:]):
        assert 8.0 < a / b < 32.0
    for p in orders:
        assert 3.7 <= p <= 4.3


def _oracle_step(scn: Scenario, state: PlantState) -> tuple:
    """rk4_update over plant_derivatives after controller_step, unclamped."""
    R = scn.load_schedule[0].R

    def f(y):
        s = PlantState(*y)
        cmd = controller_step(s, scn.Vref, R, scn.p1, scn.p2, scn.gains)
        return tuple(plant_derivatives(s, scn.p1, scn.p2, R, cmd.d1, cmd.d2_dot))

    return numerics.rk4_update(f, (state.iL1, state.iL2, state.Vo, state.d2), scn.dt)


def _kernel_cases():
    """(scenario, state) pairs on which the compiled kernel must match the oracle.

    240 random converter pairs, gains, loads and states, at step sizes up to
    1e-4 s. Random states mostly saturate d1; every fourth state is instead
    drawn near the operating point with d1 interior, and every fourth sits
    on a duty bound so that the d2 clamp fires. Every fourth setup also gets
    an exposed state (iL1 = d2 = 0, d1 interior, d2 rising), drawn from its
    own generator, whose stepped iL1 and d2 keep the low bits of the slopes.
    """
    rng = random.Random(31337)
    exposed_rng = random.Random(4242)
    for k in range(240):
        p1, p2, gains, R, vref = identities.random_setup(rng)
        if k % 4 == 1:
            state, _ = identities.unsaturated_sample(rng, p1, p2, gains, R, vref)
        else:
            state = identities.random_state(rng, p1, p2, vref)
        if k % 4 == 0:
            state = replace(state, d2=float(k % 8 == 0))
        scn = Scenario(p1, p2, gains, vref, (LoadStep(0.0, R),), dt=(1e-6, 1e-5, 1e-4)[k % 3])
        yield scn, state
        if k % 4 == 2:
            yield scn, identities.exposed_sample(exposed_rng, p1, p2, gains, R, vref)


def _kernel_step(scn: Scenario, state: PlantState, dt: float) -> tuple:
    """One step of length dt from t=0 through the compiled kernel that
    simulate() runs, at the scenario's first load: (iL1, iL2, Vo, d2, sat2)."""
    step, _ = _compile(scn)(scn.load_schedule[0].R)
    return step(dt, dt, state.iL1, state.iL2, state.Vo, state.d2)


def test_kernel_step_equals_generic_kernel():
    """The compiled step reproduces the readable oracle bit for bit.

    The oracle's d2 is clamped to [0, 1] before the comparison, and sat2
    must say whether that changed it.
    """
    n = d1_saturated = d2_clamped = 0
    for scn, state in _kernel_cases():
        *currents_and_vo, d2 = _oracle_step(scn, state)
        clamped = min(max(d2, 0.0), 1.0)
        *stepped, sat2 = _kernel_step(scn, state, scn.dt)
        assert tuple(stepped) == (*currents_and_vo, clamped)
        assert sat2 == (clamped != d2)
        R = scn.load_schedule[0].R
        n += 1
        d1_saturated += controller_step(state, scn.Vref, R, scn.p1, scn.p2, scn.gains).saturated
        d2_clamped += sat2
    print(f"\n  d1 saturated on {d1_saturated}/{n} states, d2 clamped on {d2_clamped}/{n}")
    assert 20 <= d1_saturated <= n - 20 and d2_clamped >= 20


def test_compiled_record_equals_controller_step():
    """Every record field is controller_step's value at the recorded state.

    The record comes from the compiled kernel; run() on a zero horizon gives
    exactly one, at the initial state, on the kernel test's cases.
    """
    n = d1_saturated = 0
    for scn, state in _kernel_cases():
        (rec,) = run(replace(scn, initial_state=state, t_end=0.0))
        R = scn.load_schedule[0].R
        sig = controller_step(state, scn.Vref, R, scn.p1, scn.p2, scn.gains)
        assert rec == (
            0.0, state.iL1, state.iL2, state.Vo, sig.d1, state.d2, sig.d2_dot, sig.e,
            sig.e2, sig.lyap_v, sig.lyap_share, R, sig.saturated, False,
        )
        n += 1
        d1_saturated += sig.saturated
    print(f"\n  d1 saturated on {d1_saturated}/{n} records")
    assert 20 <= d1_saturated <= n - 20


def test_kernel_step_preserves_equilibrium(constant_scenario):
    """The analytic fixed point survives a step to 1e-12 relative."""
    eq = equilibrium(constant_scenario.p1, constant_scenario.p2, 10.0, 8.0)
    for dt in (1e-6, 1e-5, 1e-3):
        *new, sat2 = _kernel_step(constant_scenario, eq, dt)
        assert not sat2
        for name, after in zip(("iL1", "iL2", "Vo", "d2"), new):
            before = getattr(eq, name)
            assert after == pytest.approx(before, rel=1e-12), f"{name} moved at dt={dt}"


def test_closed_loop_richardson_fourth_order(constant_scenario):
    """Halving dt shrinks the final-state change ~16x on a smooth trajectory.

    Measured over the fast transient of a small voltage perturbation; longer
    horizons let the contraction erase the truncation signal into roundoff,
    and saturated trajectories lose the smoothness the order relies on.
    """
    coarse, fine, ratio, saturated = numerics.closed_loop_richardson(constant_scenario)
    print(f"\n  |x(dt)-x(dt/2)|={coarse:.3e}  |x(dt/2)-x(dt/4)|={fine:.3e}  ratio={ratio:.1f}")
    assert not saturated
    assert ratio >= 8.0


def test_kernel_step_divergence_names_time_and_component(constant_scenario):
    """An overflow raises DivergenceError naming the component and the end
    time of the step that overflowed, as passed to the kernel."""
    eq = equilibrium(constant_scenario.p1, constant_scenario.p2, 10.0, 8.0)
    step, _ = _compile(constant_scenario)(10.0)
    dt = 1e100
    state = (eq.iL1, eq.iL2, eq.Vo + 1e-6, eq.d2)
    with pytest.raises(DivergenceError) as err:
        for i in range(1, 1001):
            t_next = i * dt
            *state, _ = step(t_next, dt, *state)
    print(f"\n  {err.value}")
    assert err.value.component in ("iL1", "iL2", "Vo", "d2")
    assert err.value.t == t_next


def _reference_sha256(workload: str) -> str:
    path = BENCH_REFERENCE / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["sha256"]


def test_bundled_load_step_trace_matches_bench_reference(step_trace):
    """The bundled load step's CSV has the sha256 stored with the benchmark."""
    csv = format_trace_csv(step_trace).encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == _reference_sha256("load_step")


def test_dense_load_step_trace_matches_bench_reference(step_scenario):
    """The bundled load step recorded at every step (1e5 records, both sides
    of the event) gives the CSV stored with the benchmark, byte for byte."""
    csv = format_trace_csv(run(replace(step_scenario, record_every=1))).encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == _reference_sha256("dense_trace")


# ── Run loop ──────────────────────────────────────────────────────────────────


def test_zero_horizon_gives_single_initial_record(constant_scenario):
    scn = replace(constant_scenario, t_end=0.0)
    trace = run(scn)
    assert len(trace) == 1
    rec = trace[0]
    assert rec.t == 0.0
    assert (rec.iL1, rec.iL2, rec.Vo, rec.d2) == (
        scn.initial_state.iL1, scn.initial_state.iL2,
        scn.initial_state.Vo, scn.initial_state.d2,
    )


def test_identical_scenarios_give_bit_identical_traces(step_scenario):
    scn = replace(step_scenario, t_end=0.051)
    first = run(scn)
    second = run(scn)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a == b


def test_event_records_both_sides_with_continuous_state(step_trace):
    """The 0.05 s load step appears twice: same time and state, old/new R."""
    at_event = [r for r in step_trace if r.t == 0.05]
    assert len(at_event) == 2
    pre, post = at_event
    assert (pre.R_active, post.R_active) == (10.0, 15.0)
    assert (pre.iL1, pre.iL2, pre.Vo, pre.d2) == (post.iL1, post.iL2, post.Vo, post.d2)
    ts = [r.t for r in step_trace]
    assert ts == sorted(ts)
    assert all(math.isfinite(r.Vo) and math.isfinite(r.e2) for r in step_trace)


def test_event_not_on_grid_shortens_the_step(step_scenario):
    """An event at 50.0005 steps lands exactly via one shortened step."""
    scn = replace(
        step_scenario,
        load_schedule=(LoadStep(0.0, 10.0), LoadStep(5.00005e-2, 15.0)),
        t_end=0.0501,
    )
    trace = run(scn)
    at_event = [r for r in trace if r.t == 5.00005e-2]
    assert len(at_event) == 2
    assert (at_event[0].R_active, at_event[1].R_active) == (10.0, 15.0)
    assert trace[-1].t == pytest.approx(0.0501, abs=1e-12)


def test_event_within_rounding_of_start_takes_no_step(step_scenario):
    """A first segment shorter than dt*1e-9 holds no step but still records
    both sides of its event, with the initial state and sat2 unset."""
    scn = replace(
        step_scenario,
        load_schedule=(LoadStep(0.0, 10.0), LoadStep(1e-16, 15.0)),
        t_end=1e-5,
    )
    trace = run(scn)
    pre, post = trace[1:3]
    assert (pre.t, post.t, pre.R_active, post.R_active) == (1e-16, 1e-16, 10.0, 15.0)
    assert (pre.Vo, post.Vo, pre.sat2) == (scn.initial_state.Vo, scn.initial_state.Vo, False)
    assert trace[-1].t == 1e-5


def test_cold_start_violates_continuous_conduction(constant_scenario):
    """From a dead bus, leg 2's current is pulled negative within microseconds:
    its duty starts at zero, so any bus voltage discharges the inductor."""
    scn = replace(constant_scenario, initial_state=PlantState(0.0, 0.0, 0.0, 0.0),
                  init_label="zero")
    with pytest.raises(CcmViolationError) as err:
        run(scn)
    print(f"\n  {err.value}")
    assert err.value.t < 1e-3


def test_run_rejects_invalid_scenarios(constant_scenario):
    for bad in (
        replace(constant_scenario, dt=0.0),
        replace(constant_scenario, t_end=-1.0),
        replace(constant_scenario, Vref=17.0),
        replace(constant_scenario, load_schedule=()),
        replace(constant_scenario, load_schedule=(LoadStep(0.01, 10.0),)),
        replace(constant_scenario, load_schedule=(LoadStep(0.0, 10.0), LoadStep(0.0, 15.0))),
        replace(constant_scenario, load_schedule=(LoadStep(0.0, -10.0),)),
        replace(constant_scenario, record_every=0),
    ):
        with pytest.raises(ParameterError):
            validate_scenario(bad)
        with pytest.raises(ParameterError):
            run(bad)


def test_step_limit_bounds_the_work(step_scenario):
    """More than MAX_STEPS steps is rejected by validation, before any step."""
    validate_scenario(replace(step_scenario, t_end=4.78))  # criterion 2's horizon
    assert 100.0 / step_scenario.dt == MAX_STEPS
    validate_scenario(replace(step_scenario, t_end=100.0))
    for bad in (replace(step_scenario, dt=1e-15), replace(step_scenario, t_end=1e300, dt=1e-300)):
        with pytest.raises(ParameterError, match="exceeds the limit"):
            validate_scenario(bad)
    text = bundled_scenario_text("load_step")
    assert "dt_s = 1e-6" in text
    with pytest.raises(ScenarioFormatError, match="exceeds the limit"):
        parse_scenario(text.replace("dt_s = 1e-6", "dt_s = 1e-15"))


def test_record_cadence_counts_steps(constant_scenario):
    """record_every=10 on a 100-step run records t=0, every 10th step, t_end."""
    scn = replace(constant_scenario, t_end=100e-6, record_every=10)
    trace = run(scn)
    times = [r.t for r in trace]
    expected = [0.0] + [pytest.approx(10e-6 * k) for k in range(1, 11)]
    assert times == expected


def test_d2_clamp_is_recorded(constant_scenario):
    """A state that drives d2 above 1 gets clamped with the sat2 flag set."""
    start = PlantState(iL1=5.0, iL2=2.0, Vo=0.0, d2=1.0)
    scn = replace(
        constant_scenario,
        initial_state=start,
        init_label="custom",
        t_end=3e-6,
        record_every=1,
    )
    trace = run(scn)
    assert any(r.sat2 for r in trace[1:])
    assert all(0.0 <= r.d2 <= 1.0 for r in trace)
