"""Integrator, load schedule and run loop: fixed points, order, events, guards."""

import collections
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from dataclasses import fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parbuck
from parbuck import (
    MAX_STEPS,
    CcmViolationError,
    ControlGains,
    ConverterParams,
    DivergenceError,
    LoadStep,
    ParameterError,
    ParbuckError,
    PlantState,
    Scenario,
    ScenarioFormatError,
    TraceRecord,
    bundled_scenario_text,
    compute_metrics,
    controller_step,
    coupling_constant,
    equilibrium,
    format_trace_csv,
    parse_scenario,
    plant_derivatives,
    run,
    simulate,
)
from parbuck import modal
from parbuck.scenario import step_count
from parbuck.sim import (
    CCM_TOL, MIN_JUMP, RECHECK_AFTER, STRETCH_RECORDS, Stretch, _compile, _segments,
    _stream, stream,
)
from parbuck.trace_csv import trace_csv_rows

import identities
import numerics
from stretches import counting, expanded

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


def _oracle_step(scn: Scenario, state: PlantState, h: float | None = None) -> tuple:
    """rk4_update over plant_derivatives after controller_step, one step of
    length h (default dt), unclamped, and the controller's signals at each
    of the four stages."""
    R = scn.load_schedule[0].R
    signals = []

    def f(y):
        s = PlantState(*y)
        cmd = controller_step(s, scn.Vref, R, scn.p1, scn.p2, scn.gains)
        signals.append(cmd)
        return tuple(plant_derivatives(s, scn.p1, scn.p2, R, cmd.d1, cmd.d2_dot))

    h = scn.dt if h is None else h
    y = numerics.rk4_update(f, (state.iL1, state.iL2, state.Vo, state.d2), h)
    return y, signals


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
            state = state._replace(d2=float(k % 8 == 0))
        scn = Scenario(p1, p2, gains, vref, (LoadStep(0.0, R),), dt=(1e-6, 1e-5, 1e-4)[k % 3])
        yield scn, state
        if k % 4 == 2:
            yield scn, identities.exposed_sample(exposed_rng, p1, p2, gains, R, vref)


def _kernel_step(scn: Scenario, state: PlantState, h: float) -> tuple:
    """One step of length h from t=0 through the compiled kernel that
    simulate() runs, at the scenario's first load: (iL1, iL2, Vo, d2, sat2)."""
    step = _compile(scn)(scn.load_schedule[0].R)[0]
    return step(h, h, state.iL1, state.iL2, state.Vo, state.d2)


def _assert_kernel_step_matches_oracle(fraction: float) -> None:
    """Steps of fraction·dt from each of _kernel_cases() match the readable
    oracle to 1e-10 of each component's size, with sat2 exact, and at least
    20 cases take each path through the d1 clamp regimes.

    The oracle's d2 is clamped to [0, 1] before the comparison, and sat2
    must say exactly whether that changed it. Cases are classified by the
    oracle's d1 clamps at the four stages.
    """
    n = d1_saturated = d2_clamped = 0
    paths = {"interior": 0, "clamped": 0, "mixed": 0}
    worst = 0.0
    for scn, state in _kernel_cases():
        h = fraction * scn.dt
        (*currents_and_vo, d2), signals = _oracle_step(scn, state, h)
        stage_clamps = [sig.saturated for sig in signals]
        clamped = min(max(d2, 0.0), 1.0)
        *stepped, sat2 = _kernel_step(scn, state, h)
        want = (*currents_and_vo, clamped)
        for got, w, x in zip(stepped, want, (state.iL1, state.iL2, state.Vo, state.d2)):
            size = max(abs(w), abs(x))
            assert abs(got - w) <= 1e-10 * size
            if size:
                worst = max(worst, abs(got - w) / size)
        assert sat2 == (clamped != d2)
        paths["clamped" if all(stage_clamps) else "mixed" if any(stage_clamps) else "interior"] += 1
        R = scn.load_schedule[0].R
        n += 1
        d1_saturated += controller_step(state, scn.Vref, R, scn.p1, scn.p2, scn.gains).saturated
        d2_clamped += sat2
    print(f"\n  h = {fraction}·dt: d1 saturated on {d1_saturated}/{n} states, "
          f"d2 clamped on {d2_clamped}/{n}; stage regimes {paths}; "
          f"worst relative error {worst:.2e}")
    assert 20 <= d1_saturated <= n - 20 and d2_clamped >= 20
    assert min(paths.values()) >= 20


def test_kernel_step_equals_generic_kernel():
    """The compiled step reproduces the readable oracle to 1e-10 of each
    component's size, on every path through the d1 clamp regimes.

    A full step whose four stage guards stay interior applies the composed
    affine RK4 map, which differs from the oracle by rounding only; any
    other full step runs RK4 over the clamped float law, as the oracle does.
    """
    _assert_kernel_step_matches_oracle(1.0)


def test_kernel_shortened_step_equals_generic_kernel():
    """A step shorter than dt, as at a load event off the dt grid, matches
    the readable oracle as a full step does, on every clamp path: the
    kernel runs it as it runs a clamped full step, RK4 over the clamped
    float law."""
    _assert_kernel_step_matches_oracle(0.37)


def test_off_map_steps_equal_the_oracle_bit_for_bit(step_scenario):
    """Every step off the interior map, a shortened step or a full step
    from a state whose d1 is clamped, is the oracle's RK4 step bit for bit,
    with d2 clamped to [0, 1] and sat2 set as the kernel sets them, by repr,
    so the sign of a zero counts. On the bundled pair at both loads, from
    random states with currents at 0.2-1.8 times equilibrium, Vo within
    ±20% and d2 in [0.05, 0.95], with shortened steps of 0.1-0.9·dt."""
    rng = random.Random(2718)
    for R in (10.0, 15.0):
        scn = replace(step_scenario, load_schedule=(LoadStep(0.0, R),))
        step = _compile(scn)(R)[0]
        eq = equilibrium(scn.p1, scn.p2, R, scn.Vref)

        def f(y):
            s = PlantState(*y)
            cmd = controller_step(s, scn.Vref, R, scn.p1, scn.p2, scn.gains)
            return tuple(plant_derivatives(s, scn.p1, scn.p2, R, cmd.d1, cmd.d2_dot))

        shortened = clamped = 0
        while clamped < 1000:
            y = (eq.iL1 * rng.uniform(0.2, 1.8), eq.iL2 * rng.uniform(0.2, 1.8),
                 eq.Vo * rng.uniform(0.8, 1.2), rng.uniform(0.05, 0.95))
            if shortened < 1000:
                h = rng.uniform(0.1, 0.9) * scn.dt
                shortened += 1
            elif controller_step(PlantState(*y), scn.Vref, R, scn.p1, scn.p2, scn.gains).saturated:
                h = scn.dt
                clamped += 1
            else:
                continue
            *currents_and_vo, d2 = numerics.rk4_update(f, y, h)
            want = (*currents_and_vo, min(max(d2, 0.0), 1.0), not 0.0 <= d2 <= 1.0)
            assert repr(step(h, h, *y)) == repr(want), f"R={R} y={y!r} h={h!r}"


def test_compiled_record_equals_controller_step():
    """Every record field is controller_step's value at the recorded state.

    The record comes from the compiled kernel's record builder, called on
    the kernel test's cases; some of their states start below -CCM_TOL, so
    no Scenario could hold them as its initial state.
    """
    n = d1_saturated = 0
    for scn, state in _kernel_cases():
        R = scn.load_schedule[0].R
        record = _compile(scn)(R)[1]
        rec = record(0.0, state.iL1, state.iL2, state.Vo, state.d2, False)
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
    """The analytic fixed point survives a step, and a jump where the map is
    a certified contraction, to 1e-12 relative. At dt = 1e-3 the voltage
    pair's |lambda|·dt is about 50, outside RK4's stability region, so that
    scenario certifies no jump."""
    eq = equilibrium(constant_scenario.p1, constant_scenario.p2, 10.0, 8.0)
    for dt in (1e-6, 1e-5, 1e-3):
        *new, sat2 = _kernel_step(constant_scenario, eq, dt)
        assert not sat2
        for name, after in zip(("iL1", "iL2", "Vo", "d2"), new):
            before = getattr(eq, name)
            assert after == pytest.approx(before, rel=1e-12), f"{name} moved at dt={dt}"
        jump = _compile(replace(constant_scenario, dt=dt))(10.0)[2]
        if dt == 1e-3:
            assert jump is None
            continue
        for n in (2, 37, constant_scenario.record_every):
            jumped = jump(n, eq.iL1, eq.iL2, eq.Vo, eq.d2)
            for name, after in zip(("iL1", "iL2", "Vo", "d2"), jumped):
                before = getattr(eq, name)
                assert after == pytest.approx(before, rel=1e-12), f"{name} moved in {n} steps at dt={dt}"


def _certified_setups(step_scenario):
    """(scenario, step, jump) for each setup that certifies jumps: the
    bundled pair at both of its loads, then the distinct setups of
    _kernel_cases, each with its first load as its only load."""
    scenarios = [
        replace(step_scenario, load_schedule=(LoadStep(0.0, R),)) for R in (10.0, 15.0)
    ]
    for scn, _ in _kernel_cases():
        if scn is not scenarios[-1]:
            scenarios.append(scn)
    for scn in scenarios:
        step, _, jump = _compile(scn)(scn.load_schedule[0].R)
        if jump is not None:
            yield scn, step, jump


def test_bundled_interior_poles(step_scenario):
    """The jump's modal basis comes with one pole of each pair of the
    interior loop: on the bundled pair at 10 ohm, the sharing pair
    -1.4 ± 355j (the figures of the parbuck.control docstring) and the
    voltage pair -2.75e4 ± 4.18e4j."""
    slow, fast = _compile(step_scenario)(10.0)[2].poles
    assert slow == pytest.approx(-1.4 + 354.964j, rel=1e-6)
    assert fast == pytest.approx(-27500.5 + 41758.56j, rel=1e-6)


def test_each_modal_plane_is_an_eigenplane(step_scenario, monkeypatch):
    """For each pole lambda of a certified setup, v = V[:, 2p] + i·V[:, 2p+1]
    from the jump's basis is an eigenvector of the interior matrix A that
    certify receives, |A·v - lambda·v| <= 1e-13·max|A|·|v|, of unit 2-norm
    to 1e-14. A unit eigenvector is fixed up to a phase, which only rotates
    its plane's two columns, so the certificate's rows do not depend on how
    the basis was found."""
    matrices = []
    certify = modal.certify

    def capture(a, *args):
        matrices.append(a)
        return certify(a, *args)

    monkeypatch.setattr(modal, "certify", capture)
    setups, worst, worst_norm = 0, 0.0, 0.0
    for _, _, jump in _certified_setups(step_scenario):
        a = matrices[-1]
        size = max(abs(x) for row in a for x in row)
        setups += 1
        for p, lam in enumerate(jump.poles):
            v = [row[2 * p] + 1j * row[2 * p + 1] for row in jump.basis]
            residual = math.sqrt(sum(
                abs(sum(x * y for x, y in zip(row, v)) - lam * vi) ** 2 for row, vi in zip(a, v)
            ))
            norm = math.sqrt(sum(abs(vi) ** 2 for vi in v))
            worst = max(worst, residual / (size * norm))
            worst_norm = max(worst_norm, abs(norm - 1.0))
            assert residual <= 1e-13 * size * norm
            assert abs(norm - 1.0) <= 1e-14
    print(f"\n  {setups} certified setups; worst |Av - lambda·v| / (max|A|·|v|) {worst:.2e}, "
          f"worst ||v| - 1| {worst_norm:.2e}")
    assert setups >= 40


def _upper_pole(a, b, c, d):
    """The pole of [[a, b], [c, d]] in the upper half-plane."""
    return 0.5 * (a + d) + 1j * math.sqrt(-(0.25 * (a - d) ** 2 + b * c))


def test_block_poles_equal_the_closed_forms(step_scenario):
    """The jump's poles are those of the diagonal blocks that the design
    gives in the error coordinates (parbuck.control docstring): the voltage
    pair's [[-(1/R + k1)/Ctot, 1/Ctot], [-1/Ctot, -1]] and the realised
    sharing pair's [[-k2, -X], [rho·X - (rho-1)·k2²/X, -(rho + (rho-1)·k2)]],
    rho = 1 + Imax2/Imax1, on the bundled pair at 10 and 15 ohm and on every
    certified setup. The voltage pole matches to 1e-14 relative. The sharing
    block's lower-left entry of P·A·P^-1 loses digits to cancellation when
    X is small (5e-9 at X = 4.4), so the sharing pole matches to 1e-8."""
    setups, worst_s, worst_v = 0, 0.0, 0.0
    for scn, _, jump in _certified_setups(step_scenario):
        p1, p2, gains, R = scn.p1, scn.p2, scn.gains, scn.load_schedule[0].R
        k1, k2, Ctot = gains.k1, gains.k2, p1.C + p2.C
        X = coupling_constant(p1, p2, gains.x_guard)
        rho = 1.0 + p2.Imax / p1.Imax
        sharing = _upper_pole(-k2, -X, rho * X - (rho - 1.0) * k2 * k2 / X, -(rho + (rho - 1.0) * k2))
        voltage = _upper_pole(-(1.0 / R + k1) / Ctot, 1.0 / Ctot, -1.0 / Ctot, -1.0)
        slow, fast = jump.poles
        worst_s = max(worst_s, abs(slow - sharing) / abs(sharing))
        worst_v = max(worst_v, abs(fast - voltage) / abs(voltage))
        assert abs(slow - sharing) <= 1e-8 * abs(sharing)
        assert abs(fast - voltage) <= 1e-14 * abs(voltage)
        setups += 1
    print(f"\n  {setups} certified setups; worst relative error: sharing pole {worst_s:.2e}, "
          f"voltage pole {worst_v:.2e}")
    assert setups >= 40


_UNIT = [[float(i == j) for j in range(4)] for i in range(4)]
# Two distinct complex pairs: -1 ± 300j in the voltage rows, -2 ± 100j in the
# sharing rows.
_TWO_PAIRS = [
    [-1.0, 300.0, 0.0, 0.0], [-300.0, -1.0, 0.0, 0.0], [0.0, 0.0, -2.0, 100.0], [0.0, 0.0, -100.0, -2.0],
]


def test_modal_basis_reads_the_poles_off_the_blocks():
    """With the error coordinates equal to u, a block-diagonal matrix of two
    complex pairs has a basis, the sharing block's pole first."""
    assert modal.modal_basis(_TWO_PAIRS, _UNIT)[0] == (-2.0 + 100.0j, -1.0 + 300.0j)


@pytest.mark.parametrize("a, p", [
    ([[-1.0, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0], [0.0, 0.0, -3.0, 0.0], [0.0, 0.0, 0.0, -4.0]], _UNIT),
    ([[-1.0, 300.0, 0.0, 0.0], [-300.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 300.0], [0.0, 0.0, -300.0, -1.0]], _UNIT),
    ([[0.0] * 4 for _ in range(4)], _UNIT),
    ([[-1.0, 300.0, 1e-6, 0.0], *_TWO_PAIRS[1:]], _UNIT),
    (_TWO_PAIRS, [*_UNIT[:3], [0.0, 0.0, 1.0, 0.0]]),
], ids=["real-poles", "repeated-pair", "zero", "coupled", "singular-p"])
def test_modal_basis_refuses_what_it_cannot_certify(a, p):
    """Real poles, a repeated complex pair and the zero matrix have no basis
    of two distinct invariant planes; voltage rows that are not decoupled
    from the sharing coordinates (1e-6 against 1e-12 of max|A_z|) and
    singular error coordinates give no blocks to read: modal_basis returns
    None, and does not raise."""
    assert modal.modal_basis(a, p) is None


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10, 1e-12])
def test_modal_basis_refuses_a_basis_that_fails_its_inverse_check(gap, monkeypatch):
    """Voltage poles ±i and sharing poles ±i·sqrt(1 + gap), coupled: the
    voltage plane's eigenvector nearly lies in the sharing plane, so V·W
    misses I by more than 1e-12 for gaps of 1e-6 to 1e-10, although W was
    found, and modal_basis returns None. At a gap of 1e-12 the basis passes."""
    inverses, solve = [], modal._solve

    def spy(a, b):
        inverses.append(solve(a, b))
        return inverses[-1]

    monkeypatch.setattr(modal, "_solve", spy)
    a = [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0],
         [0.0, 1.0, -(1.0 + gap), 0.0]]
    got = modal.modal_basis(a, _UNIT)
    assert len(inverses) == 2 and None not in inverses  # P^-1, then W
    assert (got is None) == (gap > 1e-12)


def test_certify_refuses_a_singular_fixed_point_system(step_scenario, monkeypatch):
    """When I - M, whose solution is the interior map's fixed point, is
    singular, certify returns None; the same call with the system solved
    certifies the bundled pair at 10 ohm."""
    args = []
    certify = modal.certify

    def capture(*call):
        args.append(call)
        return certify(*call)

    monkeypatch.setattr(modal, "certify", capture)
    assert _compile(step_scenario)(10.0)[2] is not None
    # modal_basis inverts P and V, each against the identity; the fixed
    # point's system is the one other call.
    systems, solve = [], modal._solve

    def singular_system(a, b):
        if b is modal._IDENTITY:
            return solve(a, b)
        systems.append(b)
        return None

    monkeypatch.setattr(modal, "_solve", singular_system)
    assert certify(*args[0]) is None
    assert len(systems) == 1


def _state_at(jump, z):
    """The absolute state whose modal coordinates about the jump's fixed
    point are z."""
    return tuple(f + sum(v * zi for v, zi in zip(row, z)) for f, row in zip(jump.fixed, jump.basis))


def _step_n(step, dt, n, state):
    """n full steps of the kernel, and whether any of them clamped d2."""
    clamped = False
    for i in range(1, n + 1):
        *state, sat2 = step(i * dt, dt, *state)
        clamped |= sat2
    return tuple(state), clamped


def test_jump_equals_repeated_steps(step_scenario):
    """jump(n) equals n calls of step to 1e-10 of each component's size,
    from certified states near each setup's fixed point, and jump(1) equals
    one step bit for bit: both apply the interior map's one set of forms."""
    rng = random.Random(2718)
    setups, worst = 0, 0.0
    for scn, step, jump in _certified_setups(step_scenario):
        setups += 1
        scale = (scn.p1.Imax, scn.p2.Imax, scn.Vref, 1.0)
        for _ in range(3):
            # Halve the draw until it is certified; at the fixed point it is.
            for k in range(60):
                z = [rng.uniform(-1.0, 1.0) * 0.5 ** k for _ in range(4)]
                start = _state_at(jump, z)
                if jump(scn.record_every, *start) is not None:
                    break
            for n in (1, 2, 13, scn.record_every):
                jumped = jump(n, *start)
                assert jumped is not None
                stepped, clamped = _step_n(step, scn.dt, n, start)
                assert not clamped
                if n == 1:
                    assert repr(jumped) == repr(stepped)
                for got, want, size in zip(jumped, stepped, scale):
                    worst = max(worst, abs(got - want) / size)
                    assert abs(got - want) <= 1e-10 * size
    print(f"\n  {setups} certified setups; worst error {worst:.2e} of the component scale")
    assert setups >= 40


def _on_bound(rng, jump, row, aligned):
    """Modal coordinates z with radii on one half-space's certified line
    a0·r0 + a1·r1 = slack, and per plane a phase along that half-space's
    normal (aligned: its value starts at the bound) or a random one (the
    rotation can carry it there later)."""
    h = jump.halfspaces[row][0]
    a0, a1, slack = jump.rows[row]
    hv = [sum(x * v for x, v in zip(h, col)) for col in zip(*jump.basis)]
    share = rng.random()
    z = []
    for (p, q), r in zip((hv[:2], hv[2:]), (share * slack / a0, (1.0 - share) * slack / a1)):
        phase = math.atan2(q, p) + (0.0 if aligned else rng.uniform(-math.pi, math.pi))
        z += [r * math.cos(phase), r * math.sin(phase)]
    return z


def test_jump_half_spaces_are_the_step_conditions(step_scenario):
    """The twelve half-spaces h·u + c <= bound say what a step on the
    interior map needs: at interior states, the four guard values are the
    readable controller's d1 at the four RK4 stages, each bounded above by
    duty_max and, negated, below by duty_min; the other four are -iL1,
    -iL2 <= CCM_TOL, d2 <= 1 and -d2 <= 0."""
    rng = random.Random(99)
    checked = 0
    for scn, _, jump in islice(_certified_setups(step_scenario), 12):
        gains, R = scn.gains, scn.load_schedule[0].R
        assert [bound for *_, bound in jump.halfspaces] == (
            [gains.duty_max, -gains.duty_min] * 4 + [CCM_TOL, CCM_TOL, 1.0, 0.0]
        )
        for _ in range(4):
            state, _ = identities.unsaturated_sample(rng, scn.p1, scn.p2, gains, R, scn.Vref)
            _, signals = _oracle_step(scn, state)
            if any(sig.saturated for sig in signals):
                continue
            u = [x - s for x, s in zip((state.iL1, state.iL2, state.Vo, state.d2), jump.star)]
            values = [sum(x * y for x, y in zip(h, u)) + c for h, c, _ in jump.halfspaces]
            want = [d for sig in signals for d in (sig.d1, -sig.d1)] + [
                -state.iL1, -state.iL2, state.d2, -state.d2,
            ]
            assert values == pytest.approx(want, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked >= 30


def test_jump_certificate_bounds_each_half_space(step_scenario):
    """Started anywhere on a half-space's certified line, n steps of the
    interior map keep h·u + c <= bound, for each of the twelve half-spaces
    on its own, whether or not it is the one that binds."""
    rng = random.Random(1414)
    worst = -math.inf
    for index, (scn, step, jump) in enumerate(_certified_setups(step_scenario)):
        for row, (h, c, bound) in enumerate(jump.halfspaces):
            for draw in range(8 if index < 2 else 2):
                start = _state_at(jump, _on_bound(rng, jump, row, draw % 2 == 0))
                u = [x - s for x, s in zip(start, jump.star)]
                for k in range(scn.record_every + 1):
                    value = sum(x * y for x, y in zip(h, u)) + c
                    worst = max(worst, (value - bound) / (abs(bound) + abs(c)))
                    assert value <= bound, f"half-space {row} left at step {k}"
                    u = [sum(x * y for x, y in zip(m[:4], u)) + m[4] for m in jump.state_map]
    print(f"\n  closest approach to a bound {worst:.2e} of its scale")


def test_jump_certificate_is_sound(step_scenario):
    """States drawn just inside the certified region, each one pushing one
    half-space to its certified bound: whenever the check passes, each of
    the n skipped steps keeps all four stage guards within the duty bounds
    (the readable oracle clamps d1 at no stage), never clamps d2 and keeps
    both currents at or above -CCM_TOL.

    The check reads only the radii (r0, r1) of the two modal planes, so a
    draw on one half-space's line is shrunk into every other half-space's.
    """
    rng = random.Random(1618)
    binding = collections.Counter()
    drawn = 0
    for index, (scn, step, jump) in enumerate(_certified_setups(step_scenario)):
        n = scn.record_every
        for row in range(len(jump.halfspaces)):
            for draw in range(6 if index < 2 else 1):
                z = _on_bound(rng, jump, row, draw % 2 == 0)
                r0, r1 = math.hypot(*z[:2]), math.hypot(*z[2:])
                fits = [s / (b0 * r0 + b1 * r1) for b0, b1, s in jump.rows]
                binding[fits.index(min(fits))] += 1
                state = _state_at(jump, [x * min(fits) * (1.0 - 1e-9) for x in z])
                jumped = jump(n, *state)
                assert jumped is not None
                drawn += 1
                for i in range(1, n + 1):
                    _, signals = _oracle_step(scn, PlantState(*state))
                    assert not any(sig.saturated for sig in signals), \
                        f"d1 clamped at step {i} of {n}, half-space {row}"
                    *state, sat2 = step(i * scn.dt, scn.dt, *state)
                    assert not sat2, f"d2 clamped at step {i} of {n}, half-space {row}"
                    assert min(state[0], state[1]) >= -CCM_TOL
                for got, want in zip(jumped, state):
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    print(f"\n  {drawn} certified draws; binding half-space counts {sorted(binding.items())}")
    assert drawn >= 500


class Counts(NamedTuple):
    """What draining simulate()'s run takes: its records, its steps taken
    one at a time, its jump calls, the steps its accepted jumps cover, and
    its Stretches."""

    records: int
    stepped: int
    jumps: int
    jumped: int
    stretches: list


def _count_steps(scenario) -> Counts:
    """The Counts of draining simulate()'s run."""
    step_at, calls = counting(_compile(scenario))
    records, stretches = 0, []
    for item in _stream(scenario, step_at):
        if type(item) is Stretch:
            records += len(item.times)
            stretches.append(item)
        else:
            records += 1
    return Counts(records, calls["step"], calls["jump"], calls["jumped"], stretches)


def test_bundled_load_step_jumps_almost_every_step(step_scenario, constant_scenario):
    """On the bundled load step, accepted jumps and the whole record
    intervals counted at rest after a jump cover at least 99% of the steps;
    a run recording more often than every MIN_JUMP steps builds no jump.

    The load step starts at equilibrium, so its first jump, one whole
    record interval, returns its input bit for bit: the 49,950 steps after
    it, up to the event, are counted at rest, and their 999 records come as
    16 Stretches. After the event the run steps 50 steps and jumps the
    rest: 1,001 jump calls in all, 50,000 jumped steps and 50 stepped, and
    still 2,002 records. constant_load makes one jump call and counts the
    rest of its run.

    With a record at every step, a run from equilibrium steps one step of
    a stretch at a fixed point and counts the rest, and a run from a state
    off it steps every step: 1 of 1,000 steps over 1 ms from equilibrium,
    all 1,000 from Vo*0.999, and 50,001 of the bundled load step's
    100,000, one before its event and all 50,000 after it."""
    counts = _count_steps(step_scenario)
    total = step_count(step_scenario)
    at_rest = total - counts.stepped - counts.jumped
    print(f"\n  {counts.jumped} of {total} steps jumped, {at_rest} counted at rest, "
          f"{counts.stepped} stepped; {counts.jumps} jump calls, {counts.records} records, "
          f"{len(counts.stretches)} Stretches")
    assert counts.records == 2002 and total - counts.stepped >= 0.99 * total
    assert (counts.stepped, counts.jumps, counts.jumped) == (50, 1001, 50000)
    assert len(counts.stretches) == 16
    assert all(t < 0.05 for stretch in counts.stretches for t in stretch.times)
    assert _count_steps(constant_scenario)[:4] == (2001, 0, 1, 50)
    for every in range(1, MIN_JUMP + 1):
        jump = _compile(replace(step_scenario, record_every=every))(10.0)[2]
        assert (jump is None) == (every < MIN_JUMP)
    dense = replace(step_scenario, t_end=0.001, record_every=1)
    start = dense.initial_state
    off = replace(dense, initial_state=start._replace(Vo=start.Vo * 0.999))
    assert step_count(dense) == 1000
    assert _count_steps(dense)[:3] == (1001, 1, 0)
    assert _count_steps(off)[:3] == (1001, 1000, 0)
    assert _count_steps(replace(step_scenario, record_every=1))[:3] == (100002, 50001, 0)


def test_modal_is_imported_only_by_a_run_that_can_jump():
    """parbuck.modal, which builds the jump certificates, is imported on
    first use: after `import parbuck` and a drained run that records every
    step it is not loaded, and a drained run at the shipped cadence loads
    it. A fresh interpreter runs both, so no other test has imported it."""
    code = textwrap.dedent("""
        import collections, sys
        from dataclasses import replace
        import parbuck
        scn = parbuck.parse_scenario(parbuck.bundled_scenario_text("load_step"))
        scn = replace(scn, t_end=0.001)
        assert scn.record_every == 50
        collections.deque(parbuck.simulate(replace(scn, record_every=1)), maxlen=0)
        print("parbuck.modal" in sys.modules)
        collections.deque(parbuck.simulate(scn), maxlen=0)
        print("parbuck.modal" in sys.modules)
    """)
    # The child imports the package under test, installed or not.
    src = str(Path(parbuck.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("every", [10**6, 10**400], ids=["1e6", "1e400"])
def test_sparse_records_keep_their_jumps(step_scenario, step_trace, every):
    """After a failed jump check the run checks again within RECHECK_AFTER
    steps, not only at the next record: with one record per 10**6 steps, or
    per 10**400, which no float holds, the bundled load step still jumps at
    least 99% of its steps, and its four records (start, both sides of the
    event, end) match the rows of the shipped cadence at the same times to
    1e-10 of each column's peak. The shipped cadence of 50 is within
    RECHECK_AFTER, so it checks only at its records."""
    assert RECHECK_AFTER >= step_scenario.record_every
    sparse = replace(step_scenario, record_every=every)
    records, stepped, *_ = _count_steps(sparse)
    total = step_count(sparse)
    print(f"\n  {total - stepped} of {total} steps jumped, {records} records")
    assert records == 4 and total - stepped >= 0.99 * total
    peaks = [max(abs(float(x)) for x in column) or 1.0 for column in zip(*step_trace)]
    by_time = collections.defaultdict(list)
    for rec in step_trace:
        by_time[rec.t].append(rec)
    trace = run(sparse)
    assert [r.t for r in trace] == [0.0, 0.05, 0.05, step_scenario.t_end]
    for rec, want in zip(trace, [by_time[0.0][0], *by_time[0.05], by_time[step_scenario.t_end][-1]]):
        for name, got, w, peak in zip(TraceRecord._fields, rec, want, peaks):
            assert abs(got - w) <= 1e-10 * peak, f"t={rec.t} {name}"


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
    """An overflow raises DivergenceError naming the end time of the step
    that overflowed, as passed to the kernel, and its first non-finite
    component in the order d2, iL1, iL2, Vo.

    Three steps pin that order. From equilibrium with Vo 1e-6 off, the first
    1e100 s step overflows all four: d2. From Vo = 1e278, a 2e4 s step
    overflows iL1, iL2 and Vo but not d2: iL1. From iL2 = 2.05e190 and
    d2 = 2.68e303, a 0.15 us step overflows iL2 alone: iL2. No run
    feeds a step a d2 outside [0, 1], since each step clamps it; among
    600,000 random states with d2 in [0, 1], currents >= 0 and |Vo| up to
    1e308, at step lengths up to 1e6 s, none gave a step that names iL2.
    """
    eq = equilibrium(constant_scenario.p1, constant_scenario.p2, 10.0, 8.0)
    step = _compile(constant_scenario)(10.0)[0]
    dt = 1e100
    state = (eq.iL1, eq.iL2, eq.Vo + 1e-6, eq.d2)
    with pytest.raises(DivergenceError) as err:
        for i in range(1, 1001):
            t_next = i * dt
            *state, _ = step(t_next, dt, *state)
    print(f"\n  {err.value}")
    assert err.value.component == "d2"
    assert err.value.t == t_next == dt
    for state, h, name in (
        ((eq.iL1, eq.iL2, 1e278, eq.d2), 2e4, "iL1"),
        ((eq.iL1, 2.0522336253448473e+190, eq.Vo, 2.6846448886757084e+303),
         1.4971744679313372e-07, "iL2"),
    ):
        with pytest.raises(DivergenceError) as err:
            step(1.0, h, *state)
        assert (err.value.component, err.value.t) == (name, 1.0)


# sha256 of the two bundled-load-step CSVs, so that any change to the
# kernel's arithmetic shows, however small.
LOAD_STEP_SHA256 = "3ed7bcf4bb10673f9e50cc9c8e4453842a644fb7d3d52a7a40e729dc3f3759c7"
DENSE_TRACE_SHA256 = "f79363ae485c2f68cf84b5af1aff77cd0bd29988788c50260c3d1dbbc2b19edc"


# sha256 of repr((poles, basis, inverse, fixed, rows)) of the bundled pair's
# jump certificates at its two loads, so that a changed certificate shows
# even where it accepts the same jumps.
JUMP_CERTIFICATES_SHA256 = "46546b27243f2ffad1ab6a1cbd7eec4b59c4a3c3650921a8dcd5ac4ab0b45638"


def _assert_matches_reference(trace, workload: str) -> None:
    """Every row stored with the benchmark matches the trace: times, loads
    and flags exactly, every other column to 1e-10 of its stored scale."""
    ref = json.loads((BENCH_REFERENCE / f"{workload}.json").read_text(encoding="utf-8"))
    assert len(trace) == ref["n_rows"]
    worst = 0.0
    for i, *want in ref["rows"]:
        for name, got, w, scale in zip(TraceRecord._fields, trace[i], want, ref["scale"]):
            if name in ("t", "R_active", "sat1", "sat2"):
                assert got == w, f"row {i} {name}"
            else:
                worst = max(worst, abs(got - w) / scale)
                assert abs(got - w) <= 1e-10 * scale, f"row {i} {name}"
    print(f"\n  {workload}: worst error {worst:.2e} of the column scale")


def test_bundled_load_step_trace_matches_bench_reference(step_trace):
    """The bundled load step matches the rows stored with the benchmark, and
    its CSV has the pinned sha256."""
    _assert_matches_reference(step_trace, "load_step")
    csv = format_trace_csv(step_trace).encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == LOAD_STEP_SHA256


def test_dense_load_step_trace_matches_bench_reference(step_scenario):
    """The bundled load step recorded at every step (1e5 records, both sides
    of the event) matches the benchmark's rows and the pinned sha256."""
    trace = run(replace(step_scenario, record_every=1))
    _assert_matches_reference(trace, "dense_trace")
    csv = format_trace_csv(trace).encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == DENSE_TRACE_SHA256


def test_bundled_jump_certificates_are_pinned(step_scenario):
    """The jump certificates of the bundled pair at 10 and 15 ohm are
    bit for bit the pinned ones."""
    step_at = _compile(step_scenario)
    certificates = []
    for R in (10.0, 15.0):
        jump = step_at(R)[2]
        certificates.append((jump.poles, jump.basis, jump.inverse, jump.fixed, jump.rows))
    digest = hashlib.sha256(repr(tuple(certificates)).encode("utf-8")).hexdigest()
    assert digest == JUMP_CERTIFICATES_SHA256


# sha256 of the CSVs of runs whose rest ends inside a segment, each taken
# from a run that counts no rest (before jumps at rest passed their records
# on as Stretches; load_step-65 from a copy of _stream without its two rest
# shortcuts): (scenario, cadence, t_end or None for the file's, sha256).
REST_SHA256 = (
    # A rest, then a 4-step jump short of a record interval, then the
    # shortened step.
    ("constant_load", 7, 0.0123457,
     "7053012eed34a684458f24a9df4e8b7f2085fab1731cf4660f20ec1e21c3fa0d"),
    ("constant_load", 1000, 0.0123457,
     "134e23ba9aa55dd23aa711585b333a760af5bcbc77ab320bb5c6442e84071de4"),
    # The event falls inside a record interval.
    ("load_step", 65, 0.0512345,
     "66626c68041674864e83d038c07cee49b1bda01a6399d1cd8260566b645a27ad"),
    # A rest of 24,999 records, cut into Stretches of STRETCH_RECORDS times.
    ("constant_load", 4, None,
     "b25bfe959e11325c36cc003d1b5f94fde3c04eede0b2ae17489f302b7792462a"),
)


@pytest.mark.parametrize("name, every, t_end, digest", REST_SHA256,
                         ids=[f"{n}-{e}" for n, e, _, _ in REST_SHA256])
def test_rests_ending_inside_a_segment_are_pinned(name, every, t_end, digest):
    """A run at rest that leaves its rest before its segment ends, by a
    jump short of a record interval, a shortened step or a load event, or
    whose rest spans many Stretches, writes the pinned CSV bytes."""
    scn = replace(parse_scenario(bundled_scenario_text(name)), record_every=every)
    if t_end is not None:
        scn = replace(scn, t_end=t_end)
    csv = format_trace_csv(run(scn)).encode("utf-8")
    assert hashlib.sha256(csv).hexdigest() == digest


# sha256 of the CSV text and the repr of compute_metrics of each run of
# test_output_matrix_is_pinned, in its order.
OUTPUT_MATRIX_SHA256 = "d462bb5f89ee83e0ab01a2fdc126398e6d6559374f7e849d210a9aab524c718a"


def test_output_matrix_is_pinned(step_scenario):
    """The CSV bytes and the metrics' repr of both bundled scenarios, at
    cadences around MIN_JUMP, STRETCH_RECORDS and the shipped 50, each to
    its own t_end and to an end off the dt grid after the load event, and
    of the off-grid load train at cadences 1 and 50, are the pinned ones.
    The train's clamped and shortened steps run the kernel's staged RK4
    off the interior map, which the other byte pins barely reach."""
    cases = [
        replace(scn, record_every=every, t_end=t_end)
        for scn in (parse_scenario(bundled_scenario_text(n)) for n in ("load_step", "constant_load"))
        for every in (1, 3, 4, 7, 50, 64, 65, 200, 10**6)
        for t_end in (scn.t_end, 0.06 + 0.37 * scn.dt)
    ] + [replace(_off_grid_train(step_scenario), record_every=every) for every in (1, 50)]
    digest = hashlib.sha256()
    for scn in cases:
        blocks = []
        for block, text in trace_csv_rows(stream(scn)):
            digest.update(text.encode("utf-8"))
            blocks.append(block)
        metrics = compute_metrics(chain.from_iterable(blocks), scn.Vref)
        digest.update(repr(metrics).encode("utf-8"))
    assert digest.hexdigest() == OUTPUT_MATRIX_SHA256


def test_drained_run_memory_does_not_grow_with_the_schedule(step_scenario):
    """Draining simulate() builds each load segment's kernel when the run
    enters the segment and drops it when the run leaves, so a 200-event
    schedule peaks within 1.5x of a 20-event one over the same steps. That
    holds over 0.01 s, whose 50-step segments are stepped, and over 0.02 s,
    whose 100-step segments each build a jump certificate and jump.

    A full collection before each measurement empties CPython's free lists,
    so objects parked there by earlier work are not counted.
    """
    def train(n_events: int, t_end: float) -> Scenario:
        spacing = t_end / (n_events + 1)
        events = tuple(
            LoadStep((i + 0.37) * spacing, (10.0, 15.0)[i % 2]) for i in range(1, n_events + 1)
        )
        return replace(step_scenario, load_schedule=(LoadStep(0.0, 10.0), *events), t_end=t_end)

    for t_end in (0.01, 0.02):
        short, long = train(20, t_end), train(200, t_end)
        collections.deque(simulate(long), maxlen=0)  # warm-up
        peaks = []
        tracemalloc.start()
        try:
            for scn in (short, long):
                gc.collect()
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                collections.deque(simulate(scn), maxlen=0)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        print(f"\n  {t_end} s: peak {peaks[0] / 1024:.1f} KiB (20 events), "
              f"{peaks[1] / 1024:.1f} KiB (200 events)")
        assert peaks[1] <= 1.5 * peaks[0]


def test_drained_run_leaves_no_reference_cycles(step_scenario):
    """Each segment's kernel, its jump included, is freed by reference
    counting alone: draining a 19-event run whose 1 ms segments jump leaves
    nothing for the cycle collector, which stays off during the drain so
    that it cannot clear cycles early."""
    events = tuple(LoadStep(i * 1e-3 + 3.7e-7, (15.0, 10.0)[i % 2]) for i in range(1, 20))
    scn = replace(step_scenario, load_schedule=(LoadStep(0.0, 10.0), *events), t_end=0.02)
    assert _count_steps(scn).stepped < step_count(scn) / 10
    gc.collect()
    gc.disable()
    try:
        collections.deque(simulate(scn), maxlen=0)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


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


def _oracle_run(scn: Scenario) -> list:
    """The trace of scn stepped by rk4_update over controller_step and
    plant_derivatives, d2 clamped to [0, 1] after each step, on simulate()'s
    segment plan and record layout."""
    p1, p2, gains, dt, every = scn.p1, scn.p2, scn.gains, scn.dt, scn.record_every

    def record(t, y, R, sat2):
        sig = controller_step(PlantState(*y), scn.Vref, R, p1, p2, gains)
        return TraceRecord(
            t, y[0], y[1], y[2], sig.d1, y[3], sig.d2_dot, sig.e, sig.e2,
            sig.lyap_v, sig.lyap_share, R, sig.saturated, sat2,
        )

    state = scn.initial_state
    y = (state.iL1, state.iL2, state.Vo, state.d2)
    sat2 = False
    steps = 0
    trace = []
    for start, end, R, n_full, remainder in _segments(scn):
        trace.append(record(start, y, R, sat2))

        def f(x, R=R):
            sig = controller_step(PlantState(*x), scn.Vref, R, p1, p2, gains)
            return tuple(plant_derivatives(PlantState(*x), p1, p2, R, sig.d1, sig.d2_dot))

        n_sub = n_full + (remainder > 0.0)
        for i in range(1, n_sub + 1):
            t = end if i == n_sub else start + i * dt
            *y, d2 = numerics.rk4_update(f, y, dt if i <= n_full else remainder)
            y = (*y, min(max(d2, 0.0), 1.0))
            sat2 = y[3] != d2
            steps += 1
            if steps % every == 0 and t != end:
                trace.append(record(t, y, R, sat2))
        trace.append(record(end, y, R, sat2))
    return trace


def _off_grid_train(step_scenario: Scenario) -> Scenario:
    """The bundled pair under twenty load events over 2 ms, each at its own
    offset off the dt grid, every fourth one 90 steps late."""
    loads = (15.0, 10.0, 12.5, 11.0)
    offsets = [(0.37 * i % 1.0 + 90 * (i % 4 == 0)) * step_scenario.dt for i in range(1, 21)]
    events = tuple(
        LoadStep(i * 9.5e-5 + offset, loads[i % 4]) for i, offset in enumerate(offsets, 1)
    )
    return replace(step_scenario, load_schedule=(LoadStep(0.0, 10.0), *events), t_end=0.002)


def test_off_grid_load_train_matches_the_readable_oracle(step_scenario):
    """Twenty load events over 2 ms, each at its own offset off the dt grid
    so that each of the 21 segments ends in a shortened step, with settled
    stretches jumped, give the trace that plain RK4 over the readable
    functions gives: t, R_active, sat1 and sat2 exactly, every other column
    to 1e-9 of its peak. Each event leaves d1 clamped for a few steps, and
    every fourth event comes 90 steps late, 4 or 5 steps before the next,
    so both kinds of staged step, clamped full steps and shortened steps,
    meet the clamp."""
    scn = _off_grid_train(step_scenario)
    assert sum(seg.remainder > 0.0 for seg in _segments(scn)) == 21
    assert _count_steps(scn).stepped < step_count(scn) / 2
    trace, want = run(scn), _oracle_run(scn)
    assert len(trace) == len(want)
    peaks = [max(abs(float(x)) for x in column) or 1.0 for column in zip(*want)]
    worst = 0.0
    for rec, w in zip(trace, want):
        for name, got, expected, peak in zip(TraceRecord._fields, rec, w, peaks):
            if name in ("t", "R_active", "sat1", "sat2"):
                assert got == expected, f"t={rec.t} {name}"
            else:
                worst = max(worst, abs(got - expected) / peak)
                assert abs(got - expected) <= 1e-9 * peak, f"t={rec.t} {name}"
    print(f"\n  {len(trace)} records; worst error {worst:.2e} of the column peak")


def _step_every_step(scn: Scenario) -> list:
    """The trace of scn with the kernel's step and record called on every
    step of simulate()'s segment plan: no jump and no stationary shortcut."""
    step_at, dt, every = _compile(scn), scn.dt, scn.record_every
    state = scn.initial_state
    x, sat2, steps, trace = (state.iL1, state.iL2, state.Vo, state.d2), False, 0, []
    for seg in _segments(scn):
        step, record, _ = step_at(seg.R)
        trace.append(record(seg.start, *x, sat2))
        n_sub = seg.n_full + (seg.remainder > 0.0)
        for i in range(1, n_sub + 1):
            t = seg.end if i == n_sub else seg.start + i * dt
            *x, sat2 = step(t, dt if i <= seg.n_full else seg.remainder, *x)
            steps += 1
            if steps % every == 0 and t != seg.end:
                trace.append(record(t, *x, sat2))
        trace.append(record(seg.end, *x, sat2))
    return trace


@pytest.mark.parametrize("every", [1, 7])
def test_stationary_stretches_equal_stepping_every_step(constant_scenario, step_scenario, every):
    """A run that counts a stationary stretch's steps at once and writes its
    records from one body gives the trace of stepping every step, record for
    record, as tuples and by repr, and still steps each shortened step.

    Cases, all ending 0.37 steps off the dt grid: constant_load and
    load_step to 0.06 s, which start at equilibrium, a fixed point of the
    step, and a 10 uH first leg stepped by 1e-21 s from a state that each
    step rounds back to, d2 held at 0 by its clamp, so that every record
    has sat2 set. The two runs that never leave their start state step one
    full step and the shortened one. At every 7 each case also runs with its
    jumps kept, as simulate() runs it: constant_load then jumps one record
    interval, which returns its input, counts the whole intervals after it
    at rest up to its last 3 full steps, fewer than MIN_JUMP, and steps one
    of them. After load_step's event, jumps round differently from steps,
    so with jumps kept that run is compared up to the event.
    """
    dt = constant_scenario.dt
    rounded_back = replace(
        constant_scenario, p1=replace(constant_scenario.p1, L=1e-5), dt=1e-21,
        t_end=1000.37e-21, initial_state=PlantState(2.0, 0.5, 8.0, 0.0),
    )
    cases = (  # (scenario, stationary, last time at which jumps agree)
        (replace(constant_scenario, t_end=0.06 + 0.37 * dt), True, math.inf),
        (replace(step_scenario, t_end=0.06 + 0.37 * dt), False, 0.05),
        (rounded_back, True, math.inf),
    )
    for base, stationary, jumps_agree_until in cases:
        scn = replace(base, record_every=every)
        want = _step_every_step(scn)
        assert all(r.sat2 for r in want[1:]) is (base is rounded_back)
        step_at = _compile(scn)
        for keep_jumps in (False, True) if every >= MIN_JUMP else (False,):
            calls = []

            def logging_step_at(R):
                step, record, jump = step_at(R)

                def logged(t_next, h, *x):
                    calls.append((t_next, h))
                    return step(t_next, h, *x)

                return logged, record, jump if keep_jumps else None

            got = list(expanded(_stream(scn, logging_step_at)))
            assert len(got) == len(want)
            assert [t for t, h in calls if h != scn.dt] == [scn.t_end]
            assert (len(calls) == 2) is stationary
            for rec, w in zip(got, want):
                if keep_jumps and rec.t > jumps_agree_until:
                    break
                assert rec == w and repr(rec) == repr(w), f"t={rec.t}"


def test_a_record_step_at_a_segment_end_is_recorded_once(constant_scenario):
    """A record step whose time rounds onto its segment's end is left to the
    segment boundary, on the jump path and on the Stretch path.

    The case: constant_load at equilibrium under 10 ohm throughout, with an
    event at 16 s, t_end = 16.000005 s and a record every 16,000,005 steps.
    The second segment's fifth full step is a record step, 16.0 + 5·dt
    rounds onto its end, and a shortened step of 1.59e-15 s follows. The
    kernel jumps both segments' full steps and steps only the shortened
    one. A stub kernel whose step returns its input and that has no jump
    counts the first segment's 16,000,000 steps at once instead, and the
    second segment's record step falls in its stationary stretch. Both give
    four records, t_end once, and no Stretch.
    """
    scn = replace(
        constant_scenario, load_schedule=(LoadStep(0.0, 10.0), LoadStep(16.0, 10.0)),
        t_end=16.000005, record_every=16_000_005,
    )
    _, (start, end, _, n_full, remainder) = _segments(scn)
    assert (start, end, n_full) == (16.0, scn.t_end, 5)
    assert start + n_full * scn.dt == end and remainder > scn.dt * 1e-9
    times = [0.0, 16.0, 16.0, scn.t_end]
    assert [r.t for r in run(scn)] == times
    assert _count_steps(scn)[:4] == (4, 1, 2, 16_000_005)

    step_at = _compile(scn)
    calls = []

    def resting_step_at(R):
        def step(t_next, h, *x):
            calls.append(t_next)
            return (*x, False)

        return step, step_at(R)[1], None

    items = list(_stream(scn, resting_step_at))
    assert [type(item) for item in items] == [TraceRecord] * 4
    assert [r.t for r in items] == times
    # One step at the start of each stationary stretch, and the shortened one.
    assert calls == [scn.dt, 16.0 + scn.dt, scn.t_end]


def _bits(records) -> bytes:
    """Every field of records as a double, so that equal bytes mean equal
    reprs (the sign of a zero included)."""
    return array("d", chain.from_iterable(records)).tobytes()


def test_duty_bound_at_the_equilibrium_duty_refuses_the_jump(step_scenario, monkeypatch):
    """With duty_max = 0.5, the equilibrium d1 = Vref/Vin at either load,
    the d1 guard rows have no slack at the fixed point: certify refuses both
    loads, and the same call with the bundled duty_max = 1 certifies, so the
    refusal is the slack's. The run, with no jump, still gives the trace of
    stepping every step, bit for bit."""
    scn = replace(step_scenario, gains=replace(step_scenario.gains, duty_max=0.5),
                  t_end=0.06)
    calls = []
    certify = modal.certify

    def capture(*args):
        calls.append((args, certify(*args)))
        return calls[-1][1]

    monkeypatch.setattr(modal, "certify", capture)
    got = run(scn)
    assert len(calls) == 2
    for (a, p, state_map, star, halfspaces, n_max), jump in calls:
        assert jump is None
        assert sum(bound == 0.5 for _, _, bound in halfspaces) == 4
        relaxed = [(h, c, 1.0 if bound == 0.5 else bound) for h, c, bound in halfspaces]
        assert certify(a, p, state_map, star, relaxed, n_max) is not None
    want = _step_every_step(scn)
    assert got == want and _bits(got) == _bits(want)
    assert any(r.sat1 for r in got)


def test_stream_expands_to_simulate(constant_scenario, step_scenario):
    """stream() yields simulate()'s records, its records at rest grouped in
    Stretches: expanded, it equals simulate() as tuples and bit for bit. Each
    Stretch holds 1 to STRETCH_RECORDS strictly increasing times, none of
    them a segment's end, and simulate() gives its records the Stretch's
    body objects, one set for them all.

    Cases, recording every step: the bundled load step to 0.06 s and
    constant_load to 0.02 s, both ending 0.37 steps off the dt grid, and
    the 10 uH leg of test_stationary_stretches_equal_stepping_every_step,
    stepped by 1e-21 s and held at d2 = 0 by its clamp, also at cadence 7.
    The load step is at rest for 49,999 records before its event.
    """
    dt = step_scenario.dt
    rounded_back = replace(
        constant_scenario, p1=replace(constant_scenario.p1, L=1e-5), dt=1e-21,
        t_end=1000.37e-21, initial_state=PlantState(2.0, 0.5, 8.0, 0.0),
    )
    cases = (
        replace(step_scenario, record_every=1, t_end=0.06 + 0.37 * dt),
        replace(constant_scenario, record_every=1, t_end=0.02 + 0.37 * dt),
        replace(rounded_back, record_every=1), replace(rounded_back, record_every=7),
    )
    for k, scn in enumerate(cases):
        items = list(stream(scn))
        want = list(simulate(scn))
        got = list(expanded(items))
        assert got == want and _bits(got) == _bits(want)
        ends = {seg.end for seg in _segments(scn)}
        at = 0  # index in want of each item's first record
        stretches = 0
        for item in items:
            if type(item) is not Stretch:
                at += 1
                continue
            stretches += 1
            times, body = item
            assert 1 <= len(times) <= STRETCH_RECORDS and len(body) == 13
            assert all(a < b for a, b in zip(times, times[1:])) and not ends.intersection(times)
            block = want[at:at + len(times)]
            assert [r.t for r in block] == times
            assert all(a is b for r in block for a, b in zip(r[1:], block[0][1:]))
            at += len(times)
        assert at == len(want) and stretches
        if k == 0:
            at_rest = sum(len(item.times) for item in items if type(item) is Stretch)
            assert (at_rest, stretches, len(want)) == (49999, 782, 60003)


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
    scn = replace(constant_scenario, initial_state=PlantState(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(CcmViolationError) as err:
        run(scn)
    print(f"\n  {err.value}")
    assert err.value.t < 1e-3


def test_run_rejects_invalid_scenarios(constant_scenario):
    """run() never meets an invalid scenario: building one raises."""
    for overrides, message in (
        (dict(dt=0.0), "dt must be positive, got 0.0"),
        (dict(t_end=-1.0), "t_end must be nonnegative, got -1.0"),
        (dict(Vref=17.0), "Vref=17.0 must be below both input voltages (16.0, 16.0)"),
        (dict(Vref=0.0), "Vref must be positive, got 0.0"),
        (dict(Vref=-1.0), "Vref must be positive, got -1.0"),
        (dict(Vref=math.nan), "Vref must be positive, got nan"),
        (dict(load_schedule=()), "load schedule must have at least one entry"),
        (dict(load_schedule=(LoadStep(0.01, 10.0),)), "first load entry must be at t=0, got t=0.01"),
        (dict(load_schedule=(LoadStep(0.0, 10.0), LoadStep(0.0, 15.0))),
         "load schedule times must be strictly increasing"),
        (dict(load_schedule=(LoadStep(0.0, -10.0),)), "load resistance must be positive, got -10.0"),
        (dict(record_every=0), "record_every must be >= 1, got 0"),
        (dict(record_every=10**4300), "record_every must be below 10**4300"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            replace(constant_scenario, **overrides)


def test_step_limit_bounds_the_work(step_scenario):
    """More than MAX_STEPS steps is rejected when the scenario is built,
    before any step."""
    replace(step_scenario, t_end=4.78)  # criterion 2's horizon
    assert 100.0 / step_scenario.dt == MAX_STEPS
    replace(step_scenario, t_end=100.0)
    for bad in (dict(dt=1e-15), dict(t_end=1e300, dt=1e-300)):
        with pytest.raises(ParameterError, match="exceeds the limit"):
            replace(step_scenario, **bad)
    text = bundled_scenario_text("load_step")
    assert "dt_s = 1e-6" in text
    with pytest.raises(ScenarioFormatError, match="exceeds the limit"):
        parse_scenario(text.replace("dt_s = 1e-6", "dt_s = 1e-15"))


@pytest.mark.parametrize("cadence", [float("nan"), 2.5, True])
def test_record_every_must_be_an_integer(constant_scenario, cadence):
    """A cadence that is not an int records at other steps than it names
    (nan records only t=0 and t_end), and its file form does not parse."""
    with pytest.raises(ParameterError, match="record_every must be an integer"):
        replace(constant_scenario, record_every=cadence)


@pytest.mark.parametrize("d2", [1.5, -0.25])
def test_initial_d2_must_be_a_duty(constant_scenario, d2):
    """Leg 2 cannot apply a duty outside [0, 1], so no run starts from one."""
    with pytest.raises(ParameterError, match=r"initial d2 must be in \[0, 1\]"):
        replace(constant_scenario, initial_state=PlantState(1.0, 0.5, 8.0, d2))


@pytest.mark.parametrize("name", ["iL1", "iL2"])
def test_initial_current_below_ccm_tolerance_is_rejected(constant_scenario, name):
    """A run from such a state would raise CcmViolationError at its first
    step, so no Scenario holds one; -CCM_TOL itself is a valid start."""
    start = constant_scenario.initial_state
    replace(constant_scenario, initial_state=start._replace(**{name: -CCM_TOL}))
    with pytest.raises(ParameterError, match=f"^initial {name} must not be below -CCM_TOL"):
        replace(constant_scenario, initial_state=start._replace(**{name: -2e-9}))


def test_initial_state_is_a_plant_state_not_a_tuple(constant_scenario):
    """A PlantState unpacks and compares as the plain tuple of its items, but
    a Scenario takes only a PlantState as its start."""
    start = constant_scenario.initial_state
    iL1, iL2, Vo, d2 = start
    assert start == tuple(start) == (iL1, iL2, Vo, d2)
    with pytest.raises(ParameterError, match="^initial_state must be a PlantState, got "):
        replace(constant_scenario, initial_state=tuple(start))


@pytest.mark.parametrize("schedule", [
    ((0.0, 10.0),),
    [LoadStep(0.0, 10.0)],
    LoadStep(0.0, 10.0),
    (LoadStep(0.0, True),),
    (LoadStep(False, 10.0),),
    (LoadStep(0.0, "10"),),
    (LoadStep(0.0, 10.0), LoadStep(10**400, 15.0)),
], ids=["pairs", "list", "bare-entry", "bool-R", "bool-time", "str-R", "huge-int"])
def test_load_schedule_must_be_a_tuple_of_real_load_steps(constant_scenario, schedule):
    """Only a tuple of LoadStep with int or float fields is a schedule: a
    list would leave the Scenario unhashable and break its file round trip."""
    with pytest.raises(ParameterError):
        replace(constant_scenario, load_schedule=schedule)


_JUNK = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=2),
    st.fractions(), st.decimals(), st.complex_numbers(), st.lists(st.floats(), max_size=2),
)
_ENTRY = st.one_of(
    st.builds(LoadStep, st.floats(0.0, 1.0), st.floats(1.0, 20.0)),
    st.builds(LoadStep, _JUNK, _JUNK),
    st.tuples(st.floats(), st.floats()),
    _JUNK,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scenario_from_arbitrary_fields_raises_only_parbuck_errors(constant_scenario, data):
    """Building a Scenario, and its ConverterParams and ControlGains, from
    any field values either succeeds or raises a ParbuckError; never a
    TypeError or an AttributeError. Each field keeps the bundled value or
    takes an arbitrary one."""

    def value(good):
        return data.draw(st.one_of(st.just(good), _JUNK))

    def part(kind, good):
        if data.draw(st.booleans()):
            return data.draw(_JUNK)
        names = kind._fields if kind is PlantState else [f.name for f in fields(kind)]
        return kind(**{name: value(getattr(good, name)) for name in names})

    base = constant_scenario
    try:
        Scenario(
            p1=part(ConverterParams, base.p1),
            p2=part(ConverterParams, base.p2),
            gains=part(ControlGains, base.gains),
            Vref=value(base.Vref),
            load_schedule=data.draw(st.one_of(
                st.just(base.load_schedule),
                st.lists(_ENTRY, max_size=3).map(tuple),
                st.lists(_ENTRY, max_size=3),
                _JUNK,
            )),
            dt=value(base.dt),
            t_end=value(base.t_end),
            initial_state=part(PlantState, base.initial_state),
            record_every=value(base.record_every),
        )
    except ParbuckError:
        pass


def test_record_cadence_counts_steps(constant_scenario):
    """record_every=10 on a 100-step run records t=0, every 10th step, t_end."""
    scn = replace(constant_scenario, t_end=100e-6, record_every=10)
    trace = run(scn)
    times = [r.t for r in trace]
    expected = [0.0] + [pytest.approx(10e-6 * k) for k in range(1, 11)]
    assert times == expected


@pytest.mark.parametrize("case", ["load_step_every_1", "load_step_every_50", "off_grid_events"])
def test_every_record_is_a_trace_record(step_scenario, case):
    """Every record simulate yields is a TraceRecord whose named fields are
    its items, whichever way the run built it: the bundled load step at
    cadence 1 (a stationary stretch's records share one body before the
    event) and at cadence 50 (jumps), and twenty load events off the dt
    grid (shortened steps)."""
    events = tuple(LoadStep(i * 9.5e-5 + 3.7e-7, (15.0, 10.0)[i % 2]) for i in range(1, 21))
    scn = {
        "load_step_every_1": replace(step_scenario, record_every=1),
        "load_step_every_50": step_scenario,
        "off_grid_events": replace(
            step_scenario, load_schedule=(LoadStep(0.0, 10.0), *events), t_end=0.002,
        ),
    }[case]
    shared = count = 0
    prev = None
    for r in simulate(scn):
        assert type(r) is TraceRecord
        assert all(getattr(r, name) is x for name, x in zip(TraceRecord._fields, r, strict=True))
        shared += prev is not None and r.iL1 is prev.iL1 and r.sat2 is prev.sat2
        count += 1
        prev = r
    assert count > 2
    if case == "load_step_every_1":
        assert shared > 40_000


def test_d2_clamp_is_recorded(constant_scenario):
    """A state that drives d2 above 1 gets clamped with the sat2 flag set."""
    start = PlantState(iL1=5.0, iL2=2.0, Vo=0.0, d2=1.0)
    scn = replace(
        constant_scenario,
        initial_state=start,
        t_end=3e-6,
        record_every=1,
    )
    trace = run(scn)
    assert any(r.sat2 for r in trace[1:])
    assert all(0.0 <= r.d2 <= 1.0 for r in trace)
