"""Derivation-consistency checks shared by the control and acceptance tests.

Each checker evaluates one algebraic identity of the control design along
two independent routes (model-based rates vs designed closed forms) and
returns the worst normalized gap over n random samples. The normalization
uses the magnitude of the participating terms, since each identity is a sum
of large terms cancelling to a small remainder.
"""

import random

from parbuck import (
    ControlGains,
    ConverterParams,
    PlantState,
    controller_step,
    coupling_constant,
    duty_rate_command,
    equilibrium,
    plant_derivatives,
    sharing_error,
    virtual_current_target,
    voltage_target,
)


def gap(lhs: float, rhs: float, *terms: float) -> float:
    scale = max(1.0, abs(lhs), abs(rhs), *(abs(t) for t in terms))
    return abs(lhs - rhs) / scale


def random_setup(rng: random.Random):
    """Converter pair, gains and operating point with a non-degenerate X."""
    while True:
        p1 = ConverterParams(
            L=rng.uniform(2e-4, 5e-3),
            C=rng.uniform(2e-6, 5e-5),
            Vin=rng.uniform(10.0, 30.0),
            Imax=rng.uniform(0.5, 10.0),
        )
        p2 = ConverterParams(
            L=rng.uniform(2e-4, 5e-3),
            C=rng.uniform(2e-6, 5e-5),
            Vin=rng.uniform(10.0, 30.0),
            Imax=rng.uniform(0.5, 10.0),
        )
        if abs(1.0 / (p2.Imax * p2.L) - 1.0 / (p1.Imax * p1.L)) >= 1e-2:
            break
    gains = ControlGains(k1=rng.uniform(0.2, 8.0), k2=rng.uniform(0.2, 8.0))
    R = rng.uniform(1.0, 50.0)
    vref = rng.uniform(1.0, 0.85 * min(p1.Vin, p2.Vin))
    return p1, p2, gains, R, vref


def random_state(rng: random.Random, p1, p2, vref) -> PlantState:
    return PlantState(
        iL1=rng.uniform(0.0, 2.0 * p1.Imax),
        iL2=rng.uniform(0.0, 2.0 * p2.Imax),
        Vo=rng.uniform(0.0, 1.3 * vref),
        d2=rng.uniform(0.0, 1.0),
    )


def unsaturated_sample(rng: random.Random, p1, p2, gains, R, vref):
    """State near the operating point at which the d1 command is interior.

    The equilibrium duty is strictly inside (duty_min, duty_max), so
    shrinking the perturbation must eventually give an unsaturated command.
    """
    eq = equilibrium(p1, p2, R, vref)
    scale = 1.0
    for _ in range(200):
        state = PlantState(
            iL1=eq.iL1 + rng.uniform(-1.0, 1.0) * scale * p1.Imax,
            iL2=eq.iL2 + rng.uniform(-1.0, 1.0) * scale * p2.Imax,
            Vo=eq.Vo + rng.uniform(-1.0, 1.0) * scale * vref,
            d2=min(max(eq.d2 + rng.uniform(-1.0, 1.0) * scale, 0.0), 1.0),
        )
        sig = controller_step(state, vref, R, p1, p2, gains)
        if not sig.saturated:
            return state, sig
        scale *= 0.5
    raise AssertionError("could not find an unsaturated sample")


def exposed_sample(rng: random.Random, p1, p2, gains, R, vref) -> PlantState:
    """State with iL1 = d2 = 0, an interior d1 command and a positive d2_dot.

    A component of order one rounds away the low bits of h*slope when a step
    adds it, but a zero component takes them whole, so at this state a change
    in the last bits of d1 shows in the stepped iL1, and one in d2_dot in the
    stepped d2. iL2 is solved for a drawn d1: the rate target w behind d1 is
    affine in iL2 with slope -(1 + k1/Ctot).
    """
    ctot = p1.C + p2.C
    for _ in range(1000):
        Vo = rng.uniform(0.0, 1.3) * vref
        w_target = (rng.uniform(0.05, 0.95) * p1.Vin - Vo) / p1.L
        e = vref - Vo
        w_at_zero = Vo / p2.L + vref / R + gains.k1 * e + e / ctot + gains.k1 * (Vo / R) / ctot
        iL2 = (w_at_zero - w_target) / (1.0 + gains.k1 / ctot)
        if iL2 < 0.0:
            continue
        state = PlantState(iL1=0.0, iL2=iL2, Vo=Vo, d2=0.0)
        sig = controller_step(state, vref, R, p1, p2, gains)
        if not sig.saturated and sig.d2_dot > 0.0:
            return state
    raise AssertionError("could not find an exposed sample")


def voltage_error_dynamics_gap(rng: random.Random) -> float:
    """Ctot*de/dt + e*(1/R + k1) == i_tilde with de/dt from the output node."""
    p1, p2, gains, R, vref = random_setup(rng)
    state = random_state(rng, p1, p2, vref)
    ctot = p1.C + p2.C
    e = vref - state.Vo
    e_dot = (state.Vo / R - state.iL1 - state.iL2) / ctot
    i_tilde = virtual_current_target(state, vref, R, gains) - state.iL1
    lhs = ctot * e_dot + e * (1.0 / R + gains.k1)
    return gap(lhs, i_tilde, ctot * e_dot, e * (1.0 / R + gains.k1))


def sharing_error_dynamics_gap(rng: random.Random) -> float:
    """de2/dt from the inductor equations == -k2*e2 - X*v_tilde."""
    p1, p2, gains, R, vref = random_setup(rng)
    state = random_state(rng, p1, p2, vref)
    d1 = rng.uniform(0.0, 1.0)
    e2 = sharing_error(state, p1, p2)
    X = coupling_constant(p1, p2, gains.x_guard)
    v_tilde = voltage_target(d1, state.d2, e2, p1, p2, X, gains) - state.Vo
    e2_dot_model = (
        d1 * p1.Vin / (p1.Imax * p1.L)
        - state.d2 * p2.Vin / (p2.Imax * p2.L)
        + state.Vo * X
    )
    e2_dot_designed = -gains.k2 * e2 - X * v_tilde
    return gap(e2_dot_model, e2_dot_designed, state.Vo * X, X * v_tilde)


def voltage_lyapunov_gap(rng: random.Random) -> float:
    """e*de/dt + i~*di~/dt == -(e^2/Ctot)(1/R + k1) - i~^2, unsaturated d1.

    The left side rides the exact plant flow under the commanded duties; the
    right side is the designed energy decrease.
    """
    p1, p2, gains, R, vref = random_setup(rng)
    state, sig = unsaturated_sample(rng, p1, p2, gains, R, vref)
    ctot = p1.C + p2.C
    deriv = plant_derivatives(state, p1, p2, R, sig.d1, sig.d2_dot)
    e_dot = -deriv.dVo
    i_tilde_dot = (-deriv.diL2 + gains.k1 * e_dot) - deriv.diL1
    lhs = sig.e * e_dot + sig.i_tilde * i_tilde_dot
    rhs = -(sig.e**2 / ctot) * (1.0 / R + gains.k1) - sig.i_tilde**2
    return gap(lhs, rhs, sig.e * e_dot, sig.i_tilde * i_tilde_dot)


def sharing_lyapunov_gap(rng: random.Random) -> float:
    """e2*de2/dt + v~*dv~/dt == -k2*e2^2 - v~^2 with d1 held constant."""
    p1, p2, gains, R, vref = random_setup(rng)
    state = random_state(rng, p1, p2, vref)
    d1 = rng.uniform(0.0, 1.0)
    ctot = p1.C + p2.C
    e2 = sharing_error(state, p1, p2)
    X = coupling_constant(p1, p2, gains.x_guard)
    v_tilde = voltage_target(d1, state.d2, e2, p1, p2, X, gains) - state.Vo
    e2_dot = (
        d1 * p1.Vin / (p1.Imax * p1.L)
        - state.d2 * p2.Vin / (p2.Imax * p2.L)
        + state.Vo * X
    )
    vo_dot = (state.iL1 + state.iL2 - state.Vo / R) / ctot
    d2_dot = duty_rate_command(e2, e2_dot, v_tilde, vo_dot, p2, X, gains)
    v_target_dot = (d2_dot * p2.Vin / (p2.Imax * p2.L) - gains.k2 * e2_dot) / X
    v_tilde_dot = v_target_dot - vo_dot
    lhs = e2 * e2_dot + v_tilde * v_tilde_dot
    rhs = -gains.k2 * e2**2 - v_tilde**2
    # v_target_dot - vo_dot is the deep cancellation here; both halves belong
    # in the conditioning scale or the normalized gap overstates the error.
    return gap(lhs, rhs, e2 * e2_dot, v_tilde * v_target_dot, v_tilde * vo_dot)


def worst_gap(checker, n: int, seed: int) -> float:
    rng = random.Random(seed)
    return max(checker(rng) for _ in range(n))
