"""Integrator-accuracy harnesses shared by the sim and acceptance tests.

rk4_update is the generic classical Runge-Kutta scheme over a tuple state;
it is the oracle that the simulator's compiled closed-loop kernel must
reproduce bit for bit. The analytic oracle is the scalar exponential
dx/dt = -rate*x, whose exact solution is known; the closed-loop check
measures Richardson ratios on a smooth (never saturated) trajectory of the
full plant+controller system, started from a small voltage perturbation so
the fast transient is still alive at the final time and truncation error
stays above roundoff.
"""

import math
from dataclasses import replace

from parbuck import (
    PlantState,
    Scenario,
    equilibrium,
    run,
)


def rk4_update(f, y: tuple, h: float) -> tuple:
    """One classical 4th-order Runge-Kutta update for an autonomous system.

    ``f`` maps a state tuple to a derivative tuple.
    """
    k1 = f(y)
    k2 = f(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
    k3 = f(tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
    k4 = f(tuple(yi + h * ki for yi, ki in zip(y, k3)))
    sixth = h / 6.0
    return tuple(
        yi + sixth * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def exponential_error(rate: float, dt: float, t_end: float) -> float:
    """|x_n - exp(-rate*t_end)| after fixed-step integration from x=1."""
    n = round(t_end / dt)
    y = (1.0,)
    f = lambda s: (-rate * s[0],)
    for _ in range(n):
        y = rk4_update(f, y, dt)
    return abs(y[0] - math.exp(-rate * t_end))


def exponential_orders(rate: float, dts: tuple[float, ...], t_end: float) -> list[float]:
    """Observed convergence orders log2(err(dt)/err(dt/2)) across halvings."""
    errors = [exponential_error(rate, dt, t_end) for dt in dts]
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def perturbed_scenario(base: Scenario, dVo: float, t_end: float, dt: float) -> Scenario:
    """Constant-load scenario started a small voltage offset from equilibrium."""
    eq = equilibrium(base.p1, base.p2, base.load_schedule[0].R, base.Vref)
    start = PlantState(eq.iL1, eq.iL2, eq.Vo + dVo, eq.d2)
    return replace(
        base,
        initial_state=start,
        init_label="custom",
        load_schedule=base.load_schedule[:1],
        t_end=t_end,
        dt=dt,
        record_every=1,
    )


def closed_loop_richardson(base: Scenario, dVo: float = 0.1, t_end: float = 2e-4):
    """(|x(dt)-x(dt/2)|, |x(dt/2)-x(dt/4)|, ratio) of final closed-loop states.

    Also returns whether any recorded sample saturated; the ratio is only a
    valid order probe on an unsaturated (smooth) trajectory.
    """
    finals = {}
    saturated = False
    for dt in (1e-6, 5e-7, 2.5e-7):
        trace = run(perturbed_scenario(base, dVo, t_end, dt))
        saturated = saturated or any(r.sat1 or r.sat2 for r in trace)
        last = trace[-1]
        finals[dt] = (last.iL1, last.iL2, last.Vo, last.d2)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    coarse = dist(finals[1e-6], finals[5e-7])
    fine = dist(finals[5e-7], finals[2.5e-7])
    return coarse, fine, coarse / fine, saturated
