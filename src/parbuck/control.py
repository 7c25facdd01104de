"""Backstepping controllers for the parallel buck pair.

Leg 1 regulates the output voltage: the inductor current iL1 is treated as a
virtual control, a current target is backed out of the voltage error, and the
duty d1 is chosen so the current tracks that target. With an unsaturated d1
the tracking errors e = Vref - Vo and i_err = iL1_target - iL1 obey

    Ctot * de/dt + e * (1/R + k1) = i_err
    d/dt [ (e^2 + i_err^2) / 2 ]  = -(e^2/Ctot) * (1/R + k1) - i_err^2.

Leg 2 balances the per-unit currents: the output voltage is treated as the
virtual control for the sharing error e2 = iL1/Imax1 - iL2/Imax2, and a duty
*rate* for d2 is commanded. With d1 held fixed the pair (e2, v_err), where
v_err is the gap to the sharing law's voltage target, obeys

    de2/dt = -k2 * e2 - X * v_err
    d/dt [ (e2^2 + v_err^2) / 2 ] = -k2 * e2^2 - v_err^2,

with X = 1/(Imax2*L2) - 1/(Imax1*L1) the coupling constant of the pair.
These identities hold exactly and are machine-checked by the test suite.
The energy identity guarantees that sqrt(e2^2 + v_err^2) decays at least as
fast as exp(-min(k2, 1)*t); at k2 = 1 that is also the decay rate (1 + k2)/2
of the pair's poles, which ring at about X rad/s.

In closed loop d1 is not frozen. Once the voltage loop is at rest (Vo = Vref,
e = i_err = 0) its law holds d1 + (L1*Vin2)/(L2*Vin1)*d2 constant, so d1
moves against every change of d2, and v_err gains the term
-(Vin1/(Imax1*L1))*(dd1/dt)/X that the sharing law leaves out. With
rho = 1 + Imax2/Imax1 the realised pair obeys

    de2/dt    = -k2 * e2 - X * v_err
    dv_err/dt = (rho*X - (rho - 1)*k2^2/X) * e2 - (rho + (rho - 1)*k2) * v_err,

which rings at about X*sqrt(rho) and decays at (k2 + rho + (rho - 1)*k2)/2.
The energy that decreases along it is close to (rho*e2^2 + v_err^2)/2, not
(e2^2 + v_err^2)/2, so the latter, the recorded sharing-loop energy, can
grow. On the bundled load step (rho = 1.4) the mismatch rings at 355 rad/s
and decays at 1.4/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateConfigError, ParameterError
from .model import ConverterParams, PlantState


@dataclass(frozen=True)
class ControlGains:
    """Loop gains, duty saturation bounds and the coupling-constant guard.

    k1 [1/ohm-equivalent] speeds up the voltage loop, k2 [1/s] the sharing
    loop. x_guard is the smallest |X| [1/(H*A)] accepted before the sharing
    law is declared ill-conditioned.
    """

    k1: float
    k2: float
    x_guard: float = 1e-3
    duty_min: float = 0.0
    duty_max: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.k1) or self.k1 <= 0.0:
            raise ParameterError(f"k1 must be positive, got {self.k1!r}")
        if not math.isfinite(self.k2) or self.k2 <= 0.0:
            raise ParameterError(f"k2 must be positive, got {self.k2!r}")
        if not math.isfinite(self.x_guard) or self.x_guard <= 0.0:
            raise ParameterError(f"x_guard must be positive, got {self.x_guard!r}")
        if not (0.0 <= self.duty_min < self.duty_max <= 1.0):
            raise ParameterError(
                f"duty bounds must satisfy 0 <= duty_min < duty_max <= 1, "
                f"got [{self.duty_min!r}, {self.duty_max!r}]"
            )


class ControlSignals(NamedTuple):
    """One full controller evaluation: commands plus diagnostics."""

    d1: float          # duty command for leg 1, already clamped
    d2_dot: float      # duty-rate command for leg 2 [1/s]
    e: float           # voltage error Vref - Vo [V]
    e2: float          # per-unit sharing error
    i_tilde: float     # current-target tracking error [A]
    v_tilde: float     # gap between sharing voltage target and Vo [V]
    lyap_v: float      # (e^2 + i_tilde^2)/2, voltage-loop energy
    lyap_share: float  # (e2^2 + v_tilde^2)/2, sharing-loop energy
    saturated: bool    # True when d1 was clamped


def voltage_error(state: PlantState, Vref: float) -> float:
    """Regulation error Vref - Vo."""
    return Vref - state.Vo


def virtual_current_target(state: PlantState, Vref: float, R: float, gains: ControlGains) -> float:
    """Desired iL1: carry the load current not supplied by leg 2, plus k1*e.

    The iL2 term enters unscaled so that substituting the target into the
    output-node equation yields Ctot*de/dt + e*(1/R + k1) = i_tilde exactly.
    """
    return Vref / R - state.iL2 + gains.k1 * (Vref - state.Vo)


def current_rate_target(
    e: float,
    e_dot: float,
    i_tilde: float,
    diL2_dt: float,
    Ctot: float,
    gains: ControlGains,
) -> float:
    """Desired diL1/dt making the voltage-loop energy strictly decrease.

    Feeds forward the motion of leg 2's current and of the current target so
    that the loop energy derivative is -(e^2/Ctot)*(1/R + k1) - i_tilde^2.
    """
    return -diL2_dt + i_tilde + e / Ctot + gains.k1 * e_dot


def duty_command(
    rate_target: float,
    Vo: float,
    p: ConverterParams,
    gains: ControlGains,
) -> tuple[float, bool]:
    """Duty that realizes a desired inductor-current slope, with saturation.

    Inverts L*diL/dt = d*Vin - Vo and clamps to [duty_min, duty_max].
    Returns the clamped duty and a flag telling whether clamping changed it.
    """
    raw = (p.L * rate_target + Vo) / p.Vin
    clamped = min(max(raw, gains.duty_min), gains.duty_max)
    return clamped, clamped != raw


def sharing_error(state: PlantState, p1: ConverterParams, p2: ConverterParams) -> float:
    """Difference of per-unit currents, iL1/Imax1 - iL2/Imax2."""
    return state.iL1 / p1.Imax - state.iL2 / p2.Imax


def coupling_constant(
    p1: ConverterParams,
    p2: ConverterParams,
    x_guard: float = 1e-3,
) -> float:
    """Sharing-loop coupling constant X = 1/(Imax2*L2) - 1/(Imax1*L1).

    The sharing law divides by X, so converters with matching Imax*L products
    cannot be told apart by it; |X| < x_guard raises DegenerateConfigError.
    So does a product too small for its reciprocal to be finite (X not finite).
    """
    il1, il2 = p1.Imax * p1.L, p2.Imax * p2.L
    x = 1.0 / il2 - 1.0 / il1 if il1 > 0.0 and il2 > 0.0 else math.inf
    if not math.isfinite(x):
        raise DegenerateConfigError(
            f"X is not finite: the converters' rated ampere-henry products "
            f"({il1!r}, {il2!r}) are too small for the sharing law"
        )
    if abs(x) < x_guard:
        raise DegenerateConfigError(
            f"|X|={abs(x):.6g} is below the guard {x_guard:.6g}; the converters' "
            f"rated ampere-henry products are too similar for the sharing law"
        )
    return x


def voltage_target(
    d1: float,
    d2: float,
    e2: float,
    p1: ConverterParams,
    p2: ConverterParams,
    X: float,
    gains: ControlGains,
) -> float:
    """Output voltage that would drive the sharing error as de2/dt = -k2*e2.

    Solving the sharing-error dynamics for Vo with both duties frozen gives
    the target; its gap to the measured Vo is the sharing loop's second error
    coordinate.
    """
    return (
        -d1 * p1.Vin / (p1.Imax * p1.L)
        + d2 * p2.Vin / (p2.Imax * p2.L)
        - gains.k2 * e2
    ) / X


def duty_rate_command(
    e2: float,
    e2_dot: float,
    v_tilde: float,
    vo_dot: float,
    p2: ConverterParams,
    X: float,
    gains: ControlGains,
) -> float:
    """Duty rate for leg 2 making the sharing-loop energy strictly decrease.

    With d1 treated as frozen, this choice gives
    d/dt[(e2^2 + v_tilde^2)/2] = -k2*e2^2 - v_tilde^2 along the plant flow.
    """
    return (p2.Imax * p2.L / p2.Vin) * (
        X * (vo_dot + X * e2 - v_tilde) + gains.k2 * e2_dot
    )


def lyapunov_voltage(e: float, i_tilde: float) -> float:
    """Voltage-loop energy (e^2 + i_tilde^2)/2; zero only at perfect tracking."""
    return 0.5 * (e * e + i_tilde * i_tilde)


def lyapunov_sharing(e2: float, v_tilde: float) -> float:
    """Sharing-loop energy (e2^2 + v_tilde^2)/2; zero only at balanced sharing."""
    return 0.5 * (e2 * e2 + v_tilde * v_tilde)


def controller_step(
    state: PlantState,
    Vref: float,
    R: float,
    p1: ConverterParams,
    p2: ConverterParams,
    gains: ControlGains,
) -> ControlSignals:
    """Evaluate both control laws on one measurement of the plant.

    The error rates de/dt and de2/dt are reconstructed from the model using
    the current measurements and duties rather than from their closed-form
    target dynamics, so the equivalence of the two forms stays a testable
    property instead of a built-in assumption. The sharing chain uses the
    clamped d1, i.e. the duty the plant will actually see.
    """
    Ctot = p1.C + p2.C
    e = voltage_error(state, Vref)
    e_dot = (state.Vo / R - state.iL1 - state.iL2) / Ctot
    diL2_dt = (state.d2 * p2.Vin - state.Vo) / p2.L

    i_tilde = virtual_current_target(state, Vref, R, gains) - state.iL1
    w = current_rate_target(e, e_dot, i_tilde, diL2_dt, Ctot, gains)
    d1, saturated = duty_command(w, state.Vo, p1, gains)

    e2 = sharing_error(state, p1, p2)
    X = coupling_constant(p1, p2, gains.x_guard)
    v_target = voltage_target(d1, state.d2, e2, p1, p2, X, gains)
    v_tilde = v_target - state.Vo
    e2_dot = (
        d1 * p1.Vin / (p1.Imax * p1.L)
        - state.d2 * p2.Vin / (p2.Imax * p2.L)
        + state.Vo * X
    )
    vo_dot = (state.iL1 + state.iL2 - state.Vo / R) / Ctot
    d2_dot = duty_rate_command(e2, e2_dot, v_tilde, vo_dot, p2, X, gains)

    return ControlSignals(
        d1=d1,
        d2_dot=d2_dot,
        e=e,
        e2=e2,
        i_tilde=i_tilde,
        v_tilde=v_tilde,
        lyap_v=lyapunov_voltage(e, i_tilde),
        lyap_share=lyapunov_sharing(e2, v_tilde),
        saturated=saturated,
    )
