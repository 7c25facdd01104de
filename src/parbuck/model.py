"""Averaged plant model of two parallel buck converters on one resistive load.

Both converters are assumed to stay in continuous conduction, so the
switching ripple averages out and each leg reduces to

    L_i * diL_i/dt = d_i * Vin_i - Vo

with the two output capacitors lumped into a single node,

    (C1 + C2) * dVo/dt = iL1 + iL2 - Vo / R.

The second converter's duty cycle d2 is carried as a state variable because
its controller commands a duty *rate* rather than a duty value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleOperatingPointError, NumericDomainError, ParameterError


def is_finite_real(value) -> bool:
    """Whether value is an int or a float, not a bool, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ConverterParams:
    """Physical constants of one converter leg.

    L: inductance [H], C: output capacitance [F], Vin: input voltage [V],
    Imax: rated current [A] (the per-unit base for load sharing).
    """

    L: float
    C: float
    Vin: float
    Imax: float

    def __post_init__(self):
        for name in ("L", "C", "Vin", "Imax"):
            value = getattr(self, name)
            if not is_finite_real(value) or value <= 0.0:
                raise ParameterError(f"{name} must be positive and finite, got {value!r}")


class PlantState(NamedTuple):
    """Dynamic state: inductor currents [A], output voltage [V], duty of leg 2.

    iL1, iL2 >= 0 and d2 in [0, 1] are operational invariants maintained by
    the simulation loop, not enforced here: integrator stages may evaluate
    the model marginally outside those ranges. A Scenario holds its initial
    d2 to [0, 1].
    """

    iL1: float
    iL2: float
    Vo: float
    d2: float


class PlantDerivative(NamedTuple):
    """Time derivatives of the plant state, in SI units per second."""

    diL1: float
    diL2: float
    dVo: float
    dd2: float


def plant_derivatives(
    state: PlantState,
    p1: ConverterParams,
    p2: ConverterParams,
    R: float,
    d1: float,
    d2_dot: float,
) -> PlantDerivative:
    """Evaluate the averaged state equations for given duty commands.

    ``d1`` is the duty applied to leg 1; leg 2 applies the duty stored in the
    state and integrates ``d2_dot``. Raises NumericDomainError on non-finite
    inputs or a non-positive load.
    """
    if not all(map(math.isfinite, state)):
        raise NumericDomainError(f"plant state must be finite, got {state}")
    if not math.isfinite(R) or R <= 0.0:
        raise NumericDomainError(f"load resistance must be positive and finite, got {R!r}")
    if not math.isfinite(d1) or not math.isfinite(d2_dot):
        raise NumericDomainError(f"duty inputs must be finite, got d1={d1!r}, d2_dot={d2_dot!r}")
    iL1, iL2, Vo, d2 = state
    return PlantDerivative(
        diL1=(d1 * p1.Vin - Vo) / p1.L,
        diL2=(d2 * p2.Vin - Vo) / p2.L,
        dVo=(iL1 + iL2 - Vo / R) / (p1.C + p2.C),
        dd2=d2_dot,
    )


def equilibrium(
    p1: ConverterParams,
    p2: ConverterParams,
    R: float,
    Vref: float,
) -> PlantState:
    """Steady state with Vo = Vref and the load split in proportion to ratings.

    The total current Vref/R divides so that iL1/Imax1 == iL2/Imax2. The
    larger share is computed first and the other as (total - share); that
    difference is exact in floating point (Sterbenz), so the current balance
    holds bit-for-bit and the returned state is a fixed point of
    plant_derivatives to machine precision.
    """
    if not math.isfinite(R) or R <= 0.0:
        raise NumericDomainError(f"load resistance must be positive and finite, got {R!r}")
    if not math.isfinite(Vref) or Vref <= 0.0:
        raise InfeasibleOperatingPointError(f"Vref must be positive and finite, got {Vref!r}")
    if Vref >= min(p1.Vin, p2.Vin):
        raise InfeasibleOperatingPointError(
            f"Vref={Vref!r} V is not below both input voltages "
            f"({p1.Vin!r} V, {p2.Vin!r} V); buck operation is infeasible"
        )
    total = Vref / R
    if p1.Imax >= p2.Imax:
        iL1 = p1.Imax / (p1.Imax + p2.Imax) * total
        iL2 = total - iL1
    else:
        iL2 = p2.Imax / (p1.Imax + p2.Imax) * total
        iL1 = total - iL2
    return PlantState(iL1=iL1, iL2=iL2, Vo=Vref, d2=Vref / p2.Vin)
