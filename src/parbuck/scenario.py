"""What one closed-loop run simulates: the Scenario, its control gains, its
load schedule and the segment plan that the integrator in parbuck.sim
follows.

The Scenario validates with ControlGains and with the guard on the sharing
law's coupling constant X, so both live here. Kept apart from the kernel and
from the readable control law in control.py, so that parsing and validating
a scenario file loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import DegenerateConfigError, ParameterError
from .model import ConverterParams, PlantState, is_finite_real

# Inductor current below -CCM_TOL amperes counts as a genuine loss of
# continuous conduction rather than integration noise.
CCM_TOL = 1e-9

# Most integration steps, ceil(t_end/dt), a scenario may ask for: at about
# two microseconds per step that is minutes of work, not days.
MAX_STEPS = 10**8

# The first cadence too long to write: format_scenario writes record_every in
# decimal, and CPython converts at most 4,300 digits. A cadence past
# MAX_STEPS records no more than one at MAX_STEPS does.
RECORD_EVERY_LIMIT = 10**4300


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
        for name in ("k1", "k2", "x_guard"):
            value = getattr(self, name)
            if not is_finite_real(value) or value <= 0.0:
                raise ParameterError(f"{name} must be positive, got {value!r}")
        if not (
            is_finite_real(self.duty_min)
            and is_finite_real(self.duty_max)
            and 0.0 <= self.duty_min < self.duty_max <= 1.0
        ):
            raise ParameterError(
                f"duty bounds must satisfy 0 <= duty_min < duty_max <= 1, "
                f"got [{self.duty_min!r}, {self.duty_max!r}]"
            )


def coupling_constant(
    p1: ConverterParams,
    p2: ConverterParams,
    x_guard: float = ControlGains.x_guard,
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


class LoadStep(NamedTuple):
    """One entry of the load schedule: from `time` on, the load is `R` ohms."""

    time: float
    R: float


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run.

    The load schedule is closed on the left: an entry's resistance applies
    from its time (inclusive) until the next entry. Construction, and so
    dataclasses.replace, checks every field and the relations between them:
    a violation raises ParameterError, and a converter pair the sharing law
    cannot tell apart raises DegenerateConfigError. Numeric fields take an
    int or a float, never a bool; load_schedule takes a tuple of LoadStep.
    """

    p1: ConverterParams
    p2: ConverterParams
    gains: ControlGains
    Vref: float
    load_schedule: tuple[LoadStep, ...]
    dt: float = 1e-6
    t_end: float = 0.1
    initial_state: PlantState = PlantState(0.0, 0.0, 0.0, 0.0)
    record_every: int = 50

    def __post_init__(self):
        s = self
        for name, kind in (
            ("p1", ConverterParams), ("p2", ConverterParams),
            ("gains", ControlGains), ("initial_state", PlantState),
        ):
            if not isinstance(getattr(s, name), kind):
                raise ParameterError(f"{name} must be a {kind.__name__}, got {getattr(s, name)!r}")
        if not is_finite_real(s.dt) or s.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {s.dt!r}")
        if not is_finite_real(s.t_end) or s.t_end < 0.0:
            raise ParameterError(f"t_end must be nonnegative, got {s.t_end!r}")
        # For an integer bound, ceil(t_end/dt) > MAX_STEPS iff t_end/dt > MAX_STEPS;
        # comparing the quotient itself also covers its overflow to inf.
        if s.t_end / s.dt > MAX_STEPS:
            raise ParameterError(
                f"t_end/dt = {s.t_end / s.dt:.6g} steps exceeds the limit of {MAX_STEPS} steps"
            )
        if type(s.record_every) is not int:
            raise ParameterError(f"record_every must be an integer, got {s.record_every!r}")
        if s.record_every < 1:
            raise ParameterError(f"record_every must be >= 1, got {s.record_every!r}")
        if s.record_every >= RECORD_EVERY_LIMIT:
            raise ParameterError("record_every must be below 10**4300")
        if not is_finite_real(s.Vref) or s.Vref <= 0.0:
            raise ParameterError(f"Vref must be positive, got {s.Vref!r}")
        if s.Vref >= min(s.p1.Vin, s.p2.Vin):
            raise ParameterError(
                f"Vref={s.Vref!r} must be below both input voltages "
                f"({s.p1.Vin!r}, {s.p2.Vin!r})"
            )
        # A tuple, so that the Scenario stays hashable and round-trips
        # through format_scenario.
        if not isinstance(s.load_schedule, tuple) or not all(
            isinstance(entry, LoadStep) for entry in s.load_schedule
        ):
            raise ParameterError(
                f"load schedule must be a tuple of LoadStep entries, got {s.load_schedule!r}"
            )
        if not s.load_schedule:
            raise ParameterError("load schedule must have at least one entry")
        prev = -math.inf
        for entry in s.load_schedule:
            if not is_finite_real(entry.time):
                raise ParameterError(f"load entry time must be finite, got {entry.time!r}")
            if not is_finite_real(entry.R) or entry.R <= 0.0:
                raise ParameterError(f"load resistance must be positive, got {entry.R!r}")
            if entry.time <= prev:
                raise ParameterError("load schedule times must be strictly increasing")
            prev = entry.time
        if s.load_schedule[0].time != 0.0:
            raise ParameterError(
                f"first load entry must be at t=0, got t={s.load_schedule[0].time!r}"
            )
        state = s.initial_state
        if not all(map(is_finite_real, state)):
            raise ParameterError(f"initial state must be finite, got {state}")
        if not 0.0 <= state.d2 <= 1.0:
            raise ParameterError(f"initial d2 must be in [0, 1], got {state.d2!r}")
        # The run would raise CcmViolationError at its first step.
        for name, value in (("iL1", state.iL1), ("iL2", state.iL2)):
            if value < -CCM_TOL:
                raise ParameterError(
                    f"initial {name} must not be below -CCM_TOL = {-CCM_TOL!r} A, got {value!r}"
                )
        coupling_constant(s.p1, s.p2, s.gains.x_guard)


class _Segment(NamedTuple):
    """A stretch of constant load: n_full steps of dt, then one remainder step
    when remainder > 0, so that the segment ends exactly at `end`."""

    start: float
    end: float
    R: float
    n_full: int
    remainder: float


def _segments(scenario: Scenario) -> Iterator[_Segment]:
    """The segment plan of the scenario, the one parbuck.sim integrates,
    generated one segment at a time.

    The schedule starts at t=0 and strictly increases, so the entries before
    t_end split the run into segments of constant load.
    """
    schedule, t_end, dt = scenario.load_schedule, scenario.t_end, scenario.dt

    def segment(start, end, R):
        seg_len = end - start
        n_full = int(math.floor(seg_len / dt + 1e-9))
        remainder = seg_len - n_full * dt
        if remainder <= dt * 1e-9:
            remainder = 0.0
        return _Segment(start, end, R, n_full, remainder)

    start, R = 0.0, schedule[0].R
    for entry in islice(schedule, 1, None):
        if entry.time >= t_end:
            break
        yield segment(start, entry.time, R)
        start, R = entry.time, entry.R
    yield segment(start, t_end, R)


def step_count(scenario: Scenario) -> int:
    """Number of integration steps parbuck.sim.run takes on the scenario.

    Each load event off the dt grid adds one shortened step to its segment.
    """
    return sum(seg.n_full + (seg.remainder > 0.0) for seg in _segments(scenario))
