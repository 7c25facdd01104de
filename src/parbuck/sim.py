"""Fixed-step closed-loop integration with load events and trace recording.

The controller is evaluated inside every integrator stage (continuous-time
control, no sample-and-hold), the load is piecewise constant with steps
snapped to integration step boundaries, and the run fails fast if the state
diverges or an inductor current leaves continuous conduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .control import ControlGains, coupling_constant
from .errors import CcmViolationError, DivergenceError, ParameterError
from .model import ConverterParams, PlantState

# Inductor current below -CCM_TOL amperes counts as a genuine loss of
# continuous conduction rather than integration noise.
CCM_TOL = 1e-9

# Most integration steps, ceil(t_end/dt), a scenario may ask for: at a few
# microseconds per step that is minutes of work, not days.
MAX_STEPS = 10**8


class LoadStep(NamedTuple):
    """One entry of the load schedule: from `time` on, the load is `R` ohms."""

    time: float
    R: float


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run.

    The load schedule is closed on the left: an entry's resistance applies
    from its time (inclusive) until the next entry. init_label records how
    initial_state was specified so scenario files round-trip exactly.
    """

    p1: ConverterParams
    p2: ConverterParams
    gains: ControlGains
    Vref: float
    load_schedule: tuple[LoadStep, ...]
    dt: float = 1e-6
    t_end: float = 0.1
    initial_state: PlantState = field(default_factory=lambda: PlantState(0.0, 0.0, 0.0, 0.0))
    record_every: int = 50
    init_label: str = "custom"


class TraceRecord(NamedTuple):
    """One recorded sample: state, commands, errors and loop energies.

    sat1 means the d1 command was clamped at this sample; sat2 means the d2
    state hit a duty bound during the step that produced this sample.
    """

    t: float
    iL1: float
    iL2: float
    Vo: float
    d1: float
    d2: float
    d2_dot: float
    e: float
    e2: float
    V1_lyap: float
    V2_lyap: float
    R_active: float
    sat1: bool
    sat2: bool


def validate_scenario(scenario: Scenario) -> None:
    """Check cross-field invariants; raises ParameterError on violation.

    Parameter and gain objects validate themselves on construction, so this
    covers only the relations between them. A converter pair the sharing law
    cannot tell apart raises DegenerateConfigError.
    """
    s = scenario
    if not math.isfinite(s.dt) or s.dt <= 0.0:
        raise ParameterError(f"dt must be positive, got {s.dt!r}")
    if not math.isfinite(s.t_end) or s.t_end < 0.0:
        raise ParameterError(f"t_end must be nonnegative, got {s.t_end!r}")
    # For an integer bound, ceil(t_end/dt) > MAX_STEPS iff t_end/dt > MAX_STEPS;
    # comparing the quotient itself also covers its overflow to inf.
    if s.t_end / s.dt > MAX_STEPS:
        raise ParameterError(
            f"t_end/dt = {s.t_end / s.dt:.6g} steps exceeds the limit of {MAX_STEPS} steps"
        )
    if s.record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {s.record_every!r}")
    if not math.isfinite(s.Vref) or s.Vref <= 0.0:
        raise ParameterError(f"Vref must be positive, got {s.Vref!r}")
    if s.Vref >= min(s.p1.Vin, s.p2.Vin):
        raise ParameterError(
            f"Vref={s.Vref!r} must be below both input voltages "
            f"({s.p1.Vin!r}, {s.p2.Vin!r})"
        )
    if not s.load_schedule:
        raise ParameterError("load schedule must have at least one entry")
    if s.load_schedule[0].time != 0.0:
        raise ParameterError(
            f"first load entry must be at t=0, got t={s.load_schedule[0].time!r}"
        )
    prev = -math.inf
    for entry in s.load_schedule:
        if not math.isfinite(entry.time):
            raise ParameterError(f"load entry time must be finite, got {entry.time!r}")
        if not math.isfinite(entry.R) or entry.R <= 0.0:
            raise ParameterError(f"load resistance must be positive, got {entry.R!r}")
        if entry.time <= prev:
            raise ParameterError("load schedule times must be strictly increasing")
        prev = entry.time
    if not s.initial_state.is_finite():
        raise ParameterError(f"initial state must be finite, got {s.initial_state}")
    coupling_constant(s.p1, s.p2, s.gains.x_guard)


class _Segment(NamedTuple):
    """A stretch of constant load: n_full steps of dt, then one remainder step
    when remainder > 0, so that the segment ends exactly at `end`."""

    start: float
    end: float
    R: float
    n_full: int
    remainder: float


def _segments(scenario: Scenario) -> list[_Segment]:
    """The segment plan of a validated scenario, the one run() integrates.

    Validation makes the schedule start at t=0 and strictly increase, so the
    entries before t_end split the run into segments of constant load.
    """
    schedule, t_end, dt = scenario.load_schedule, scenario.t_end, scenario.dt
    events = [e for e in schedule[1:] if e.time < t_end]
    ends = [e.time for e in events] + [t_end]
    loads = [schedule[0].R] + [e.R for e in events]
    plan = []
    start = 0.0
    for end, R in zip(ends, loads):
        seg_len = end - start
        n_full = int(math.floor(seg_len / dt + 1e-9))
        remainder = seg_len - n_full * dt
        if remainder <= dt * 1e-9:
            remainder = 0.0
        plan.append(_Segment(start, end, R, n_full, remainder))
        start = end
    return plan


def step_count(scenario: Scenario) -> int:
    """Number of integration steps run() takes on a validated scenario.

    Each load event off the dt grid adds one shortened step to its segment.
    """
    return sum(seg.n_full + (seg.remainder > 0.0) for seg in _segments(scenario))


def _compile(scenario: Scenario):
    """Compile the closed loop of one scenario into a fixed-step RK4 kernel.

    Returns ``step_at(R)``, which gives the step function and the record
    builder at load ``R``:
    ``step(t_next, h, iL1, iL2, Vo, d2) -> (iL1, iL2, Vo, d2, sat2)``, one
    step of length h that ends at time t_next, and
    ``record(t, iL1, iL2, Vo, d2, sat2) -> TraceRecord``. Both run over four
    floats with the scenario's constants bound once. The record evaluates
    controller_step, the step controller_step followed by plant_derivatives,
    expression by expression, in their order and with their operands, so
    they reproduce them bit for bit. Only subexpressions that those functions compute from
    the same operands in the same order are shared.

    Non-finiteness is checked once per step, on the new state: every stage
    slope enters the final sum linearly, so a finite new state means every
    stage was finite. d2 is checked before it is clamped to [0, 1], since
    the clamp would absorb an inf; sat2 reports whether the clamp changed it.
    Raises DivergenceError at t_next naming the first non-finite component.
    """
    p1, p2, gains = scenario.p1, scenario.p2, scenario.gains
    L1, Vin1, Imax1 = p1.L, p1.Vin, p1.Imax
    L2, Vin2, Imax2 = p2.L, p2.Vin, p2.Imax
    k1, k2, duty_min, duty_max = gains.k1, gains.k2, gains.duty_min, gains.duty_max
    Vref = scenario.Vref
    Ctot = p1.C + p2.C
    IL1 = Imax1 * L1
    IL2 = Imax2 * L2
    IL2_Vin2 = IL2 / Vin2
    X = coupling_constant(p1, p2, gains.x_guard)
    isfinite = math.isfinite

    def step_at(R: float):
        Vref_R = Vref / R

        def f(iL1, iL2, Vo, d2):
            # controller_step, then plant_derivatives. The plant's diL2 and
            # dVo are the controller's diL2_dt and vo_dot: same operands.
            Vo_R = Vo / R
            e = Vref - Vo
            e_dot = (Vo_R - iL1 - iL2) / Ctot
            diL2 = (d2 * Vin2 - Vo) / L2
            i_tilde = Vref_R - iL2 + k1 * e - iL1
            w = -diL2 + i_tilde + e / Ctot + k1 * e_dot
            d1 = (L1 * w + Vo) / Vin1
            if duty_min > d1:
                d1 = duty_min
            if duty_max < d1:
                d1 = duty_max
            e2 = iL1 / Imax1 - iL2 / Imax2
            share1 = d1 * Vin1 / IL1
            share2 = d2 * Vin2 / IL2
            v_tilde = (-share1 + share2 - k2 * e2) / X - Vo
            dVo = (iL1 + iL2 - Vo_R) / Ctot
            e2_dot = share1 - share2 + Vo * X
            d2_dot = IL2_Vin2 * (X * (dVo + X * e2 - v_tilde) + k2 * e2_dot)
            return (d1 * Vin1 - Vo) / L1, diL2, dVo, d2_dot

        def step(t_next, h, iL1, iL2, Vo, d2):
            half = 0.5 * h
            a1, b1, c1, q1 = f(iL1, iL2, Vo, d2)
            a2, b2, c2, q2 = f(iL1 + half * a1, iL2 + half * b1, Vo + half * c1, d2 + half * q1)
            a3, b3, c3, q3 = f(iL1 + half * a2, iL2 + half * b2, Vo + half * c2, d2 + half * q2)
            a4, b4, c4, q4 = f(iL1 + h * a3, iL2 + h * b3, Vo + h * c3, d2 + h * q3)
            sixth = h / 6.0
            d2 = d2 + sixth * (q1 + 2.0 * (q2 + q3) + q4)
            if not isfinite(d2):
                raise DivergenceError(t_next, "d2")
            iL1 = iL1 + sixth * (a1 + 2.0 * (a2 + a3) + a4)
            iL2 = iL2 + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            Vo = Vo + sixth * (c1 + 2.0 * (c2 + c3) + c4)
            if not (isfinite(iL1) and isfinite(iL2) and isfinite(Vo)):
                for name, value in (("iL1", iL1), ("iL2", iL2), ("Vo", Vo)):
                    if not isfinite(value):
                        raise DivergenceError(t_next, name)
            if d2 < 0.0:
                return iL1, iL2, Vo, 0.0, True
            if d2 > 1.0:
                return iL1, iL2, Vo, 1.0, True
            return iL1, iL2, Vo, d2, False

        def record(t, iL1, iL2, Vo, d2, sat2):
            # controller_step's signals, computed as f computes them. A
            # separate evaluation: returning them from f would slow every step.
            Vo_R = Vo / R
            e = Vref - Vo
            e_dot = (Vo_R - iL1 - iL2) / Ctot
            diL2 = (d2 * Vin2 - Vo) / L2
            i_tilde = Vref_R - iL2 + k1 * e - iL1
            w = -diL2 + i_tilde + e / Ctot + k1 * e_dot
            raw = (L1 * w + Vo) / Vin1
            d1 = raw
            if duty_min > d1:
                d1 = duty_min
            if duty_max < d1:
                d1 = duty_max
            e2 = iL1 / Imax1 - iL2 / Imax2
            share1 = d1 * Vin1 / IL1
            share2 = d2 * Vin2 / IL2
            v_tilde = (-share1 + share2 - k2 * e2) / X - Vo
            dVo = (iL1 + iL2 - Vo_R) / Ctot
            e2_dot = share1 - share2 + Vo * X
            d2_dot = IL2_Vin2 * (X * (dVo + X * e2 - v_tilde) + k2 * e2_dot)
            return TraceRecord(
                t, iL1, iL2, Vo, d1, d2, d2_dot, e, e2,
                0.5 * (e * e + i_tilde * i_tilde),
                0.5 * (e2 * e2 + v_tilde * v_tilde),
                R, d1 != raw, sat2,
            )

        return step, record

    return step_at


def simulate(scenario: Scenario) -> Iterator[TraceRecord]:
    """Validate and compile the scenario, then return an iterator over its trace.

    Validation and compilation happen on the call, so a bad scenario raises
    before any record is produced. The iterator integrates from t=0 to t_end
    as it is consumed and yields the initial sample, every record_every-th
    step, both sides of every load event (same time and state, old and new
    resistance) and the final sample; a consumer that drops each record
    runs in constant memory. Iterating fails fast with DivergenceError on a
    non-finite state or CcmViolationError when an inductor current drops
    below -CCM_TOL.
    """
    validate_scenario(scenario)
    plan = _segments(scenario)
    step_at = _compile(scenario)
    kernels = [step_at(seg.R) for seg in plan]  # (step, record) per segment
    return _integrate(scenario, plan, kernels)


def _integrate(scenario: Scenario, plan, kernels) -> Iterator[TraceRecord]:
    """The generator simulate() returns: one pass over the segment plan."""
    state = scenario.initial_state
    iL1, iL2, Vo, d2 = state.iL1, state.iL2, state.Vo, state.d2
    _, first_record = kernels[0]
    yield first_record(0.0, iL1, iL2, Vo, d2, False)
    if scenario.t_end == 0.0:
        return

    dt, every = scenario.dt, scenario.record_every
    ccm_floor = -CCM_TOL
    sat2 = False
    steps = 0
    for k, (seg_start, seg_end, _, n_full, remainder) in enumerate(plan):
        step, record = kernels[k]
        n_sub = n_full + (remainder > 0.0)
        for i in range(1, n_sub + 1):
            h = dt if i <= n_full else remainder
            t_next = seg_end if i == n_sub else seg_start + i * dt
            iL1, iL2, Vo, d2, sat2 = step(t_next, h, iL1, iL2, Vo, d2)
            steps += 1
            if iL1 < ccm_floor or iL2 < ccm_floor:
                name, value = ("iL1", iL1) if iL1 < ccm_floor else ("iL2", iL2)
                raise CcmViolationError(t_next, name, value)
            if steps % every == 0 and t_next != seg_end:
                yield record(t_next, iL1, iL2, Vo, d2, sat2)
        # Segment boundary: either a load event (record both sides) or t_end.
        yield record(seg_end, iL1, iL2, Vo, d2, sat2)
        if k + 1 < len(kernels):
            _, next_record = kernels[k + 1]
            yield next_record(seg_end, iL1, iL2, Vo, d2, sat2)


def run(scenario: Scenario) -> list[TraceRecord]:
    """The whole trace of simulate(scenario) as a list."""
    return list(simulate(scenario))
