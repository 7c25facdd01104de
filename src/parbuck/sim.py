"""Fixed-step closed-loop integration with load events and trace recording.

The controller is evaluated inside every integrator stage (continuous-time
control, no sample-and-hold), the load is piecewise constant with steps
snapped to integration step boundaries, and the run fails fast if the state
diverges or an inductor current leaves continuous conduction.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, NamedTuple

from .errors import CcmViolationError, DivergenceError
from .model import equilibrium
from .scenario import CCM_TOL, MAX_STEPS, Scenario, _segments, coupling_constant

# Fewest steps worth a jump: its check and its one map cost about as much as
# three steps, so a shorter stretch is stepped, and a run recording more
# often than this builds no jump certificate.
MIN_JUMP = 4

# Most steps stepped after a failed jump check before the next check: a
# check costs about two steps, so a stretch that never settles pays about 3%
# for its checks, however sparse the records. Not below the shipped record
# cadence of 50, so runs at that cadence check only at their records.
RECHECK_AFTER = 64

# Most record times in one Stretch. The CSV text of a Stretch's rows is built
# as one string, so this bounds what a run at rest holds at once: 64 rows of
# the bundled load step's trace are about 9.5 KiB.
STRETCH_RECORDS = 64


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


class Stretch(NamedTuple):
    """Records at rest: one TraceRecord at each time, all with one body.

    times holds 1 to STRETCH_RECORDS strictly increasing times of one load
    segment, none of them its end; body holds the 13 values after t, the
    very objects that each of these records holds.
    """

    times: list[float]
    body: tuple


class _Affine:
    """An affine form c[0]*u0 + c[1]*u1 + c[2]*u2 + c[3]*u3 + c[4] in the
    deviation u = (iL1, iL2, Vo, d2) - x* of the state from an expansion point.

    It supports the float operations of the closed-loop expression chain, so
    that chain, run over forms, gives its exact affine expansion. The
    constant term follows the same float operations as the chain at x*.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        a0, a1, a2, a3, a4 = self.c
        if type(other) is _Affine:
            b0, b1, b2, b3, b4 = other.c
            return _Affine((a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4))
        return _Affine((a0, a1, a2, a3, a4 + other))

    __radd__ = __add__

    # -b is b * -1.0, the sign of a zero included, and a - b is a + -b,
    # exactly in IEEE arithmetic.
    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + other * -1.0

    def __rsub__(self, other):
        return self * -1.0 + other

    def __mul__(self, k):
        a0, a1, a2, a3, a4 = self.c
        return _Affine((a0 * k, a1 * k, a2 * k, a3 * k, a4 * k))

    __rmul__ = __mul__

    def __truediv__(self, k):
        a0, a1, a2, a3, a4 = self.c
        return _Affine((a0 / k, a1 / k, a2 / k, a3 / k, a4 / k))

    def __call__(self, u0, u1, u2, u3):
        """This form's value at the deviation (u0, u1, u2, u3), as Jump
        applies T^n."""
        c0, c1, c2, c3, c4 = self.c
        return c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 + c4

    def of(self, forms):
        """This form with u replaced by four forms that are affine in u."""
        c0, c1, c2, c3, c4 = self.c
        f, g, p, q = forms
        (f0, f1, f2, f3, f4), (g0, g1, g2, g3, g4), \
            (p0, p1, p2, p3, p4), (q0, q1, q2, q3, q4) = f.c, g.c, p.c, q.c
        return _Affine((
            c0 * f0 + c1 * g0 + c2 * p0 + c3 * q0,
            c0 * f1 + c1 * g1 + c2 * p1 + c3 * q1,
            c0 * f2 + c1 * g2 + c2 * p2 + c3 * q2,
            c0 * f3 + c1 * g3 + c2 * p3 + c3 * q3,
            c0 * f4 + c1 * g4 + c2 * p4 + c3 * q4 + c4,
        ))


# The deviation u itself, one form per state component.
_DEVIATION = tuple(
    _Affine(tuple(float(i == j) for j in range(5))) for i in range(4)
)


def _rk4(h, u, slope):
    """One RK4 step of length h from the four components u, with slope(u)
    giving the four derivatives at u; over floats or over _Affine forms."""
    half = 0.5 * h
    k1 = slope(u)
    k2 = slope([x + half * k for x, k in zip(u, k1)])
    k3 = slope([x + half * k for x, k in zip(u, k2)])
    k4 = slope([x + h * k for x, k in zip(u, k3)])
    sixth = h / 6.0
    return [x + sixth * (a + 2.0 * (b + c) + d) for x, a, b, c, d in zip(u, k1, k2, k3, k4)]


def _compile(scenario: Scenario):
    """Compile the closed loop of one scenario into a fixed-step RK4 kernel.

    Returns ``step_at(R)``, which gives the step function, the record
    builder and the jump at load ``R``:
    ``step(t_next, h, iL1, iL2, Vo, d2) -> (iL1, iL2, Vo, d2, sat2)``, one
    step of length h that ends at time t_next,
    ``record(t, iL1, iL2, Vo, d2, sat2) -> TraceRecord`` and
    ``jump(n, iL1, iL2, Vo, d2) -> (iL1, iL2, Vo, d2) | None``, n <=
    record_every full steps at once, or None where no jump is possible.

    The control law is written once: controller_step's expression chain,
    split at the d1 clamp, its one non-affine operation, into voltage_law
    (raw d1, e, i_tilde and the plant's diL2) and sharing_law (d2_dot, e2,
    v_tilde for the duty the plant sees and the plant's dVo). record and
    slope run it over floats with the clamp between the halves, as
    controller_step does, and slope adds plant_derivatives' diL1 row.

    At a fixed load with d1 interior the closed loop is affine in the
    state. step_at runs the chain over affine forms about x* =
    equilibrium(p1, p2, R, Vref), giving the interior field, and one RK4
    routine, _rk4, runs over those forms to compose four stages of length
    dt into each stage's raw-d1 guard and a 4x5 state map in u = x - x*.
    A full step whose four guards lie inside the duty bounds applies the
    map. About x* the map's constant terms come only from the field's
    rounding residual at x*, so a step from the analytic fixed point leaves
    it in place (bit for bit on the bundled scenarios, for dt up to 1e-3).
    Every other step, a full step that meets the clamp or a shortened step
    (one per load event off the dt grid), runs _rk4 over floats with slope.
    Steps on the map equal the scalar RK4 of controller_step and
    plant_derivatives to rounding; every other step equals it bit for bit.
    step writes its four guards and the map's sums out term by term, since
    it runs once per step taken; the jumps call the forms, which sum in the
    same order.

    n all-interior steps with d2 unclamped are the interior map's n-th
    power. When record_every >= MIN_JUMP, step_at certifies that region for
    the load (parbuck.modal, imported on first use): jump(n, ...) returns
    the state after n steps, that power applied once, if the certificate
    proves that every one of the n steps stays interior, leaves d2
    unclamped and keeps both currents at or above -CCM_TOL, and None
    otherwise. jump is None when record_every < MIN_JUMP, and when
    parbuck.modal builds no certificate: when the error-coordinate rows are
    singular, when the voltage rows reach the sharing columns, when the
    interior poles are not two complex pairs or both pairs share a pole,
    when their basis fails V·W = I, when the map is not a certified
    contraction in that basis, when its fixed-point system is singular and
    when a half-space has no slack at the fixed point.

    Non-finiteness is checked once per step, on the sum of the new state's
    components. d2 is checked before it is clamped to [0, 1], since the
    clamp would absorb an inf; sat2 reports whether the clamp changed it.
    Raises DivergenceError at t_next naming the first non-finite component
    of d2, iL1, iL2 and Vo.
    """
    p1, p2, gains = scenario.p1, scenario.p2, scenario.gains
    L1, Vin1, Imax1 = p1.L, p1.Vin, p1.Imax
    L2, Vin2, Imax2 = p2.L, p2.Vin, p2.Imax
    k1, k2, duty_min, duty_max = gains.k1, gains.k2, gains.duty_min, gains.duty_max
    Vref, dt, every = scenario.Vref, scenario.dt, scenario.record_every
    Ctot = p1.C + p2.C
    IL1 = Imax1 * L1
    IL2 = Imax2 * L2
    IL2_Vin2 = IL2 / Vin2
    X = coupling_constant(p1, p2, gains.x_guard)
    isfinite = math.isfinite

    def voltage_law(R, iL1, iL2, Vo, d2):
        """The raw d1 command, e, i_tilde and the plant's diL2."""
        e = Vref - Vo
        e_dot = (Vo / R - iL1 - iL2) / Ctot
        diL2 = (d2 * Vin2 - Vo) / L2
        i_tilde = Vref / R - iL2 + k1 * e - iL1
        w = -diL2 + i_tilde + e / Ctot + k1 * e_dot
        return (L1 * w + Vo) / Vin1, e, i_tilde, diL2

    def sharing_law(R, iL1, iL2, Vo, d2, d1):
        """d2_dot, e2 and v_tilde for the duty d1 the plant sees, and the
        plant's dVo."""
        e2 = iL1 / Imax1 - iL2 / Imax2
        share1 = d1 * Vin1 / IL1
        share2 = d2 * Vin2 / IL2
        v_tilde = (-share1 + share2 - k2 * e2) / X - Vo
        e2_dot = share1 - share2 + Vo * X
        dVo = (iL1 + iL2 - Vo / R) / Ctot
        d2_dot = IL2_Vin2 * (X * (dVo + X * e2 - v_tilde) + k2 * e2_dot)
        return d2_dot, e2, v_tilde, dVo

    def step_at(R: float):
        star = equilibrium(p1, p2, R, Vref)
        s0, s1, s2, s3 = star
        x = iL1, iL2, Vo, d2 = [u + c for u, c in zip(_DEVIATION, star)]
        raw_d1, e, i_tilde, diL2 = voltage_law(R, *x)
        d2_dot, e2, v_tilde, dVo = sharing_law(R, *x, raw_d1)
        rows = ((raw_d1 * Vin1 - Vo) / L1, diL2, dVo, d2_dot)

        # The interior field's four stages of length dt, composed into each
        # stage's raw-d1 guard and the 4x5 state map in u.
        guards = []

        def interior_slope(inputs):
            guards.append(raw_d1.of(inputs).c)
            return [row.of(inputs) for row in rows]

        interior_map = [form.c for form in _rk4(dt, _DEVIATION, interior_slope)]
        (g10, g11, g12, g13, g14), (g20, g21, g22, g23, g24), \
            (g30, g31, g32, g33, g34), (g40, g41, g42, g43, g44) = guards
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), \
            (c0, c1, c2, c3, c4), (q0, q1, q2, q3, q4) = interior_map

        def slope(y):
            """The closed loop's field at the state y, d1 clamped."""
            d1, _, _, diL2 = voltage_law(R, *y)
            d1 = duty_min if duty_min > d1 else duty_max if duty_max < d1 else d1
            d2_dot, _, _, dVo = sharing_law(R, *y, d1)
            return (d1 * Vin1 - y[2]) / L1, diL2, dVo, d2_dot

        jump = None
        if every >= MIN_JUMP:
            # Imported here so that `import parbuck`, and a run that records
            # too often to jump, do not compile it.
            from .modal import certify

            # A step stays on interior_map while h·u + c <= bound holds for
            # both duty bounds of each stage guard before it, and for
            # iL1, iL2 >= -CCM_TOL and 0 <= d2 <= 1 after it.
            halfspaces = [
                halfspace
                for *g, g4 in guards
                for halfspace in ((g, g4, duty_max), ([-x for x in g], -g4, -duty_min))
            ] + [
                ((-1.0, 0.0, 0.0, 0.0), -s0, CCM_TOL),
                ((0.0, -1.0, 0.0, 0.0), -s1, CCM_TOL),
                ((0.0, 0.0, 0.0, 1.0), s3, 1.0),
                ((0.0, 0.0, 0.0, -1.0), -s3, 0.0),
            ]
            # The modal basis comes from the error coordinates, in which the
            # voltage pair (e, i_tilde) drives the sharing pair (e2, v_tilde).
            # No jump is longer than a segment's full steps, which MAX_STEPS
            # bounds, so a larger cadence needs no larger certificate.
            jump = certify(
                [row.c[:4] for row in rows],
                [form.c[:4] for form in (e, i_tilde, e2, v_tilde)],
                interior_map, star, halfspaces, min(every, MAX_STEPS),
            )

        def step(t_next, h, iL1, iL2, Vo, d2):
            u0 = iL1 - s0
            u1 = iL2 - s1
            u2 = Vo - s2
            u3 = d2 - s3
            if (
                h == dt
                and duty_min <= g10 * u0 + g11 * u1 + g12 * u2 + g13 * u3 + g14 <= duty_max
                and duty_min <= g20 * u0 + g21 * u1 + g22 * u2 + g23 * u3 + g24 <= duty_max
                and duty_min <= g30 * u0 + g31 * u1 + g32 * u2 + g33 * u3 + g34 <= duty_max
                and duty_min <= g40 * u0 + g41 * u1 + g42 * u2 + g43 * u3 + g44 <= duty_max
            ):
                iL1 = s0 + (a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3 + a4)
                iL2 = s1 + (b0 * u0 + b1 * u1 + b2 * u2 + b3 * u3 + b4)
                Vo = s2 + (c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 + c4)
                d2 = s3 + (q0 * u0 + q1 * u1 + q2 * u2 + q3 * u3 + q4)
            else:
                iL1, iL2, Vo, d2 = _rk4(h, (iL1, iL2, Vo, d2), slope)
            # A finite sum has finite terms; a sum of finite terms that
            # overflows names none of them and raises nothing.
            if not isfinite(iL1 + iL2 + Vo + d2):
                for name, value in (("d2", d2), ("iL1", iL1), ("iL2", iL2), ("Vo", Vo)):
                    if not isfinite(value):
                        raise DivergenceError(t_next, name)
            if d2 < 0.0:
                return iL1, iL2, Vo, 0.0, True
            if d2 > 1.0:
                return iL1, iL2, Vo, 1.0, True
            return iL1, iL2, Vo, d2, False

        def record(t, iL1, iL2, Vo, d2, sat2):
            raw, e, i_tilde, _ = voltage_law(R, iL1, iL2, Vo, d2)
            d1 = duty_min if duty_min > raw else duty_max if duty_max < raw else raw
            d2_dot, e2, v_tilde, _ = sharing_law(R, iL1, iL2, Vo, d2, d1)
            # tuple.__new__ skips the Python-level __new__ that NamedTuple
            # generates, which only packs its arguments into this tuple.
            return tuple.__new__(TraceRecord, (
                t, iL1, iL2, Vo, d1, d2, d2_dot, e, e2,
                0.5 * (e * e + i_tilde * i_tilde),
                0.5 * (e2 * e2 + v_tilde * v_tilde),
                R, d1 != raw, sat2,
            ))

        return step, record, jump

    return step_at


def simulate(scenario: Scenario) -> Iterator[TraceRecord]:
    """The trace of the scenario, compiled on the first iteration.

    The iterator integrates from t=0 to t_end as it is consumed and yields
    the initial sample, every record_every-th step, both sides of every load
    event (same time and state, old and new resistance) and the final
    sample; a consumer that drops each record runs in constant memory. It
    is stream(scenario) with each Stretch expanded into its records, which
    share the Stretch's body objects. Iterating fails fast with
    DivergenceError on a non-finite state or CcmViolationError when an
    inductor current drops below -CCM_TOL.
    """
    for item in stream(scenario):
        if type(item) is Stretch:
            times, body = item
            yield from map(tuple.__new__, repeat(TraceRecord), zip(times, *map(repeat, body)))
        else:
            yield item


def stream(scenario: Scenario) -> Iterator[TraceRecord | Stretch]:
    """simulate(scenario)'s trace with its records at rest as Stretches:
    expanding each Stretch gives simulate()'s records, in order."""
    return _stream(scenario, _compile(scenario))


def _stream(scenario: Scenario, step_at) -> Iterator[TraceRecord | Stretch]:
    """One pass over the segment plan, yielding records and Stretches.

    Every segment, the first one included, is entered the same way: its
    kernel is built and its start recorded before its first step, and the
    kernel is dropped when the run leaves it. Only a run to t = 0 has a
    segment of no length; it yields that one record and stops. At the
    segment's start and after each record, the run tries to jump to the
    next record step or to the segment's last full step, whichever comes
    first; where the jump's certificate fails, it steps to the next record
    step, or RECHECK_AFTER steps if that comes first, and tries again.
    Remainder steps and stretches shorter than MIN_JUMP steps are always
    stepped, so a run that records more often than every MIN_JUMP steps
    takes no jump.

    A stepped full step that returns its input bit for bit has reached a
    fixed point of the step, as a run started at equilibrium does at once:
    the full steps after it, up to where the run would try a jump again or
    the segment's last full step, return the same state and sat2. A jump of
    one whole record interval that returns its input bit for bit has
    reached a fixed point of that jump, and a jump reads only its length
    and the state: every whole interval after it, up to the segment's last
    full step, returns the same state with sat2 unset. Such steps are
    counted, not taken. Their records, that step's or jump's own included
    when it ends on a record step, come as Stretches of up to
    STRETCH_RECORDS times each, all sharing the body of one record() call;
    only one Stretch's times are held at once. Expanded, they are the
    records that taking each step and jump gives.
    """
    iL1, iL2, Vo, d2 = scenario.initial_state
    dt, every = scenario.dt, scenario.record_every
    ccm_floor = -CCM_TOL
    sat2, steps = False, 0
    for seg_start, seg_end, R, n_full, remainder in _segments(scenario):
        # The run's start, or the far side of a load event: same time and
        # state, new load.
        step, record, jump = step_at(R)
        yield record(seg_start, iL1, iL2, Vo, d2, sat2)
        if seg_end == seg_start:
            return
        n_sub = n_full + (remainder > 0.0)
        i = 0
        while i < n_sub:
            # Up to the next record step, but never past the last full step.
            to_record = every - steps % every
            n = min(to_record, n_full - i)
            x = iL1, iL2, Vo, d2
            got = jump(n, *x) if jump is not None and n >= MIN_JUMP else None
            if got is not None:
                iL1, iL2, Vo, d2 = got
                sat2 = False
                i += n
                steps += n
                t_next = seg_end if i == n_sub else seg_start + i * dt
                if n < every or got != x or repr(got) != repr(x):
                    if steps % every == 0 and t_next != seg_end:
                        yield record(t_next, iL1, iL2, Vo, d2, sat2)
                    continue
                # A whole record interval returned its input bit for bit,
                # and a jump reads only n and the state, so every whole
                # interval up to the last full step returns it too.
                last = i + (n_full - i) // every * every
            else:
                stop = n_sub if jump is None else min(i + min(to_record, RECHECK_AFTER), n_sub)
                for i in range(i + 1, stop + 1):
                    h = dt if i <= n_full else remainder
                    t_next = seg_end if i == n_sub else seg_start + i * dt
                    x0, x1, x2, x3 = iL1, iL2, Vo, d2
                    iL1, iL2, Vo, d2, sat2 = step(t_next, h, iL1, iL2, Vo, d2)
                    steps += 1
                    if iL1 < ccm_floor or iL2 < ccm_floor:
                        name, value = ("iL1", iL1) if iL1 < ccm_floor else ("iL2", iL2)
                        raise CcmViolationError(t_next, name, value)
                    if (
                        iL1 == x0 and i < n_full
                        and repr((iL1, iL2, Vo, d2)) == repr((x0, x1, x2, x3))
                    ):
                        # A full step returned its input bit for bit (repr
                        # tells -0.0 from 0.0, == does not), and a full step
                        # reads nothing else that changes, so every full step
                        # up to `stop` returns the same state and sat2.
                        last = min(stop, n_full)
                        break
                    if steps % every == 0 and t_next != seg_end:
                        yield record(t_next, iL1, iL2, Vo, d2, sat2)
                else:
                    continue
            # The steps up to `last` are at rest: count them at once and pass
            # their records on as Stretches of one body. The segment's last
            # step ends at seg_end and is recorded by the segment boundary.
            body = record(t_next, iL1, iL2, Vo, d2, sat2)[1:]
            record_steps = range(i + (-steps) % every, min(last + 1, n_sub), every)
            for c in range(0, len(record_steps), STRETCH_RECORDS):
                times = [
                    t for j in record_steps[c:c + STRETCH_RECORDS]
                    if (t := seg_start + j * dt) != seg_end
                ]
                if times:
                    yield Stretch(times, body)
            steps += last - i
            i = last
        # Segment boundary: the near side of a load event, or t_end.
        yield record(seg_end, iL1, iL2, Vo, d2, sat2)


def run(scenario: Scenario) -> list[TraceRecord]:
    """The whole trace of simulate(scenario) as a list."""
    return list(simulate(scenario))
