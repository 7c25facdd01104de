"""Acceptance gate: the eight criteria for this simulator, one test each.

Each test prints one PASS/FAIL line with the measured numbers, then asserts.
Criterion 2 judges the load step on a run long enough for the sharing loop's
guaranteed decay to settle it; see the settled_step_trace fixture.

Criterion 7 currently fails on the load-step scenario, and the fault is the
controller's: the sharing law assumes d1 frozen, but the voltage law moves d1
against d2, so the recorded sharing-loop energy (e2^2 + v_tilde^2)/2 is not
that loop's Lyapunov function. The derivation is in the parbuck.control
module docstring.
"""

import math
import time
from dataclasses import replace

import pytest

from parbuck import (
    CcmViolationError,
    bundled_scenario_text,
    compute_metrics,
    controller_step,
    equilibrium,
    parse_scenario,
    run,
)
from parbuck.cli import EXIT_CCM, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, EXIT_PARSE, main

import identities
import numerics


def report(num: int, name: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(good for _, good, _ in checks)
    details = "; ".join(
        f"{label}={detail}" + ("" if good else " <-- FAIL")
        for label, good, detail in checks
    )
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} -- {details}")
    failing = [f"{label} ({detail})" for label, good, detail in checks if not good]
    assert not failing, f"criterion {num} [{name}]: " + "; ".join(failing)


TAIL = 0.1          # steady-state window: the final tenth of a run
E2_LIMIT = 1e-3     # per-unit mismatch allowed in that window


def tail(trace, fraction=TAIL):
    t0, t1 = trace[0].t, trace[-1].t
    start = t1 - fraction * (t1 - t0)
    return [r for r in trace if r.t >= start]


@pytest.fixture(scope="module")
def settled_step_trace(step_scenario, step_trace):
    """The bundled load step, run until the sharing loop's guaranteed decay settles it.

    With d1 frozen, the sharing law makes sqrt(e2^2 + v_tilde^2) decay at
    least as fast as exp(-min(k2, 1)*t) (parbuck.control); at the shipped
    k2 = 1 that is also the rate (1 + k2)/2 of the designed poles. Started at
    the event from the largest |e2| of the 0.1 s run after it (0.070, in the
    voltage loop's first millisecond; sqrt(e2^2 + v_tilde^2) is 0.052 once
    that loop is at rest), the bound is below E2_LIMIT over the whole final
    TAIL of a run that ends at

        t_end = (t_event + ln(peak / E2_LIMIT) / min(k2, 1)) / (1 - TAIL),

    rounded up to 10 ms: 4.78 s, about 4.8e6 RK4 steps. The horizon relies on
    that guaranteed rate alone. The shipped controller decays faster, at about
    1.4/s, only because of the d1-d2 coupling behind criterion 7's failure, so
    mending that coupling does not shorten the run this criterion needs.
    Scenario, gains, dt and record cadence are unchanged.
    """
    event = step_scenario.load_schedule[-1].time
    peak = max(abs(r.e2) for r in step_trace if r.t >= event)
    rate = min(step_scenario.gains.k2, 1.0)
    t_end = (event + math.log(peak / E2_LIMIT) / rate) / (1.0 - TAIL)
    return run(replace(step_scenario, t_end=math.ceil(t_end * 100.0) / 100.0))


def test_criterion_1_constant_load_reproduction(constant_scenario):
    """Vo regulated within 1% and per-unit currents matched to 1e-3 in 0.1 s."""
    started = time.perf_counter()
    trace = run(constant_scenario)
    elapsed = time.perf_counter() - started
    window = tail(trace)
    worst_v = max(abs(r.Vo - 8.0) / 8.0 for r in window)
    worst_e2 = max(abs(r.e2) for r in window)
    report(1, "constant-load reproduction", [
        ("rel voltage error", worst_v < 0.01, f"{worst_v:.2e} (limit 1e-2)"),
        ("per-unit mismatch", worst_e2 < 1e-3, f"{worst_e2:.2e} (limit 1e-3)"),
        ("runtime", elapsed < 5.0, f"{elapsed:.2f}s (limit 5s)"),
    ])


def test_criterion_2_load_step_reproduction(step_scenario, settled_step_trace):
    """State continuity across the 10->15 ohm event and full re-convergence.

    Judged on settled_step_trace, whose horizon comes from the sharing loop's
    guaranteed decay rate, not from the realised trace.
    """
    at_event = [r for r in settled_step_trace if r.t == 0.05]
    continuous = (
        len(at_event) == 2
        and (at_event[0].iL1, at_event[0].iL2, at_event[0].Vo, at_event[0].d2)
        == (at_event[1].iL1, at_event[1].iL2, at_event[1].Vo, at_event[1].d2)
        and (at_event[0].R_active, at_event[1].R_active) == (10.0, 15.0)
    )
    window = tail(settled_step_trace)
    worst_v = max(abs(r.Vo - 8.0) / 8.0 for r in window)
    worst_e2 = max(abs(r.e2) for r in window)
    eq15 = equilibrium(step_scenario.p1, step_scenario.p2, 15.0, 8.0)
    last = settled_step_trace[-1]
    err1 = abs(last.iL1 - eq15.iL1) / eq15.iL1
    err2 = abs(last.iL2 - eq15.iL2) / eq15.iL2
    report(2, "load-step reproduction", [
        ("state continuous across event", continuous, "both-sides records equal"),
        ("rel voltage error", worst_v < 0.01, f"{worst_v:.2e} (limit 1e-2)"),
        ("per-unit mismatch", worst_e2 < E2_LIMIT, f"{worst_e2:.2e} (limit 1e-3)"),
        ("iL1 vs 0.38095 A", err1 < 0.01, f"{err1:.2%} off (limit 1%)"),
        ("iL2 vs 0.15238 A", err2 < 0.01, f"{err2:.2%} off (limit 1%)"),
    ])


def test_criterion_3_equilibrium_fixed_point(constant_scenario):
    """Analytic equilibrium: exact controller hold and integrator invariance."""
    scn = constant_scenario
    eq = equilibrium(scn.p1, scn.p2, 10.0, 8.0)
    sig = controller_step(eq, scn.Vref, 10.0, scn.p1, scn.p2, scn.gains)
    d1_err = abs(sig.d1 - scn.Vref / scn.p1.Vin)
    stepped = run(replace(scn, initial_state=eq, t_end=scn.dt))[-1]
    rel_moves = [
        abs(getattr(stepped, f) - getattr(eq, f)) / max(abs(getattr(eq, f)), 1e-300)
        for f in ("iL1", "iL2", "Vo", "d2")
    ]
    report(3, "equilibrium fixed point", [
        ("|d1 - Vref/Vin1|", d1_err < 1e-10, f"{d1_err:.2e} (limit 1e-10)"),
        ("|d2_dot|", abs(sig.d2_dot) < 1e-10, f"{abs(sig.d2_dot):.2e} (limit 1e-10)"),
        ("state move / step", max(rel_moves) < 1e-12, f"{max(rel_moves):.2e} (limit 1e-12)"),
    ])


def test_criterion_4_derivation_consistency():
    """All four design identities hold to 1e-10 on 1000 random samples each."""
    checks = []
    for label, checker, seed in (
        ("voltage error dynamics", identities.voltage_error_dynamics_gap, 11),
        ("sharing error dynamics", identities.sharing_error_dynamics_gap, 22),
        ("voltage-loop energy rate", identities.voltage_lyapunov_gap, 33),
        ("sharing-loop energy rate", identities.sharing_lyapunov_gap, 44),
    ):
        worst = identities.worst_gap(checker, n=1000, seed=seed)
        checks.append((label, worst < 1e-10, f"{worst:.2e} (limit 1e-10)"))
    report(4, "derivation consistency (1000 samples)", checks)


def test_criterion_5_integrator_order(constant_scenario):
    """Fourth order on the exponential oracle and on the closed loop."""
    orders = numerics.exponential_orders(rate=1.0, dts=(0.2, 0.1, 0.05, 0.025), t_end=2.0)
    coarse, fine, ratio, saturated = numerics.closed_loop_richardson(constant_scenario)
    report(5, "integrator order", [
        ("exp-decay observed orders", all(3.7 <= p <= 4.3 for p in orders),
         "[" + ", ".join(f"{p:.2f}" for p in orders) + "] (limits [3.7, 4.3])"),
        ("closed-loop Richardson ratio", ratio >= 8.0 and not saturated,
         f"{ratio:.1f} (limit >= 8, unsaturated trajectory)"),
    ])


def test_criterion_6_continuous_conduction(constant_trace, step_trace):
    """Neither bundled scenario ever drives an inductor current negative."""
    worst_const = min(min(r.iL1, r.iL2) for r in constant_trace)
    worst_step = min(min(r.iL1, r.iL2) for r in step_trace)
    report(6, "continuous conduction", [
        ("constant-load min iL", worst_const >= -1e-9, f"{worst_const:.3e} A (limit -1e-9)"),
        ("load-step min iL", worst_step >= -1e-9, f"{worst_step:.3e} A (limit -1e-9)"),
    ])


def test_criterion_7_lyapunov_diagnostic(constant_scenario, step_scenario,
                                         constant_trace, step_trace):
    """Loop energies grow on <5% of unsaturated sample pairs after 5 ms: the
    lyap_violation_fraction that `parbuck run` prints, over the records from
    5 ms on."""
    frac_const = compute_metrics([r for r in constant_trace if r.t >= 5e-3],
                                 constant_scenario.Vref).lyap_violation_fraction
    frac_step = compute_metrics([r for r in step_trace if r.t >= 5e-3],
                                step_scenario.Vref).lyap_violation_fraction
    report(7, "Lyapunov decrease diagnostic", [
        ("constant-load violation fraction", frac_const < 0.05,
         f"{frac_const:.3f} (limit 0.05)"),
        ("load-step violation fraction", frac_step < 0.05,
         f"{frac_step:.3f} (limit 0.05)"),
    ])


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    """Bundled scenarios drive the CLI end to end; every exit code is reachable."""
    checks = []
    for name in ("constant_load", "load_step"):
        scn_path = tmp_path / f"{name}.scn"
        scn_path.write_text(bundled_scenario_text(name), encoding="utf-8")
        parse_scenario(scn_path.read_text())
        csv_path = tmp_path / f"{name}.csv"
        gp_path = tmp_path / f"{name}.gp"
        run_code = main(["run", str(scn_path), "-o", str(csv_path)])
        plot_code = main(["plot", str(csv_path), "-o", str(gp_path)])
        rows = len(csv_path.read_text().splitlines()) if csv_path.exists() else 0
        checks.append((f"{name} run+plot",
                       run_code == EXIT_OK and plot_code == EXIT_OK and rows > 2000,
                       f"exit {run_code}/{plot_code}, {rows} csv rows"))

    bad = tmp_path / "bad.scn"
    bad.write_text(bundled_scenario_text("constant_load").replace("k1 = 1", "oops = 1"))
    cold = tmp_path / "cold.scn"
    cold.write_text(
        bundled_scenario_text("constant_load").replace("init = equilibrium", "init = zero"))
    codes = {
        "parse": main(["run", str(bad)]),
        "divergence": main(["run", str(tmp_path / "constant_load.scn"),
                            "-o", str(tmp_path / "d.csv"),
                            "--dt", "1e100", "--t-end", "1e100"]),
        "ccm": main(["run", str(cold), "-o", str(tmp_path / "c.csv")]),
        "io": main(["run", str(tmp_path / "missing.scn")]),
    }
    expected = {"parse": EXIT_PARSE, "divergence": EXIT_DIVERGENCE,
                "ccm": EXIT_CCM, "io": EXIT_IO}
    capsys.readouterr()  # swallow the error messages already checked elsewhere
    checks.append(("error exit codes",
                   codes == expected,
                   f"{codes} (expected {expected})"))
    report(8, "CLI round trip", checks)
