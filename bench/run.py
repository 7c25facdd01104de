"""Benchmark of `parbuck run`, driven from outside the program.

    python3 bench/run.py --workload load_step --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all      # every workload, both modes

--trace 0 measures the end-to-end metrics. Each sample is a fresh
`python -m parbuck.cli run <scenario> -o <csv>` subprocess, one at a time
(one client, closed loop, no concurrency), timed from spawn to exit, with
its peak RSS read from os.wait4. Between runs, fresh interpreters import
parbuck and load the scenario (parse + validate), which is the set-up time.
Samples are taken until --seconds is used up. After each run and each batch
of set-ups the launcher times slices of a fixed pure-Python kernel, and
every time is scaled to a host of reference speed by the slices on both
sides of it (see CAL_STEPS below). Run time, set-up time and peak RSS are
medians over the window; the unscaled times are printed too.

--trace 1 measures the per-layer metrics: one traced run in the program's
own process (bench/tracer.py), timeit microbenches on states from that
run's trace, and untraced runs for the tracing overhead.

Every run's trace is checked (bench/check.py); a run that exits nonzero or
fails a check counts as failed. --smoke shortens every workload to a few
milliseconds of simulated time so that all metrics and both count identities
are exercised in seconds (bench/selftest.py uses it).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table, the
environment stamp and a `detail` JSON line. Metric names and units come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
MIN_RUNS = 3
SETUPS_PER_RUN = 3
# Host-speed calibration. The launcher times CAL_SLICES slices of a fixed
# pure-Python RK4 kernel (CAL_STEPS steps each) after every run and every
# batch of set-ups. A measured time is scaled by REF_SLICE_S over the mean
# slice time on both sides of it, which gives the time the same work takes
# on a host where one slice takes REF_SLICE_S.
CAL_STEPS = 15000
CAL_SLICES = 16
REF_SLICE_S = 0.025
HARD_LIMIT_S = 170
SETUP_CODE = ("import sys, parbuck\n"
              "from parbuck.scenario_io import load_scenario\n"
              "load_scenario(sys.argv[1])")
# `parbuck run` prints these metric names, one per line.
PRINTED_METRICS = ("settle_time_v", "settle_time_share", "ss_voltage_error",
                   "ss_sharing_error", "recovery_time", "lyap_violation_fraction",
                   "max_duty_saturation_time")


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    cal_s: list[float]  # reference-kernel slices timed right after the exit


@dataclass
class Run:
    proc: Proc
    check: dict

    @property
    def failed(self) -> bool:
        return self.proc.code != 0 or bool(self.check["problems"])


# Runs inside the launcher process: start each requested command, time it
# from spawn to exit and reap it with wait4, then time `cal` slices of the
# reference kernel. On SIGTERM it kills and reaps the command in flight
# before exiting.
LAUNCHER_CODE = """
import json, math, os, signal, subprocess, sys, time
def stop(signum, frame):
    raise SystemExit(1)
signal.signal(signal.SIGTERM, stop)
def deriv(x, v, u):
    return v, -0.3 * v - math.sin(x) + u
def rk4(x, v, h):
    u = 0.5 if x < 1.0 else -0.5
    k1x, k1v = deriv(x, v, u)
    k2x, k2v = deriv(x + 0.5 * h * k1x, v + 0.5 * h * k1v, u)
    k3x, k3v = deriv(x + 0.5 * h * k2x, v + 0.5 * h * k2v, u)
    k4x, k4v = deriv(x + h * k3x, v + h * k3v, u)
    return (x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))
def calibrate(slices):
    times = []
    for _ in range(slices):
        start = time.perf_counter()
        x, v = 0.1, 0.0
        for _ in range(%d):
            x, v = rk4(x, v, 1e-3)
        times.append(time.perf_counter() - start)
    return times
for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        p = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                             stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime, p.returncode,
                      calibrate(req["cal"])]), flush=True)
""" % CAL_STEPS


class Launcher:
    """A small helper process that starts, times and reaps every measured command.

    Linux carries a process's peak RSS across exec, so a command started
    straight from this process would report this process's peak as its own
    ru_maxrss whenever that is the larger. The helper is started before this
    process grows and stays small, so wait4 in it reports the command's own
    peak.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER_CODE], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], cwd: Path, env: dict, log: Path, cal: int = 0) -> Proc:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "log": str(log), "cal": cal}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        wall, rss_kb, cpu, code, cal_s = json.loads(reply)
        return Proc(wall, rss_kb / 1024, cpu, code, cal_s)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Bench:
    """One benchmark invocation: a workload in a private work directory."""

    def __init__(self, w: workloads.Workload, work: Path, launcher: Launcher):
        self.w = w
        self.launcher = launcher
        self.work = work
        self.scenario = work / "scenario.scn"
        self.scenario.write_text(w.text, encoding="utf-8")
        self.steps, self.layout = workloads.layout(w.facts)
        self.reference = check.load_reference(w)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.n = 0

    def spawn(self, argv: list[str], cal: int = 0) -> Proc:
        self.n += 1
        return self.launcher.run(argv, self.work, self.env, self.work / f"proc{self.n}.log", cal)

    def log(self) -> str:
        return (self.work / f"proc{self.n}.log").read_text(encoding="utf-8", errors="replace")

    def setup(self, cal: int = 0) -> Proc:
        proc = self.spawn([sys.executable, "-c", SETUP_CODE, str(self.scenario)], cal)
        if proc.code != 0:
            raise RuntimeError(f"set-up failed (exit {proc.code}):\n{self.log()}")
        return proc

    def checked(self, proc: Proc, csv: Path, keep: bool = False) -> Run:
        if proc.code != 0 or not csv.is_file():
            result = {"problems": [f"exit {proc.code}: {self.log().strip()[-500:]}"]}
        else:
            result = check.check_trace(csv.read_bytes(), self.w, self.reference)
            result["csv_bytes"] = csv.stat().st_size
        if not keep:
            csv.unlink(missing_ok=True)
        return Run(proc, result)

    def run(self, cal: int = 0) -> Run:
        csv = self.work / "trace.csv"
        proc = self.spawn([sys.executable, "-m", "parbuck.cli", "run", str(self.scenario),
                           "-o", str(csv), *self.w.run_args], cal)
        run = self.checked(proc, csv)
        if proc.code == 0:
            out = self.log()
            missing = [m for m in PRINTED_METRICS if f"\n{m}" not in "\n" + out]
            if missing:
                run.check["problems"].append(f"run output lacks metrics {missing}")
        return run

    def tracer(self, mode: str, csv: Path) -> tuple[Proc, dict]:
        out = self.work / f"{mode}.json"
        proc = self.spawn([sys.executable, str(BENCH_DIR / "tracer.py"), mode,
                           str(self.scenario), str(csv), str(out), *self.w.run_args])
        data = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
        return proc, data


def _median_iqr(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _scale(before: list[float], after: list[float]) -> float:
    """Factor that turns a time measured between two calibrations into reference seconds."""
    return REF_SLICE_S / statistics.fmean(before + after)


def end_to_end(b: Bench, seconds: float) -> tuple[list[Run], dict, dict]:
    deadline = time.perf_counter() + seconds
    # Writes the bytecode caches, then takes the first calibration.
    cal = b.spawn([sys.executable, "-c", "import parbuck.cli"], CAL_SLICES).cal_s
    runs: list[Run] = []
    run_s: list[float] = []
    setup_s: list[float] = []
    setup_walls: list[float] = []
    slice_s: list[float] = []
    cycles: list[float] = []
    while True:
        started = time.perf_counter()
        run = b.run(CAL_SLICES)
        runs.append(run)
        run_s.append(run.proc.wall_s * _scale(cal, run.proc.cal_s))
        slice_s.extend(cal)
        cal = run.proc.cal_s
        setups = [b.setup(CAL_SLICES if i == SETUPS_PER_RUN - 1 else 0)
                  for i in range(SETUPS_PER_RUN)]
        scale = _scale(cal, setups[-1].cal_s)
        setup_s.extend(p.wall_s * scale for p in setups)
        setup_walls.extend(p.wall_s for p in setups)
        slice_s.extend(cal)
        cal = setups[-1].cal_s
        cycles.append(time.perf_counter() - started)
        if run.failed:
            break
        if len(runs) >= MIN_RUNS and time.perf_counter() + statistics.median(cycles) > deadline:
            break
    walls = [r.proc.wall_s for r in runs]
    run_med, q1, q3 = _median_iqr(run_s)
    setup_med, s1, s3 = _median_iqr(setup_s)
    # Times are medians in reference seconds: the work is deterministic and
    # CPU-bound, and this host's speed changes by up to a factor of two
    # within seconds, which the slices on both sides of a run follow.
    metrics = {
        "run_time_s": run_med,
        "steps_per_s": b.steps / run_med,
        "setup_s": setup_med,
        "peak_rss_mb": statistics.median(r.proc.rss_mb for r in runs),
    }
    detail = {
        "run_time_s": {"median": run_med, "q1": q1, "q3": q3, "n": len(run_s),
                       "samples": run_s},
        "setup_s": {"median": setup_med, "q1": s1, "q3": s3, "n": len(setup_s),
                    "samples": setup_s},
        "raw_wall_s": {"median": statistics.median(walls), "samples": walls},
        "raw_setup_s": {"median": statistics.median(setup_walls), "samples": setup_walls},
        "slice_s": {"median": statistics.median(slice_s), "min": min(slice_s),
                    "max": max(slice_s), "n": len(slice_s), "reference": REF_SLICE_S},
        "cpu_s": [r.proc.cpu_s for r in runs],
        "rss_mb": [r.proc.rss_mb for r in runs],
        "steps": b.steps,
    }
    return runs, metrics, detail


def _identity(name: str, got: int, want: int, needs: list[str], absent: list[str]) -> str:
    missing = [a for a in absent if any(a.endswith(n) for n in needs)]
    if missing:
        return f"n/a ({', '.join(missing)} absent)"
    return "hold" if got == want else f"VIOLATED: {name} = {got}, expected {want}"


def per_layer(b: Bench, seconds: float) -> tuple[list[Run], dict, dict]:
    deadline = time.perf_counter() + seconds
    b.spawn([sys.executable, "-c", "import parbuck.cli"])  # write bytecode caches
    runs = [b.run()]
    csv = b.work / "traced.csv"
    proc, layers = b.tracer("trace", csv)
    traced = b.checked(proc, csv, keep=True)
    micro_proc, micro = b.tracer("micro", csv)
    if micro_proc.code != 0:
        micro.setdefault("absent", []).append(f"microbenches: exit {micro_proc.code}: "
                                              f"{b.log().strip()[-300:]}")
    csv.unlink(missing_ok=True)
    while len(runs) < MIN_RUNS or (
            time.perf_counter() + statistics.median(r.proc.wall_s for r in runs) < deadline):
        runs.append(b.run())
        if runs[-1].failed:
            break

    calls = layers.get("calls", {})
    self_s = layers.get("self_s", {})
    total_s = layers.get("total_s", {})
    us = micro.get("us", {})
    untraceable = layers.get("absent", [])
    steps, records = calls.get("sim.rk4_step", 0), calls.get("sim.record", 0)
    ctrl, plant = calls.get("control.controller_step", 0), calls.get("model.plant_derivatives", 0)
    untraced = statistics.median(r.proc.wall_s for r in runs)
    metrics = {
        "scenario_io.parse_us": us.get("scenario_io.parse_us") or 0.0,
        "scenario_io.format_us": us.get("scenario_io.format_us") or 0.0,
        "sim.validate_us": us.get("sim.validate_us") or 0.0,
        "control.controller_step_us": us.get("control.controller_step_us") or 0.0,
        "control.controller_step_calls": ctrl,
        "control.controller_step_self_s": self_s.get("control.controller_step", 0.0),
        "control.calls_per_step": ctrl / b.steps if b.steps else 0.0,
        "model.plant_derivatives_us": us.get("model.plant_derivatives_us") or 0.0,
        "model.plant_derivatives_calls": plant,
        "model.plant_derivatives_self_s": self_s.get("model.plant_derivatives", 0.0),
        "sim.rk4_step_us": us.get("sim.rk4_step_us") or 0.0,
        "sim.steps": steps,
        "sim.rk4_step_self_s": self_s.get("sim.rk4_step", 0.0),
        "sim.run_self_s": self_s.get("sim.run", 0.0),
        "sim.active_load_us": us.get("sim.active_load_us") or 0.0,
        "sim.active_load_calls": calls.get("sim.active_load", 0),
        "sim.active_load_self_s": self_s.get("sim.active_load", 0.0),
        "sim.records": records,
        "sim.record_self_s": self_s.get("sim.record", 0.0),
        "trace_csv.format_s": total_s.get("trace_csv.format", 0.0),
        "trace_csv.bytes": traced.check.get("csv_bytes", 0),
        "metrics.compute_s": total_s.get("metrics.compute", 0.0),
        "plotting.emit_us": us.get("plotting.emit_us") or 0.0,
        "tracing.overhead_s": traced.proc.wall_s - untraced,
    }
    detail = {
        "identities": {
            "controller_step_calls == 4*steps + records": _identity(
                "controller_step_calls", ctrl, 4 * steps + records,
                ["controller_step", "rk4_step", "_make_record"], untraceable),
            "plant_derivatives_calls == 4*steps": _identity(
                "plant_derivatives_calls", plant, 4 * steps,
                ["plant_derivatives", "rk4_step"], untraceable),
            "steps == scenario steps": _identity(
                "steps", steps, b.steps, ["rk4_step"], untraceable),
            "records == scenario records": _identity(
                "records", records, len(b.layout), ["_make_record"], untraceable),
        },
        "absent": untraceable + micro.get("absent", []),
        "traced_wall_s": traced.proc.wall_s,
        "untraced_wall_s": [r.proc.wall_s for r in runs],
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
    }
    return runs + [traced], metrics, detail


def _stamp(seed: int) -> dict:
    import parbuck  # from SRC, put first on sys.path by main()

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "parbuck_version": parbuck.__version__,
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def _metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {HARD_LIMIT_S} s")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, one invocation each, then a summary."""
    rows = []
    for name in workloads.WORKLOADS:
        row = {"workload": name}
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(argv + ["--smoke"] * args.smoke, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                return out.returncode
            result = json.loads(out.stdout.splitlines()[-1])
            row.update({k: v["value"] for k, v in result["metrics"].items()})
            row[f"failed/attempted {trace}"] = f"{result['failed']}/{result['attempted']}"
        rows.append(row)
    print("\nsummary (fail_frac = failed/attempted, untraced and traced)")
    for row in rows:
        print(f"  {row['workload']:<12} run_time_s {row['run_time_s']:.4f} s  "
              f"steps_per_s {row['steps_per_s']:.0f} steps/s  setup_s {row['setup_s']:.4f} s  "
              f"peak_rss_mb {row['peak_rss_mb']:.1f} MiB  "
              f"tracing.overhead_s {row['tracing.overhead_s']:.3f} s  fail_frac "
              f"{row['failed/attempted 0']} and {row['failed/attempted 1']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"shorten the workload to t_end = {workloads.SMOKE_T_END} s")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not (SRC / "parbuck" / "__init__.py").is_file():
        print(f"error: no parbuck sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    launcher = Launcher()  # first, while this process is still small
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        units = _metric_units(bool(args.trace))
        stamp = _stamp(args.seed)
        w = workloads.build(args.workload, args.seed, ROOT, smoke=args.smoke)
        b = Bench(w, work, launcher)
        measure = per_layer if args.trace else end_to_end
        runs, metrics, detail = measure(b, args.seconds)
    finally:
        signal.alarm(0)
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_end"] = os.getloadavg()

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                           f"with BENCHMARK.json")
    failed = sum(r.failed for r in runs)
    fail_frac = failed / len(runs)
    print(f"workload {w.name}  seed {w.seed}  trace {args.trace}"
          f"{'  smoke' if w.smoke else ''}  steps {b.steps}  records {len(b.layout)}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<32} {fail_frac:>16.6g} ratio  ({failed} of {len(runs)} runs)")
    if "run_time_s" in detail:
        d, raw, cal = detail["run_time_s"], detail["raw_wall_s"], detail["slice_s"]
        print(f"  run_time_s median of n={d['n']}, quartiles {d['q1']:.4f}-{d['q3']:.4f} s; "
              f"setup_s median of n={detail['setup_s']['n']}")
        print(f"  unscaled: run wall median {raw['median']:.4f} s, set-up median "
              f"{detail['raw_setup_s']['median']:.4f} s; calibration slice median "
              f"{cal['median'] * 1e3:.2f} ms (range {cal['min'] * 1e3:.2f}-{cal['max'] * 1e3:.2f}, "
              f"reference {REF_SLICE_S * 1e3:g} ms)")
    for label, status in detail.get("identities", {}).items():
        print(f"  identity {label}: {status}")
    problems = [p for r in runs for p in r.check["problems"]]
    errors = [r.check["max_norm_err"] for r in runs if r.check.get("max_norm_err") is not None]
    print(f"  checks: {len(problems)} problems; " + (
        f"max normalised error vs reference {max(errors):.3g} (tolerance "
        f"{check.TOLERANCE:g}), bit-identical in {sum(r.check['bit_identical'] is True for r in runs)}"
        f" of {len(errors)} runs" if errors else "no reference for this workload and seed"))
    for p in problems[:5]:
        print(f"    {p}")
    print("env " + json.dumps(stamp))
    detail["checks"] = [r.check for r in runs]
    detail["fail_frac"] = fail_frac
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
