"""Per-layer numbers for one workload, taken inside the program's process.

    python3 bench/tracer.py trace <scenario> <csv> <out.json> [run args...]
        Wrap the functions the run loop calls, run `parbuck run` in-process
        and write the call counts, self times and inclusive times per layer.
    python3 bench/tracer.py micro <scenario> <csv> <out.json> [run args...]
        Time one call of each layer with timeit, on states sampled from the
        trace CSV that a `trace` run wrote, and write microseconds per call.

Functions are looked up by module and name. One that no longer exists, or
that no longer accepts the call, is listed as absent rather than failing the
run, so the benchmark keeps working while the program is restructured.
parbuck is imported from PYTHONPATH, which the benchmark points at the
checkout's src/.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
import timeit
from collections import defaultdict

# (module, attribute, layer). A layer may have several bindings of one
# function; each call goes through exactly one of them.
TRACED = (
    ("parbuck.sim", "controller_step", "control.controller_step"),
    ("parbuck.sim", "plant_derivatives", "model.plant_derivatives"),
    ("parbuck.sim", "rk4_step", "sim.rk4_step"),
    ("parbuck.sim", "active_load", "sim.active_load"),
    ("parbuck.sim", "_make_record", "sim.record"),
    ("parbuck.cli", "run", "sim.run"),
    ("parbuck.cli", "format_trace_csv", "trace_csv.format"),
    ("parbuck.cli", "compute_metrics", "metrics.compute"),
    ("parbuck.scenario_io", "parse_scenario", "scenario_io.parse"),
    ("parbuck.scenario_io", "validate_scenario", "sim.validate"),
    ("parbuck.sim", "validate_scenario", "sim.validate"),
)
SAMPLES = 64          # states drawn from the trace for each microbench
REPEATS = 5
MIN_BATCH_S = 0.02    # grow the call count until one repeat takes this long


def _resolve(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Counts calls and splits time into self time and wrapped children."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.absent: list[str] = []
        self._children: list[float] = []   # child time of each open span

    def _wrap(self, layer, fn):
        calls, self_s, total_s, children = self.calls, self.self_s, self.total_s, self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - inner
                total_s[layer] += elapsed
                if children:
                    children[-1] += elapsed
        return traced

    def install(self) -> None:
        for module, attr, layer in TRACED:
            fn = _resolve(module, attr)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(importlib.import_module(module), attr, self._wrap(layer, fn))


def trace(scenario: str, csv: str, out: str, run_args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("parbuck.cli")
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["run", scenario, "-o", csv, *run_args])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "calls": tracer.calls, "self_s": tracer.self_s,
                   "total_s": tracer.total_s, "absent": tracer.absent}, fh)
    return code


def _per_call_us(batch, calls_per_batch: int) -> float:
    timer = timeit.Timer(batch)
    number = 1
    while timer.timeit(number) < MIN_BATCH_S:
        number *= 2
    return statistics.median(timer.repeat(REPEATS, number)) / (number * calls_per_batch) * 1e6


def micro(scenario_path: str, csv: str, out: str, run_args: list[str]) -> int:
    scenario_io = importlib.import_module("parbuck.scenario_io")
    model = importlib.import_module("parbuck.model")
    with open(scenario_path, encoding="utf-8") as fh:
        text = fh.read()
    scn = scenario_io.parse_scenario(text)
    with open(csv, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().splitlines()
    col = {name: i for i, name in enumerate(header)}
    picked = [rows[i * (len(rows) - 1) // (SAMPLES - 1)].split(",") for i in range(SAMPLES)]
    samples = [
        (model.PlantState(*(float(r[col[k]]) for k in ("iL1", "iL2", "Vo", "d2"))),
         float(r[col["t"]]), float(r[col["R"]]), float(r[col["d1"]]), float(r[col["d2_dot"]]))
        for r in picked
    ]
    times = [scn.t_end * i / SAMPLES for i in range(SAMPLES)]

    # metric: (module, function, batch of calls, calls per batch)
    benches = {
        "scenario_io.parse_us": ("parbuck.scenario_io", "parse_scenario",
                                 lambda f: lambda: f(text), 1),
        "scenario_io.format_us": ("parbuck.scenario_io", "format_scenario",
                                  lambda f: lambda: f(scn), 1),
        "sim.validate_us": ("parbuck.sim", "validate_scenario", lambda f: lambda: f(scn), 1),
        "control.controller_step_us": (
            "parbuck.control", "controller_step",
            lambda f: lambda: [f(s, scn.Vref, R, scn.p1, scn.p2, scn.gains)
                               for s, _, R, _, _ in samples], SAMPLES),
        "model.plant_derivatives_us": (
            "parbuck.model", "plant_derivatives",
            lambda f: lambda: [f(s, scn.p1, scn.p2, R, d1, d2_dot)
                               for s, _, R, d1, d2_dot in samples], SAMPLES),
        "sim.rk4_step_us": (
            "parbuck.sim", "rk4_step",
            lambda f: lambda: [f(s, t, scn.dt, scn) for s, t, _, _, _ in samples], SAMPLES),
        "sim.active_load_us": (
            "parbuck.sim", "active_load",
            lambda f: lambda: [f(scn.load_schedule, t) for t in times], SAMPLES),
        "plotting.emit_us": ("parbuck.plotting", "emit_plot_script", lambda f: lambda: f(csv), 1),
    }
    result, absent = {}, []
    for name, (module, attr, make_batch, per_batch) in benches.items():
        fn = _resolve(module, attr)
        if fn is None:
            absent.append(f"{module}.{attr}")
            continue
        try:
            result[name] = _per_call_us(make_batch(fn), per_batch)
        except Exception as exc:  # the call no longer fits: report it, measure the rest
            absent.append(f"{module}.{attr}: {type(exc).__name__}: {exc}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"us": result, "absent": absent}, fh)
    return 0


if __name__ == "__main__":
    mode, scenario_arg, csv_arg, out_arg, *rest = sys.argv[1:]
    sys.exit({"trace": trace, "micro": micro}[mode](scenario_arg, csv_arg, out_arg, rest))
