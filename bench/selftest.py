"""Self-test of the benchmark, using its smoke mode.

    python3 bench/selftest.py

Runs every workload in both modes with --smoke (a few milliseconds of
simulated time) and checks the output contract, every metric name and unit,
both count identities, the correctness checks and the load_train generator.
It takes about fifteen seconds.

The file is deliberately not named test_*.py: the count identities describe
the program's present call structure, and a change that merges the RK4 paths
or drops the record-time controller call is expected to change them. The
benchmark reports that in its output; it must not turn the project's test
suite red.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def program_trace(w: workloads.Workload) -> bytes:
    """The trace CSV the program writes for `w`, computed in this process."""
    from parbuck import format_trace_csv, parse_scenario
    from parbuck import run as simulate

    scenario = replace(parse_scenario(w.text), record_every=w.facts.record_every)
    return format_trace_csv(simulate(scenario)).encode("utf-8")


class SmokeRuns(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_every_workload_and_mode(self):
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = bench("--workload", name, "--seed", "2", "--seconds", "1",
                                "--trace", str(trace), "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_RUNS)
                    self.assertEqual(detail["fail_frac"], 0.0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float), metric)
                        if metric != "tracing.overhead_s":  # a difference of two timings
                            self.assertGreater(value["value"], 0, metric)
                    if trace:
                        self.assertEqual(detail["absent"], [])
                        for identity, status in detail["identities"].items():
                            self.assertEqual(status, "hold", identity)

    def test_refuses_to_run_without_the_program(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "bench/run.py", "--workload", "load_step",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_infeasible_run_counts_as_failed(self):
        # A dead-bus start leaves continuous conduction within microseconds and
        # `parbuck run` exits 5; the benchmark must count that, not retry.
        w = workloads.build("load_step", 1, ROOT, smoke=True)
        w = replace(w, text=w.text.replace("init = equilibrium", "init = zero"))
        launcher = run.Launcher()
        try:
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
                runs, _, _ = run.end_to_end(run.Bench(w, Path(tmp), launcher), 1.0)
        finally:
            launcher.close()
        self.assertEqual(len(runs), 1)
        self.assertEqual(runs[0].proc.code, 5)
        self.assertTrue(runs[0].failed)


class Workloads(unittest.TestCase):
    def test_load_train_is_deterministic_per_seed(self):
        a = workloads.build("load_train", 5, ROOT)
        self.assertEqual(a.text, workloads.build("load_train", 5, ROOT).text)
        self.assertNotEqual(a.text, workloads.build("load_train", 6, ROOT).text)
        schedule = a.facts.schedule
        self.assertEqual(len(schedule), workloads.TRAIN_EVENTS + 1)
        for (t0, _), (t1, r) in zip(schedule, schedule[1:]):
            self.assertLess(t0, t1)
            self.assertTrue(workloads.TRAIN_R_RANGE[0] <= r <= workloads.TRAIN_R_RANGE[1])
            self.assertTrue(0.05 <= (t1 / a.facts.dt) % 1.0 <= 0.95, t1)

    def test_layout_matches_the_program(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                w = workloads.build(name, 3, ROOT, smoke=True)
                lines = program_trace(w).decode().splitlines()[1:]
                got = [(float(l.split(",")[0]), float(l.split(",")[11])) for l in lines]
                self.assertEqual(got, workloads.layout(w.facts)[1])


class Checks(unittest.TestCase):
    def setUp(self):
        self.w = workloads.build("load_train", 4, ROOT, smoke=True)
        self.data = program_trace(self.w)
        self.ref = check.make_reference(self.data, self.w)

    def perturbed(self, row: int, column: str, rel: float) -> bytes:
        lines = self.data.decode().split("\n")
        cells = lines[row + 1].split(",")
        c = check.COL[column]
        cells[c] = repr(float(cells[c]) + rel * self.ref["scale"][c])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines).encode()

    def test_identical_trace_passes(self):
        result = check.check_trace(self.data, self.w, self.ref)
        self.assertEqual(result["problems"], [])
        self.assertTrue(result["bit_identical"])
        self.assertEqual(result["max_norm_err"], 0.0)

    def test_reassociation_drift_passes(self):
        row = self.ref["rows"][-1][0]
        result = check.check_trace(self.perturbed(row, "iL2", 1e-14), self.w, self.ref)
        self.assertEqual(result["problems"], [])
        self.assertFalse(result["bit_identical"])

    def test_behaviour_change_fails(self):
        row = self.ref["rows"][len(self.ref["rows"]) // 2][0]
        result = check.check_trace(self.perturbed(row, "d2", 1e-6), self.w, self.ref)
        self.assertTrue(result["problems"])

    def test_invariant_breach_fails_without_reference(self):
        result = check.check_trace(self.perturbed(0, "e", 1e-3), self.w, None)
        self.assertTrue(any("e != Vref - Vo" in p for p in result["problems"]))
        truncated = self.data[: self.data.rindex(b"\n", 0, -1) + 1]
        self.assertTrue(check.check_trace(truncated, self.w, None)["problems"])


if __name__ == "__main__":
    unittest.main()
