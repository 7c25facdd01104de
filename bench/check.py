"""Correctness checks on the trace CSV of one `parbuck run`.

Every run is checked against the layout the scenario implies (row count,
record times and loads) and against invariants that hold on any correct
trace: finite values, continuous conduction, duties inside [0, 1], the
error definitions e = Vref - Vo and e2 = iL1/Imax1 - iL2/Imax2, and a
regulated output at the end. Where a compact reference exists for the
workload and seed (every k-th row plus all event rows and the final row,
taken at the commit that defined the benchmark), each value must also match
it to within TOLERANCE of its column's peak magnitude. That admits the
~1e-14 drift of reassociated arithmetic and catches any change of
behaviour.

    python3 bench/check.py --write-reference

rewrites the references from the current program; do that only when the
program's behaviour is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

COLUMNS = ("t", "iL1", "iL2", "Vo", "d1", "d2", "d2_dot",
           "e", "e2", "V1_lyap", "V2_lyap", "R", "sat1", "sat2")
COL = {name: i for i, name in enumerate(COLUMNS)}
TOLERANCE = 1e-9
CCM_TOL = 1e-9
REGULATION_BAND = 0.02   # |Vo - Vref| / Vref at the final record
REGULAR_ROWS = 100       # evenly spaced rows kept in a reference
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sample_indices(layout_rows) -> list[int]:
    """Every k-th record, both sides of each load event and the final record."""
    n = len(layout_rows)
    keep = set(range(0, n, max(1, n // REGULAR_ROWS)))
    keep.add(n - 1)
    for i in range(1, n):
        if layout_rows[i][0] == layout_rows[i - 1][0]:
            keep.update((i - 1, i))
    return sorted(keep)


def _row(lines: list[str], i: int) -> list[float]:
    return [float(v) for v in lines[i + 1].split(",")]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(w: workloads.Workload) -> dict | None:
    """The stored reference, if it applies to this workload, seed and length."""
    path = reference_path(w.name)
    if w.smoke or not path.is_file():
        return None
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["seed"] is not None and ref["seed"] != w.seed:
        return None
    return ref


def check_trace(data: bytes, w: workloads.Workload, ref: dict | None) -> dict:
    """Problems found in one trace CSV, plus its digest and reference error.

    Returns {"problems": [...], "sha256": ..., "max_norm_err": float|None,
    "bit_identical": bool|None}; the trace is correct when problems is empty.
    """
    f = w.facts
    problems: list[str] = []
    result = {"problems": problems, "sha256": sha256(data),
              "max_norm_err": None, "bit_identical": None}
    lines = data.decode("utf-8").split("\n")
    if lines[0] != ",".join(COLUMNS) or lines[-1] != "":
        problems.append("header or final newline differs from the trace format")
        return result
    _, expected = workloads.layout(f)
    if len(lines) - 2 != len(expected):
        problems.append(f"{len(lines) - 2} records, expected {len(expected)}")
        return result

    parsed: dict[int, list[float]] = {}
    for i in sample_indices(expected):
        try:
            v = _row(lines, i)
        except ValueError:
            problems.append(f"record {i}: unparsable row")
            continue
        if len(v) != len(COLUMNS) or not all(map(math.isfinite, v)):
            problems.append(f"record {i}: wrong width or non-finite value")
            continue
        parsed[i] = v
        t_ref, R_ref = expected[i]
        bad = []
        if abs(v[COL["t"]] - t_ref) > 1e-12 * f.t_end or v[COL["R"]] != R_ref:
            bad.append(f"(t, R) = ({v[COL['t']]!r}, {v[COL['R']]!r}), "
                       f"expected ({t_ref!r}, {R_ref!r})")
        if min(v[COL["iL1"]], v[COL["iL2"]]) < -CCM_TOL:
            bad.append("inductor current below zero")
        if not (0.0 <= v[COL["d1"]] <= 1.0 and 0.0 <= v[COL["d2"]] <= 1.0):
            bad.append("duty outside [0, 1]")
        if abs(v[COL["e"]] - (f.Vref - v[COL["Vo"]])) > 1e-9 * f.Vref:
            bad.append("e != Vref - Vo")
        e2 = v[COL["iL1"]] / f.Imax1 - v[COL["iL2"]] / f.Imax2
        if abs(v[COL["e2"]] - e2) > 1e-9:
            bad.append("e2 != iL1/Imax1 - iL2/Imax2")
        if min(v[COL["V1_lyap"]], v[COL["V2_lyap"]]) < 0.0:
            bad.append("negative loop energy")
        if v[COL["sat1"]] not in (0.0, 1.0) or v[COL["sat2"]] not in (0.0, 1.0):
            bad.append("saturation flag not 0/1")
        problems.extend(f"record {i}: {b}" for b in bad)
    final = parsed.get(len(expected) - 1)
    if final is not None and abs(final[COL["e"]]) > REGULATION_BAND * f.Vref:
        problems.append(f"output not regulated at t_end: e = {final[COL['e']]!r} V")

    if ref is not None:
        result["bit_identical"] = result["sha256"] == ref["sha256"]
        worst = 0.0
        for i, *want in ref["rows"]:
            got = parsed.get(i)
            if got is None:
                continue  # already reported
            for c, (a, b, scale) in enumerate(zip(got, want, ref["scale"])):
                err = abs(a - b) / scale
                worst = max(worst, err)
                if err > TOLERANCE:
                    problems.append(f"record {i} column {COLUMNS[c]}: {a!r} vs "
                                    f"reference {b!r} (normalised error {err:.3g})")
        result["max_norm_err"] = worst
    return result


def make_reference(data: bytes, w: workloads.Workload) -> dict:
    lines = data.decode("utf-8").split("\n")
    rows = [_row(lines, i) for i in range(len(lines) - 2)]
    scale = [max(abs(r[c]) for r in rows) or 1.0 for c in range(len(COLUMNS))]
    _, expected = workloads.layout(w.facts)
    return {
        "workload": w.name,
        "seed": w.seed if w.name == "load_train" else None,
        "n_rows": len(rows),
        "sha256": sha256(data),
        "scale": scale,
        "rows": [[i, *rows[i]] for i in sample_indices(expected)],
    }


def _write_references() -> None:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    (root / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        for name in workloads.WORKLOADS:
            w = workloads.build(name, workloads.DEFAULT_SEED, root)
            scn, csv = Path(tmp, f"{name}.scn"), Path(tmp, f"{name}.csv")
            scn.write_text(w.text, encoding="utf-8")
            subprocess.run([sys.executable, "-m", "parbuck.cli", "run", str(scn),
                            "-o", str(csv), *w.run_args],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            ref = make_reference(csv.read_bytes(), w)
            problems = check_trace(csv.read_bytes(), w, ref)["problems"]
            if problems:
                raise SystemExit(f"{name}: trace fails its own checks: {problems[:3]}")
            reference_path(name).write_text(json.dumps(ref) + "\n", encoding="utf-8")
            print(f"{name}: {len(ref['rows'])} of {ref['n_rows']} rows -> "
                  f"{reference_path(name)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit(__doc__)
    _write_references()
