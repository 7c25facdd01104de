"""Benchmark workloads: the scenario text each one feeds to `parbuck run`.

Each workload is chosen to load a different layer of the run path:

* ``load_step``   -- the bundled paper scenario as shipped (1e5 steps, one
  10 -> 15 ohm event, a record every 50 steps). The integrator kernel
  (controller, plant model, RK4 step) does nearly all the work.
* ``dense_trace`` -- the same scenario with ``--record-every 1``: the same
  kernel work plus about 1e5 records, a 16 MB CSV and metrics over every
  record. It shows trace-path gains and a kernel gain diluted.
* ``load_train``  -- the bundled converter pair under a generated schedule of
  200 load events, R uniform in [10, 15] ohm, placed around uniform spacing
  with +-30% jitter and off the dt grid. It loads the linear load-schedule
  lookup, the remainder steps at every event and the parse/validate work of
  a long schedule. The schedule depends only on the seed.

The module also reads back, without the program's help, the scenario facts
the checks need (times, loads, step and record layout), so the checks do not
trust the code they check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("load_step", "dense_trace", "load_train")
DEFAULT_SEED = 1
TRAIN_EVENTS = 200
TRAIN_R_RANGE = (10.0, 15.0)
TRAIN_JITTER = 0.3
# Smoke mode shortens every workload to this end time, scaling event times
# with it, so that every layer and count still runs in well under a second.
SMOKE_T_END = 0.002


@dataclass(frozen=True)
class Facts:
    """The scenario values the checks need, parsed independently of parbuck."""

    Vref: float
    Imax1: float
    Imax2: float
    dt: float
    t_end: float
    record_every: int
    schedule: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    smoke: bool
    text: str                   # scenario file handed to the program
    run_args: tuple[str, ...]   # extra `parbuck run` arguments
    facts: Facts


def _sections(text: str) -> dict[str, list[tuple[str, str]]]:
    sections: dict[str, list[tuple[str, str]]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]").strip(), [])
        else:
            key, _, value = line.partition("=")
            current.append((key.strip(), value.strip()))
    return sections


def read_facts(text: str, record_every: int | None = None) -> Facts:
    s = _sections(text)
    sim = dict(s["sim"])
    return Facts(
        Vref=float(sim["Vref_V"]),
        Imax1=float(dict(s["converter1"])["Imax_A"]),
        Imax2=float(dict(s["converter2"])["Imax_A"]),
        dt=float(sim.get("dt_s", 1e-6)),
        t_end=float(sim.get("t_end_s", 0.1)),
        record_every=record_every or int(float(sim.get("record_every", 50))),
        schedule=tuple((float(t), float(r)) for t, r in s["load"]),
    )


def render(base: str, schedule, t_end: float, header: str) -> str:
    """`base` with its [load] section and t_end_s replaced."""
    out = [f"# {header}"]
    section = None
    for raw in base.splitlines():
        line = raw.strip()
        if line.startswith("#") and section is None:
            continue  # the base file's own description no longer applies
        if line.startswith("["):
            section = line.strip("[]").strip()
            out.append(raw)
            if section == "load":
                out.extend(f"{t!r} = {r!r}" for t, r in schedule)
            continue
        if section == "load" and line and not line.startswith("#"):
            continue
        if section == "sim" and line.partition("=")[0].strip() == "t_end_s":
            out.append(f"t_end_s = {t_end!r}")
            continue
        out.append(raw)
    return "\n".join(out) + "\n"


def train_schedule(seed: int, t_end: float, dt: float) -> list[tuple[float, float]]:
    """Deterministic 200-event load train for `seed`.

    Event i sits at (i + u) * t_end / 201 with u uniform in [-0.3, 0.3], so
    events stay strictly ordered. Times are rounded to 1 ns and then moved
    half a step if they land within 5% of a step boundary, so every segment
    ends in a shortened remainder step.
    """
    rng = random.Random(seed)
    spacing = t_end / (TRAIN_EVENTS + 1)
    schedule = [(0.0, TRAIN_R_RANGE[0])]
    for i in range(1, TRAIN_EVENTS + 1):
        t = round((i + rng.uniform(-TRAIN_JITTER, TRAIN_JITTER)) * spacing, 9)
        frac = (t / dt) % 1.0
        if frac < 0.05 or frac > 0.95:
            t = round(t + 0.5 * dt, 9)
        schedule.append((t, round(rng.uniform(*TRAIN_R_RANGE), 6)))
    return schedule


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """The workload's scenario text and facts. Only load_train uses the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    base = (root / "src" / "parbuck" / "scenarios" / "load_step.scn").read_text(encoding="utf-8")
    facts = read_facts(base)
    if name == "load_train":
        t_end = SMOKE_T_END if smoke else facts.t_end
        text = render(base, train_schedule(seed, t_end, facts.dt), t_end,
                      f"load_train: {TRAIN_EVENTS} generated load events, seed {seed}")
    elif smoke:
        scale = SMOKE_T_END / facts.t_end
        text = render(base, [(t * scale, r) for t, r in facts.schedule], SMOKE_T_END,
                      f"{name}: bundled load_step.scn shortened to {SMOKE_T_END!r} s")
    else:
        text = base
    run_args = ("--record-every", "1") if name == "dense_trace" else ()
    return Workload(
        name=name,
        seed=seed,
        smoke=smoke,
        text=text,
        run_args=run_args,
        facts=read_facts(text, record_every=1 if name == "dense_trace" else None),
    )


def layout(f: Facts) -> tuple[int, list[tuple[float, float]]]:
    """Step count and (t, R) of every record `parbuck run` writes.

    Follows the documented policy: the initial sample, every
    record_every-th step, both sides of each load event and the final
    sample. Steps are cut short so that events land on step boundaries.
    """
    events = [t for t, _ in f.schedule if 0.0 < t < f.t_end]

    def load_at(t):
        return [r for tt, r in f.schedule if tt <= t][-1]

    rows = [(0.0, f.schedule[0][1])]
    if f.t_end == 0.0:
        return 0, rows
    steps = 0
    seg_start = 0.0
    for seg_end in events + [f.t_end]:
        R = load_at(seg_start)
        seg_len = seg_end - seg_start
        n_full = int(math.floor(seg_len / f.dt + 1e-9))
        n_sub = n_full + (seg_len - n_full * f.dt > f.dt * 1e-9)
        # A record lands on step `steps + j` when that is a multiple of
        # record_every, except on the segment's last step.
        first = -(-(steps + 1) // f.record_every) * f.record_every
        for k in range(first, steps + n_sub, f.record_every):
            rows.append((seg_start + (k - steps) * f.dt, R))
        steps += n_sub
        rows.append((seg_end, R))
        if seg_end in events:
            rows.append((seg_end, load_at(seg_end)))
        seg_start = seg_end
    return steps, rows
