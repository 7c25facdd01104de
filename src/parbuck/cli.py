"""Command-line entry point.

Subcommands:
  run <scenario> [-o csv] [--dt s] [--t-end s] [--record-every n]
      Simulate a scenario file, write the trace CSV and print run metrics.
  plot <csv> [-o script]
      Emit a gnuplot script with the four standard panels for a trace CSV.
  validate <scenario>
      Parse and validate a scenario file, printing a short summary.

Exit codes: 0 success, 3 scenario/CSV parse or validation error,
4 integration divergence, 5 continuous-conduction violation, 6 I/O error.
(argparse itself exits with 2 on bad command-line usage.)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .errors import (
    CcmViolationError,
    CsvFormatError,
    DivergenceError,
    ParbuckError,
    ScenarioFormatError,
)
from .metrics import RunMetrics, compute_metrics
from .plotting import emit_plot_script
from .scenario_io import load_scenario
from .sim import simulate, step_count
from .trace_csv import CSV_HEADER, trace_csv_rows

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_DIVERGENCE = 4
EXIT_CCM = 5
EXIT_IO = 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_metrics(metrics: RunMetrics) -> None:
    for f in fields(metrics):
        value = getattr(metrics, f.name)
        print(f"{f.name:<26}: {'n/a' if value is None else repr(value)}")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read scenario {args.scenario!r}: {exc}")
    except ScenarioFormatError as exc:
        return _fail(EXIT_PARSE, f"{args.scenario}: {exc}")

    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if args.record_every is not None:
        overrides["record_every"] = args.record_every
    if overrides:
        scenario = replace(scenario, **overrides)

    started = time.perf_counter()
    try:
        records = simulate(scenario)
    except ParbuckError as exc:
        return _fail(EXIT_PARSE, f"{args.scenario}: {exc}")

    # The CSV is written to a side file and renamed onto the output path only
    # once the run and its metrics succeed, so a failed run leaves no file
    # and never overwrites an existing one.
    out_path = args.output or str(Path(args.scenario).with_suffix(".csv").name)
    part_path = Path(out_path + ".part")
    count = 0

    def written(fh):
        """The records, each passed on once its CSV row is written to fh."""
        nonlocal count
        fh.write(CSV_HEADER)
        for count, (record, row) in enumerate(trace_csv_rows(records), start=1):
            fh.write(row)
            yield record

    try:
        try:
            with open(part_path, "w", encoding="utf-8", newline="\n") as fh:
                metrics = compute_metrics(written(fh), scenario.Vref)
            os.replace(part_path, out_path)
        except BaseException:
            part_path.unlink(missing_ok=True)
            raise
    except DivergenceError as exc:
        return _fail(EXIT_DIVERGENCE, str(exc))
    except CcmViolationError as exc:
        return _fail(EXIT_CCM, str(exc))
    except ParbuckError as exc:
        return _fail(EXIT_PARSE, f"{args.scenario}: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {out_path!r}: {exc}")
    elapsed = time.perf_counter() - started

    print(f"simulated {scenario.t_end!r} s in {elapsed:.2f} s wall time; "
          f"{count} records -> {out_path}")
    _print_metrics(metrics)
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    out_path = args.output or str(Path(args.csv).with_suffix(".gp").name)
    try:
        script = emit_plot_script(args.csv, script_name=out_path)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read CSV {args.csv!r}: {exc}")
    except CsvFormatError as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(script)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {out_path!r}: {exc}")
    print(f"plot script -> {out_path}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read scenario {args.scenario!r}: {exc}")
    except ScenarioFormatError as exc:
        return _fail(EXIT_PARSE, f"{args.scenario}: {exc}")
    steps = step_count(scenario)
    print(f"OK: {args.scenario}")
    print(f"  Vref={scenario.Vref!r} V, dt={scenario.dt!r} s, t_end={scenario.t_end!r} s "
          f"({steps} steps), init={scenario.init_label}")
    print(f"  load schedule: " + ", ".join(
        f"{e.R!r} ohm from t={e.time!r} s" for e in scenario.load_schedule))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parbuck",
        description="Closed-loop simulator for two parallel buck converters "
                    "with backstepping voltage and current-sharing control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export the trace CSV")
    p_run.add_argument("scenario", help="path to a .scn scenario file")
    p_run.add_argument("-o", "--output", help="trace CSV path (default: <scenario>.csv)")
    p_run.add_argument("--dt", type=float, help="override integration step [s]")
    p_run.add_argument("--t-end", type=float, dest="t_end", help="override end time [s]")
    p_run.add_argument("--record-every", type=int, dest="record_every",
                       help="override recording cadence [steps]")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="emit a gnuplot script for a trace CSV")
    p_plot.add_argument("csv", help="path to a trace CSV written by 'run'")
    p_plot.add_argument("-o", "--output", help="script path (default: <csv>.gp)")
    p_plot.set_defaults(func=_cmd_plot)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario", help="path to a .scn scenario file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
