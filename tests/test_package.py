"""The package itself: its exports, its version, the Python versions its
source parses on and what a command loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

import parbuck

# Every exported name, by the submodule that defines it.
EXPORTS = {
    "control": (
        "ControlSignals", "controller_step", "current_rate_target", "duty_command",
        "duty_rate_command", "lyapunov_sharing", "lyapunov_voltage", "sharing_error",
        "virtual_current_target", "voltage_error", "voltage_target",
    ),
    "errors": (
        "CcmViolationError", "CsvFormatError", "DegenerateConfigError", "DivergenceError",
        "InfeasibleOperatingPointError", "NumericDomainError", "ParameterError",
        "ParbuckError", "ScenarioFormatError",
    ),
    "metrics": ("RunMetrics", "compute_metrics"),
    "model": ("ConverterParams", "PlantDerivative", "PlantState", "equilibrium",
              "plant_derivatives"),
    "plotting": ("emit_plot_script",),
    "scenario": ("CCM_TOL", "ControlGains", "MAX_STEPS", "LoadStep", "Scenario",
                 "coupling_constant", "step_count"),
    "scenario_io": ("BUNDLED_SCENARIOS", "bundled_scenario_text", "format_scenario",
                    "load_scenario", "parse_scenario"),
    "sim": ("TraceRecord", "run", "simulate"),
    "trace_csv": ("CSV_COLUMNS", "format_trace_csv"),
}
EXPORTED = {name for names in EXPORTS.values() for name in names}

# What only `parbuck run` loads: the kernel, its jump certificates, the
# metrics and the CSV writer. The readable control law in parbuck.control
# is a reference that no command loads.
RUN_PIPELINE = ("parbuck.sim", "parbuck.modal", "parbuck.metrics", "parbuck.trace_csv")


PACKAGE_SOURCES = sorted(Path(parbuck.__file__).parent.glob("*.py"))

# The start-up import checks run each command as is and under -S, so that a
# module that site preloads (a .pth hook may import importlib.resources, say)
# cannot hide an import of the package's own.
START_UP_FLAGS = ((), ("-S",))


def _fresh_interpreter(code, *args, flags=()):
    """Run code in a new interpreter, started with the interpreter flags
    given, that imports the package under test, installed or not, and
    return its stdout."""
    src = str(Path(parbuck.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_by_command(*argv, flags=()):
    """Run `python -m parbuck.cli <argv>` in a new interpreter, started with
    the interpreter flags given, check that it exits 0 and return the names
    of the modules it loaded."""
    return _fresh_interpreter("""
        import runpy, sys
        try:
            runpy.run_module("parbuck.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        print(*sorted(sys.modules))
    """, *argv, flags=flags).splitlines()[-1].split()


def test_all_lists_every_export():
    assert sorted(parbuck.__all__) == sorted(EXPORTED)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names
])
def test_each_export_is_its_submodules_object(module, name):
    assert getattr(parbuck, name) is getattr(importlib.import_module(f"parbuck.{module}"), name)
    assert name in dir(parbuck)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from parbuck import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        parbuck.no_such_name
    from parbuck import modal  # a submodule, not an export

    assert modal is sys.modules["parbuck.modal"]


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert parbuck.__version__ == tomllib.load(fh)["project"]["version"]


def test_readme_examples_run():
    """The README's example scenario file parses, to the bundled load step it
    writes out, and its first library example runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    ini, python = (re.search(rf"^```{lang}\n(.*?)^```$", readme, re.S | re.M).group(1)
                   for lang in ("ini", "python"))
    bundled = parbuck.parse_scenario(parbuck.bundled_scenario_text("load_step"))
    assert parbuck.parse_scenario(ini) == bundled
    exec(compile(python, "README.md", "exec"), {})


@pytest.mark.parametrize("source", PACKAGE_SOURCES, ids=lambda path: path.name)
def test_each_module_parses_as_the_oldest_supported_python(source):
    """Every module of the package parses with Python 3.10's grammar, the
    oldest that pyproject.toml's requires-python admits."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'requires-python = ">=3.10"\n' in pyproject.read_text(encoding="utf-8")
    ast.parse(source.read_bytes(), filename=str(source), feature_version=(3, 10))


def test_loading_a_scenario_loads_no_kernel(tmp_path):
    """`import parbuck` and load_scenario, a benchmark's set-up, leave the
    kernel, the readable control law, the metrics, the CSV and plotting code
    and the decimal module unloaded; under -S, importlib.resources too,
    which only bundled_scenario_text needs."""
    scn = tmp_path / "load_step.scn"
    scn.write_text(parbuck.bundled_scenario_text("load_step"), encoding="utf-8")
    for flags in START_UP_FLAGS:
        loaded = _fresh_interpreter("""
            import sys
            import parbuck
            from parbuck.scenario_io import load_scenario
            load_scenario(sys.argv[1])
            print(*sorted(sys.modules))
        """, str(scn), flags=flags).split()
        assert "parbuck.scenario_io" in loaded
        unneeded = (*RUN_PIPELINE, "parbuck.control", "parbuck.plotting", "decimal")
        assert [name for name in unneeded if name in loaded] == []
    assert "importlib.resources" not in loaded


def test_a_run_loads_neither_decimal_nor_plotting(tmp_path):
    """`python -m parbuck.cli run` on the bundled load step reads its
    engineering units without the decimal module, and loads neither the
    plotting code nor the readable control law."""
    scn = tmp_path / "load_step.scn"
    scn.write_text(parbuck.bundled_scenario_text("load_step"), encoding="utf-8")
    for flags in START_UP_FLAGS:
        csv = tmp_path / f"trace{len(flags)}.csv"
        loaded = _loaded_by_command("run", str(scn), "-o", str(csv), flags=flags)
        assert csv.is_file()
        assert "parbuck.sim" in loaded and "parbuck.metrics" in loaded
        unneeded = ("decimal", "parbuck.plotting", "parbuck.control")
        assert [name for name in unneeded if name in loaded] == []


@pytest.mark.parametrize("command, loads", [
    ("validate", "parbuck.scenario_io"), ("plot", "parbuck.plotting"),
])
def test_validate_and_plot_load_no_run_pipeline(command, loads, tmp_path):
    """`python -m parbuck.cli validate` on the bundled load step, and `plot`
    on a trace CSV, load none of the run's pipeline, nor the readable control
    law or the decimal module; validate loads no plotting either."""
    scn, csv = tmp_path / "load_step.scn", tmp_path / "trace.csv"
    scn.write_text(parbuck.bundled_scenario_text("load_step"), encoding="utf-8")
    csv.write_text(",".join(parbuck.CSV_COLUMNS) + "\n", encoding="utf-8")
    args = [scn] if command == "validate" else [csv, "-o", tmp_path / "trace.gp"]
    for flags in START_UP_FLAGS:
        loaded = _loaded_by_command(command, *map(str, args), flags=flags)
        assert loads in loaded
        unneeded = (*RUN_PIPELINE, "parbuck.control", "decimal")
        assert [name for name in unneeded if name in loaded] == []
        assert command == "plot" or "parbuck.plotting" not in loaded


@pytest.mark.parametrize("module", ["sim.py", "modal.py"])
def test_sim_stays_below_the_parsers_token_step(module):
    """src/parbuck/sim.py, and modal.py, which a jumping run parses at its
    first segment, each stay below 4,096 parser tokens, counted as the
    tokenize tokens other than comments and blank-line newlines. A run with
    no bytecode cache (PYTHONDONTWRITEBYTECODE=1) parses both, and its peak
    RSS steps up by about 0.1 MiB past that count, where CPython's parser
    grows its token array."""
    source = Path(parbuck.__file__).with_name(module)
    with tokenize.open(source) as fh:
        count = sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL)
            for tok in tokenize.generate_tokens(fh.readline)
        )
    print(f"\n  {module}: {count} parser tokens")
    assert count < 4096
