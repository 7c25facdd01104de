"""Command-line interface: end-to-end runs, outputs, and every exit code."""

import subprocess
import sys
from dataclasses import replace

import pytest

from parbuck import bundled_scenario_text, compute_metrics, load_scenario, run
from parbuck.cli import (
    EXIT_CCM,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from parbuck.trace_csv import CSV_COLUMNS


@pytest.fixture
def constant_scn(tmp_path):
    path = tmp_path / "constant_load.scn"
    path.write_text(bundled_scenario_text("constant_load"), encoding="utf-8")
    return path


@pytest.fixture
def cold_start_scn(tmp_path):
    text = bundled_scenario_text("constant_load").replace("init = equilibrium", "init = zero")
    path = tmp_path / "cold.scn"
    path.write_text(text, encoding="utf-8")
    return path


def test_run_writes_csv_and_prints_metrics(constant_scn, tmp_path, capsys):
    """The streamed run replaces an existing file and prints the metrics of
    the whole trace, as compute_metrics gives them for run()'s list."""
    out = tmp_path / "trace.csv"
    out.write_text("stale\n")
    code = main(["run", str(constant_scn), "-o", str(out),
                 "--t-end", "0.005", "--record-every", "10"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 5000 steps at cadence 10: initial record + 499 interior + final boundary
    assert len(lines) == 1 + 501
    assert not (tmp_path / "trace.csv.part").exists()
    captured = capsys.readouterr().out
    assert "501 records" in captured.splitlines()[0]
    scenario = replace(load_scenario(str(constant_scn)), t_end=0.005, record_every=10)
    expected = compute_metrics(run(scenario), scenario.Vref)
    for name, value in vars(expected).items():
        assert f"{name:<26}: {'n/a' if value is None else repr(value)}" in captured
    print(captured.splitlines()[0])


def test_run_csv_is_bit_identical_across_runs(constant_scn, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(constant_scn), "-o", str(a), "--t-end", "0.002"]) == EXIT_OK
    assert main(["run", str(constant_scn), "-o", str(b), "--t-end", "0.002"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_missing_scenario_exits_io(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    code = main(["run", str(missing)])
    assert code == EXIT_IO
    assert str(missing) in capsys.readouterr().err


def test_run_unwritable_output_exits_io(constant_scn, tmp_path, capsys):
    code = main(["run", str(constant_scn), "-o", str(tmp_path / "no" / "dir" / "x.csv"),
                 "--t-end", "0.0"])
    assert code == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert main(["run", str(constant_scn), "-o", str(directory), "--t-end", "0.0"]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.part")) and not any(directory.iterdir())


@pytest.mark.parametrize("existing", [None, b"an earlier trace\n"], ids=["fresh", "existing"])
@pytest.mark.parametrize("failure", ["divergence", "ccm"])
def test_failed_run_leaves_no_partial_csv(constant_scn, cold_start_scn, tmp_path, capsys,
                                          failure, existing):
    """A run that fails after writing rows removes its partial file and
    leaves a file already at the output path as it was."""
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_bytes(existing)
    if failure == "divergence":
        argv, expected = ["run", str(constant_scn), "--dt", "1e100", "--t-end", "1e100"], EXIT_DIVERGENCE
    else:
        argv, expected = ["run", str(cold_start_scn)], EXIT_CCM
    assert main(argv + ["-o", str(out)]) == expected
    capsys.readouterr()
    assert not (tmp_path / "out.csv.part").exists()
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_run_bad_scenario_exits_parse(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(bundled_scenario_text("constant_load").replace("Vref_V = 8", "Vref_V = 99"))
    code = main(["run", str(bad)])
    assert code == EXIT_PARSE
    assert "input voltage" in capsys.readouterr().err


def test_run_divergence_exits_with_its_code(constant_scn, capsys, tmp_path):
    """A one-step stride of 1e100 s overflows inside the integrator stages."""
    code = main(["run", str(constant_scn), "-o", str(tmp_path / "d.csv"),
                 "--dt", "1e100", "--t-end", "1e100"])
    err = capsys.readouterr().err
    print(f"\n  stderr: {err.strip()}")
    assert code == EXIT_DIVERGENCE
    assert "diverged" in err


def test_run_cold_start_exits_ccm(cold_start_scn, capsys, tmp_path):
    code = main(["run", str(cold_start_scn), "-o", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    print(f"\n  stderr: {err.strip()}")
    assert code == EXIT_CCM
    assert "conduction" in err


def test_validate_accepts_bundled(constant_scn, capsys):
    assert main(["validate", str(constant_scn)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("OK:")
    assert "load schedule" in out


def test_validate_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "typo.scn"
    bad.write_text(bundled_scenario_text("constant_load").replace("k1 = 1", "gain1 = 1"))
    assert main(["validate", str(bad)]) == EXIT_PARSE
    assert "gain1" in capsys.readouterr().err


def test_validate_rejects_degenerate_pair(constant_scn, tmp_path, capsys):
    """Equal Imax*L products (X = 0) are rejected by validate, as by run."""
    text = constant_scn.read_text(encoding="utf-8")
    assert text.count("Imax_A = 2") == 1
    bad = tmp_path / "twins.scn"
    bad.write_text(text.replace("Imax_A = 2", "Imax_A = 5"), encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_PARSE
    assert "guard" in capsys.readouterr().err
    assert main(["run", str(bad), "-o", str(tmp_path / "t.csv")]) == EXIT_PARSE
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "t.csv.part").exists()


@pytest.mark.parametrize("cadence", ["nan", "1e400"])
def test_non_finite_record_cadence_exits_parse(tmp_path, capsys, cadence):
    """A nan or overflowing record_every is a format error, not a traceback."""
    text = bundled_scenario_text("constant_load")
    assert text.count("record_every = 50") == 1
    bad = tmp_path / "cadence.scn"
    bad.write_text(text.replace("record_every = 50", f"record_every = {cadence}"))
    for command in (["validate", str(bad)], ["run", str(bad), "-o", str(tmp_path / "c.csv")]):
        assert main(command) == EXIT_PARSE
        assert "record_every" in capsys.readouterr().err


def test_validate_counts_the_steps_run_takes(tmp_path, capsys):
    """An event off the dt grid adds a shortened step: 5.5 + 4.5 steps of
    1 us are 6 + 5 steps, not round(t_end/dt) = 10. With a record every step,
    run() records each step, the initial sample and the event's second side."""
    text = bundled_scenario_text("load_step")
    assert text.count("0.05 = 15") == 1 and text.count("t_end_s = 0.1") == 1
    path = tmp_path / "off_grid.scn"
    path.write_text(text.replace("0.05 = 15", "5.5e-06 = 15").replace(
        "t_end_s = 0.1", "t_end_s = 1e-05"))
    assert main(["validate", str(path)]) == EXIT_OK
    assert "(11 steps)" in capsys.readouterr().out
    scenario = replace(load_scenario(str(path)), record_every=1)
    assert len(run(scenario)) == 1 + 11 + 1


def test_plot_emits_column_referencing_script(constant_scn, tmp_path):
    csv_path = tmp_path / "t.csv"
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    script_path = tmp_path / "t.gp"
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_OK
    script = script_path.read_text()
    for column in ("t", "Vo", "e2", "iL1", "iL2", "d1", "d2"):
        assert f'column("{column}")' in script
    assert "multiplot" in script


def test_plot_missing_csv_exits_io(tmp_path):
    assert main(["plot", str(tmp_path / "none.csv")]) == EXIT_IO


def test_plot_missing_column_named(tmp_path, capsys):
    mangled = tmp_path / "m.csv"
    mangled.write_text("t,iL1,iL2,Vo,d1,d2\n0,0,0,0,0,0\n")
    assert main(["plot", str(mangled)]) == EXIT_PARSE
    assert "'e2'" in capsys.readouterr().err


def test_module_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "parbuck.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "plot" in result.stdout and "validate" in result.stdout
