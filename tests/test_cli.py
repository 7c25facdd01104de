"""Command-line interface: end-to-end runs, outputs, and every exit code."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import parbuck
from parbuck import bundled_scenario_text, compute_metrics, load_scenario, run, simulate
from parbuck.cli import (
    EXIT_CCM,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from parbuck.errors import CcmViolationError, DivergenceError, ParbuckError
from parbuck.sim import STRETCH_RECORDS, Stretch, stream
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
    for name, value in expected._asdict().items():
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


def test_run_unwritable_output_exits_io(constant_scn, tmp_path, capsys, monkeypatch):
    code = main(["run", str(constant_scn), "-o", str(tmp_path / "no" / "dir" / "x.csv"),
                 "--t-end", "0.0"])
    assert code == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert main(["run", str(constant_scn), "-o", str(directory), "--t-end", "0.0"]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.part")) and not any(directory.iterdir())

    # A directory at the output path is refused before anything is simulated.
    def no_simulation(scenario):
        raise AssertionError("stream was called")

    monkeypatch.setattr(parbuck.sim, "stream", no_simulation)
    assert main(["run", str(constant_scn), "-o", str(directory), "--t-end", "0.01"]) == EXIT_IO
    assert "is a directory" in capsys.readouterr().err
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


@pytest.mark.parametrize("existing", [None, b"an earlier trace\n"], ids=["fresh", "existing"])
def test_run_failing_with_another_library_error_exits_parse(constant_scn, tmp_path, capsys,
                                                            monkeypatch, existing):
    """A ParbuckError that is neither a divergence nor a CCM violation,
    raised by the trace after its first blocks are written, exits 3 naming
    the scenario, removes the partial file and leaves a file already at the
    output path as it was."""
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_bytes(existing)

    def failing(scenario):
        # A Stretch is a block of its own, written before the next item is read.
        for item in stream(scenario):
            yield item
            if type(item) is Stretch:
                raise ParbuckError("injected failure")

    monkeypatch.setattr(parbuck.sim, "stream", failing)
    assert main(["run", str(constant_scn), "-o", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {constant_scn}: injected failure\n"
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


def test_run_with_a_negative_dt_override_exits_parse(constant_scn, tmp_path, capsys):
    """An override is checked as the scenario file's value is: building the
    overridden scenario raises, and no CSV is written."""
    out = tmp_path / "neg.csv"
    assert main(["run", str(constant_scn), "-o", str(out), "--dt", "-1"]) == EXIT_PARSE
    assert "dt must be positive, got -1.0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.fixture
def load_step_scn(tmp_path):
    path = tmp_path / "load_step.scn"
    path.write_text(bundled_scenario_text("load_step"), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, t_end", [("load_step", 0.06), ("constant_load", None)])
def test_a_dense_run_prints_the_metrics_of_its_simulated_trace(name, t_end, tmp_path, capsys):
    """`run --record-every 1`, whose records pass to the metrics in blocks,
    prints exactly the fields that compute_metrics gives for simulate()'s
    records, and counts every one of them."""
    scn = tmp_path / f"{name}.scn"
    scn.write_text(bundled_scenario_text(name), encoding="utf-8")
    argv = ["run", str(scn), "-o", str(tmp_path / "dense.csv"), "--record-every", "1"]
    if t_end is not None:
        argv += ["--t-end", repr(t_end)]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    scenario = replace(load_scenario(str(scn)), record_every=1,
                       **({} if t_end is None else {"t_end": t_end}))
    expected = compute_metrics(simulate(scenario), scenario.Vref)
    assert lines[1:] == [f"{field:<26}: {'n/a' if value is None else repr(value)}"
                         for field, value in expected._asdict().items()]
    count = len(run(scenario))
    assert f" {count} records -> " in lines[0]
    assert len((tmp_path / "dense.csv").read_text().splitlines()) == 1 + count


# What `parbuck run` prints for the bundled runs. The steady-state means are
# correctly rounded sums, so Python 3.10, 3.11 and 3.12 print these digits.
PRINTED_METRICS = {
    ("constant_load", ()): """\
settle_time_v             : 0.0
settle_time_share         : 0.0
ss_voltage_error          : 0.0
ss_sharing_error          : 2.7755575615628914e-17
recovery_time             : n/a
lyap_violation_fraction   : 0.0
max_duty_saturation_time  : 0.0
""",
    ("load_step", ()): """\
settle_time_v             : 0.0
settle_time_share         : n/a
ss_voltage_error          : 0.0
ss_sharing_error          : 0.028329126682891916
recovery_time             : 0.0
lyap_violation_fraction   : 0.2586293146573287
max_duty_saturation_time  : 0.0
""",
    ("load_step", ("--record-every", "1")): """\
settle_time_v             : 0.050047
settle_time_share         : n/a
ss_voltage_error          : 0.0
ss_sharing_error          : 0.028407066167293233
recovery_time             : 4.699999999999843e-05
lyap_violation_fraction   : 0.2579428594293946
max_duty_saturation_time  : 3.500000000000031e-05
""",
}


@pytest.mark.parametrize("name, extra", list(PRINTED_METRICS),
                         ids=["constant_load", "load_step", "load_step-dense"])
def test_bundled_runs_print_pinned_metrics(name, extra, tmp_path, capsys):
    scn = tmp_path / f"{name}.scn"
    scn.write_text(bundled_scenario_text(name), encoding="utf-8")
    assert main(["run", str(scn), "-o", str(tmp_path / "out.csv"), *extra]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines(keepends=True)[1:]
    assert "".join(printed) == PRINTED_METRICS[name, extra]


def test_a_run_holds_at_most_one_block_ahead_of_the_metrics(load_step_scn, tmp_path,
                                                            monkeypatch, capsys):
    """The items of the stream that the CSV writer has pulled lead the items
    that compute_metrics has seen by at most one block, STRETCH_RECORDS
    items, on a dense run through records and Stretches: the run holds no
    more than that between the kernel and the metrics."""
    real_stream, real_metrics = parbuck.sim.stream, parbuck.metrics.compute_metrics
    pulled = seen = lead = stretches = 0

    def counted_stream(scenario):
        nonlocal pulled, stretches
        for item in real_stream(scenario):
            pulled += 1
            stretches += type(item) is Stretch
            yield item

    def counted_metrics(trace, Vref):
        def seen_items():
            nonlocal seen, lead
            for item in trace:
                lead = max(lead, pulled - seen)
                seen += 1
                yield item

        return real_metrics(seen_items(), Vref)

    monkeypatch.setattr(parbuck.sim, "stream", counted_stream)
    monkeypatch.setattr(parbuck.metrics, "compute_metrics", counted_metrics)
    assert main(["run", str(load_step_scn), "-o", str(tmp_path / "dense.csv"),
                 "--record-every", "1", "--t-end", "0.06"]) == EXIT_OK
    capsys.readouterr()
    print(f"\n  {pulled} items, {stretches} Stretches, largest lead {lead}")
    assert stretches and pulled - stretches > 2 * STRETCH_RECORDS
    assert seen == pulled
    assert 1 <= lead <= STRETCH_RECORDS


@pytest.mark.parametrize("failure", ["cold start", "divergence", "late ccm"])
def test_a_dense_run_failing_inside_a_block_leaves_no_csv(failure, constant_scn, cold_start_scn,
                                                         load_step_scn, tmp_path, capsys):
    """A run at --record-every 1 that fails partway through a block of
    records exits with its failure's code and leaves neither the CSV nor
    its partial file."""
    scn, overrides, error, code = {
        "cold start": (cold_start_scn, {}, CcmViolationError, EXIT_CCM),
        "divergence": (constant_scn, {"dt": 1e100, "t_end": 1e100},
                       DivergenceError, EXIT_DIVERGENCE),
        "late ccm": (load_step_scn, {"dt": 3e-4}, CcmViolationError, EXIT_CCM),
    }[failure]
    out = tmp_path / "dense.csv"
    argv = ["run", str(scn), "-o", str(out), "--record-every", "1"]
    for name, value in overrides.items():
        argv += [f"--{name.replace('_', '-')}", repr(value)]
    # The records since the last Stretch are not a whole number of blocks,
    # so the failure comes while a block is being filled.
    scenario = replace(load_scenario(str(scn)), record_every=1, **overrides)
    records_since_stretch = 0
    with pytest.raises(error):
        for item in stream(scenario):
            records_since_stretch = 0 if type(item) is Stretch else records_since_stretch + 1
    assert records_since_stretch % STRETCH_RECORDS
    assert main(argv) == code
    capsys.readouterr()
    assert not out.exists() and not (tmp_path / "dense.csv.part").exists()


def test_validate_accepts_bundled(constant_scn, capsys):
    assert main(["validate", str(constant_scn)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("OK:")
    assert "init=equilibrium" in out
    assert "load schedule" in out


def test_validate_missing_scenario_exits_io(tmp_path, capsys):
    missing = tmp_path / "missing.scn"
    assert main(["validate", str(missing)]) == EXIT_IO
    assert f"cannot read scenario {str(missing)!r}" in capsys.readouterr().err


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


def test_run_with_a_401_digit_record_cadence_exits_ok(tmp_path):
    """A record cadence that no float holds runs the bundled load step to
    its four records: start, both sides of the event and end."""
    scn = tmp_path / "load_step.scn"
    scn.write_text(bundled_scenario_text("load_step"), encoding="utf-8")
    out = tmp_path / "sparse.csv"
    assert main(["run", str(scn), "-o", str(out), "--record-every", "1" + "0" * 400]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("command", ["run", "validate", "plot"])
def test_non_utf8_input_exits_parse(tmp_path, capsys, command):
    """A file saved as UTF-16, as some editors do, is named as not UTF-8."""
    text = bundled_scenario_text("constant_load") if command != "plot" else "t,Vo\n"
    path = tmp_path / "utf16.in"
    path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    argv = [command, str(path)]
    if command != "validate":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_PARSE
    assert "not UTF-8" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_validate_accepts_a_byte_order_mark(tmp_path, capsys):
    """A scenario saved with a UTF-8 byte-order mark, as some editors do,
    validates as the same file without it."""
    text = bundled_scenario_text("load_step")
    plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["validate", str(plain)]) == EXIT_OK
    expected = capsys.readouterr().out.replace("plain.scn", "marked.scn")
    assert main(["validate", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_plot_accepts_a_byte_order_mark(constant_scn, tmp_path):
    """A trace CSV that an editor saved with a UTF-8 byte-order mark still
    names its first column t."""
    csv_path = tmp_path / "t.csv"
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
    script_path = tmp_path / "t.gp"
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_OK
    assert 'column("t")' in script_path.read_text()


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


def test_plot_quotes_any_csv_path(constant_scn, tmp_path):
    """A path holding a double quote, a single quote and backslashes reaches
    gnuplot intact: every use is one single-quoted literal with ' doubled,
    inside which gnuplot reads backslashes and double quotes as themselves."""
    csv_path = tmp_path / 'run "a" it\'s C:\\new\\t.csv'
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    script_path = tmp_path / "t.gp"
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_OK
    script = script_path.read_text()
    literals = re.findall(r"'(?:[^']|'')*'", script)
    assert len(literals) == 7  # the title and six plotted sources
    for literal in literals:
        assert literal[1:-1].replace("''", "'") == str(csv_path)


def test_plot_script_path_cannot_inject_commands(constant_scn, tmp_path):
    """The script's path never enters the script, so a line break in it
    cannot end a comment and start a gnuplot command."""
    csv_path = tmp_path / "t.csv"
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    script_path = tmp_path / 'a.gp\nsystem "echo pwned"'
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_OK
    lines = script_path.read_text().splitlines()
    assert not [line for line in lines if line.startswith("system")]
    assert "# Usage: gnuplot -persist <this script>" in lines


def test_plot_rejects_a_csv_path_with_a_line_break(constant_scn, tmp_path, capsys):
    """A CSV path is quoted into the script, where a line break would end
    the command: it is a format error, and no script is written."""
    csv_path = tmp_path / 'b\nsystem "echo pwned"\n.csv'
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    script_path = tmp_path / "b.gp"
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_PARSE
    assert "line break" in capsys.readouterr().err
    assert not script_path.exists()


def test_plot_missing_csv_exits_io(tmp_path):
    assert main(["plot", str(tmp_path / "none.csv")]) == EXIT_IO


@pytest.mark.parametrize("directory", [".", "/"])
def test_plot_of_a_directory_exits_io(directory, tmp_path, monkeypatch, capsys):
    """A directory is no CSV, and . and / give no name for the default
    script either: the read fails first, with the I/O exit code."""
    monkeypatch.chdir(tmp_path)
    assert main(["plot", directory]) == EXIT_IO
    assert f"cannot read CSV {directory!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_plot_empty_csv_exits_parse(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", str(empty), "-o", str(tmp_path / "e.gp")]) == EXIT_PARSE
    assert "empty file" in capsys.readouterr().err
    assert not (tmp_path / "e.gp").exists()


def test_plot_to_a_missing_directory_exits_io(constant_scn, tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    assert main(["run", str(constant_scn), "-o", str(csv_path), "--t-end", "0.001"]) == EXIT_OK
    script_path = tmp_path / "missing" / "x.gp"
    assert main(["plot", str(csv_path), "-o", str(script_path)]) == EXIT_IO
    assert f"cannot write {str(script_path)!r}" in capsys.readouterr().err


def test_plot_missing_column_named(tmp_path, capsys):
    mangled = tmp_path / "m.csv"
    mangled.write_text("t,iL1,iL2,Vo,d1,d2\n0,0,0,0,0,0\n")
    assert main(["plot", str(mangled)]) == EXIT_PARSE
    assert "'e2'" in capsys.readouterr().err


def test_module_entry_point_help():
    # The child imports the package under test, installed or not.
    src = str(Path(parbuck.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "parbuck.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "plot" in result.stdout and "validate" in result.stdout
