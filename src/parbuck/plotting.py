"""Gnuplot script generation from trace CSVs.

The emitted script is plain text and is never executed here; feed it to
gnuplot to get a four-panel summary (output voltage, per-unit sharing error,
inductor currents, duty cycles) of one simulation run.
"""

from __future__ import annotations

from .errors import CsvFormatError

_REQUIRED_COLUMNS = ("t", "Vo", "e2", "iL1", "iL2", "d1", "d2")

_TEMPLATE = """\
# Four-panel summary of a parallel-buck simulation trace.
# Usage: gnuplot -persist {script_name}
set datafile separator ","
set key autotitle columnhead
set grid
set xlabel "t [s]"
set multiplot layout 2,2 title "{csv_path}"

set ylabel "Vo [V]"
plot "{csv_path}" using (column("t")):(column("Vo")) with lines title "output voltage"

set ylabel "iL1/Imax1 - iL2/Imax2"
plot "{csv_path}" using (column("t")):(column("e2")) with lines title "per-unit sharing error"

set ylabel "inductor current [A]"
plot "{csv_path}" using (column("t")):(column("iL1")) with lines title "iL1", \\
     "{csv_path}" using (column("t")):(column("iL2")) with lines title "iL2"

set ylabel "duty cycle"
set yrange [-0.05:1.05]
plot "{csv_path}" using (column("t")):(column("d1")) with lines title "d1", \\
     "{csv_path}" using (column("t")):(column("d2")) with lines title "d2"
set yrange [*:*]

unset multiplot
"""


def read_csv_header(csv_path: str) -> list[str]:
    """First line of the CSV as a list of column names."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if not header:
        raise CsvFormatError(f"{csv_path}: empty file, expected a CSV header")
    return header.split(",")


def emit_plot_script(csv_path: str, script_name: str = "trace.gp") -> str:
    """Gnuplot script text for the four-panel trace summary.

    Validates the CSV header first and names any missing column. Columns are
    referenced by name, so extra columns or reordering are harmless.
    """
    columns = read_csv_header(csv_path)
    for required in _REQUIRED_COLUMNS:
        if required not in columns:
            raise CsvFormatError(
                f"{csv_path}: header is missing column {required!r} "
                f"(found: {', '.join(columns)})"
            )
    return _TEMPLATE.format(csv_path=csv_path, script_name=script_name)
