"""Plain-text scenario files: parsing, validation and canonical output.

Format: INI-like sections [converter1], [converter2], [control], [load],
[sim]. Converter inductance and capacitance are given in engineering units
(L_mH, C_uF); everything else is SI. The [load] section holds one
``time_s = R_ohm`` entry per line, first entry at t=0. Unknown sections or
keys are rejected so typos fail loudly. ``format_scenario`` emits a
canonical document that parses back to an identical Scenario.
"""

from __future__ import annotations

from importlib import resources

from .errors import DegenerateConfigError, ParameterError, ParbuckError, ScenarioFormatError
from .model import ConverterParams, PlantState, equilibrium
from .scenario import ControlGains, LoadStep, Scenario

BUNDLED_SCENARIOS = ("constant_load", "load_step")

_CONVERTER_KEYS = ("L_mH", "C_uF", "Vin_V", "Imax_A")
_CONTROL_KEYS = ("k1", "k2", "duty_min", "duty_max", "x_guard")
_SIM_KEYS = ("Vref_V", "dt_s", "t_end_s", "record_every", "init")
_SECTIONS = ("converter1", "converter2", "control", "load", "sim")
_INIT_LABELS = ("zero", "equilibrium")
_ZERO = PlantState(0.0, 0.0, 0.0, 0.0)

# The exponents an engineering-unit numeral may write, those of the decimal
# module's widest context, so that every file reads as a decimal-based reader
# reads it: the exponent of its first significant digit at most
# decimal.MAX_EMAX, that of its last written digit at least decimal.MIN_ETINY.
# Past them a value is out of range, although float() would round it to 0 or
# inf.
_MAX_EXPONENT = 10**18 - 1
_MIN_EXPONENT = -(2 * 10**18 - 3)


def _split_sections(text: str) -> dict[str, list[tuple[str, str, int]]]:
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioFormatError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ScenarioFormatError(f"duplicate section [{name}]", line=lineno)
            sections[name] = []
            current = name
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ScenarioFormatError(f"entry outside any section: {line!r}", line=lineno)
        key, _, value = line.partition("=")
        sections[current].append((key.strip(), value.strip(), lineno))
    return sections


def _as_table(
    entries: list[tuple[str, str, int]],
    section: str,
    allowed: tuple[str, ...],
) -> dict[str, tuple[str, int]]:
    table: dict[str, tuple[str, int]] = {}
    for key, value, lineno in entries:
        if key not in allowed:
            raise ScenarioFormatError(
                f"unknown key in [{section}]", key=key, line=lineno
            )
        if key in table:
            raise ScenarioFormatError(
                f"duplicate key in [{section}]", key=key, line=lineno
            )
        table[key] = (value, lineno)
    return table


def _number(table: dict[str, tuple[str, int]], key: str, default: float | None = None) -> float:
    if key not in table:
        if default is not None:
            return default
        raise ScenarioFormatError("missing required key", key=key)
    value, lineno = table[key]
    try:
        return float(value)
    except ValueError:
        raise ScenarioFormatError(
            f"expected a number, got {value!r}", key=key, line=lineno
        ) from None


def _cadence(table: dict[str, tuple[str, int]], key: str, default: int) -> int | float:
    """An integer entry. An integer literal is read with int(), so that one
    above 2**53 keeps every digit; any other number is read as a float and
    made an int when it is integral (Scenario rejects the rest)."""
    if key not in table:
        return default
    try:
        return int(table[key][0])
    except ValueError:
        pass
    value = _number(table, key)
    return int(value) if value.is_integer() else value


def _si_number(table: dict[str, tuple[str, int]], key: str, shift: int) -> float:
    """The value of an engineering-unit entry in SI units, 10**-shift times
    the written number, rounded once: the decimal point is moved in the text
    and float(), which rounds correctly, reads the result."""
    value = _number(table, key)
    text, lineno = table[key]
    # float() took the text, so every non-ASCII character in it is a digit.
    numeral = text if text.isascii() else "".join(
        c if c.isascii() else str(int(c)) for c in text)
    numeral = numeral.lower().replace("_", "")
    if numeral.lstrip("+-") in ("nan", "inf", "infinity"):
        return value  # which ConverterParams rejects
    mantissa, _, exponent = numeral.partition("e")
    whole, _, fraction = mantissa.lstrip("+-").partition(".")
    magnitude = exponent.lstrip("+-").lstrip("0") or "0"
    # An exponent of more than 20 digits is past both bounds whatever the
    # digits before it; a shorter one is checked exactly.
    if len(magnitude) <= 20:
        power = -int(magnitude) if exponent.startswith("-") else int(magnitude)
        last = power - len(fraction)  # the exponent of the last written digit
        first = last + max(len((whole + fraction).lstrip("0")), 1) - 1
        if first <= _MAX_EXPONENT and last >= _MIN_EXPONENT:
            return float(f"{mantissa}e{power - shift}")
    raise ScenarioFormatError(f"{text!r} is out of range", key=key, line=lineno)


def _converter(sections, name: str) -> ConverterParams:
    table = _as_table(sections[name], name, _CONVERTER_KEYS)
    try:
        return ConverterParams(
            L=_si_number(table, "L_mH", 3),
            C=_si_number(table, "C_uF", 6),
            Vin=_number(table, "Vin_V"),
            Imax=_number(table, "Imax_A"),
        )
    except ParameterError as exc:
        raise ScenarioFormatError(f"invalid [{name}]: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioFormatError."""
    sections = _split_sections(text)
    for name in _SECTIONS:
        if name not in sections:
            raise ScenarioFormatError(f"missing section [{name}]")

    p1 = _converter(sections, "converter1")
    p2 = _converter(sections, "converter2")

    control = _as_table(sections["control"], "control", _CONTROL_KEYS)
    try:
        gains = ControlGains(
            k1=_number(control, "k1"),
            k2=_number(control, "k2"),
            x_guard=_number(control, "x_guard", 1e-3),
            duty_min=_number(control, "duty_min", 0.0),
            duty_max=_number(control, "duty_max", 1.0),
        )
    except ParameterError as exc:
        raise ScenarioFormatError(f"invalid [control]: {exc}") from exc

    schedule = []
    for key, value, lineno in sections["load"]:
        try:
            t = float(key)
        except ValueError:
            raise ScenarioFormatError(
                f"load entry time must be a number, got {key!r}", key=key, line=lineno
            ) from None
        try:
            r = float(value)
        except ValueError:
            raise ScenarioFormatError(
                f"load resistance must be a number, got {value!r}", key=key, line=lineno
            ) from None
        schedule.append(LoadStep(t, r))
    if not schedule:
        raise ScenarioFormatError("section [load] must contain at least one entry")

    sim_table = _as_table(sections["sim"], "sim", _SIM_KEYS)
    vref = _number(sim_table, "Vref_V")
    dt = _number(sim_table, "dt_s", 1e-6)
    t_end = _number(sim_table, "t_end_s", 0.1)
    record_every = _cadence(sim_table, "record_every", 50)
    init, lineno = sim_table.get("init", ("zero", None))
    if init not in _INIT_LABELS:
        raise ScenarioFormatError(
            f"init must be one of {list(_INIT_LABELS)}, got {init!r}", key="init", line=lineno
        )
    if init == "equilibrium":
        try:
            initial_state = equilibrium(p1, p2, schedule[0].R, vref)
        except ParbuckError as exc:
            raise ScenarioFormatError(str(exc)) from exc
    else:
        initial_state = _ZERO

    try:
        return Scenario(
            p1=p1,
            p2=p2,
            gains=gains,
            Vref=vref,
            load_schedule=tuple(schedule),
            dt=dt,
            t_end=t_end,
            initial_state=initial_state,
            record_every=record_every,
        )
    except (ParameterError, DegenerateConfigError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


def _engineering(si_value: float, shift: int) -> str:
    """si_value written in units of 10**-shift: the shortest repr of the SI
    value with its decimal point moved, which _si_number reads back exactly."""
    from decimal import Decimal  # only writing a scenario needs it

    sign, digits, exponent = Decimal(repr(si_value)).as_tuple()
    value = Decimal((sign, digits, exponent + shift))
    return f"{value:f}" if -6 <= value.adjusted() < 16 else str(value)


def init_label(scenario: Scenario) -> str:
    """The [sim] init word of the scenario's initial state: "zero", or
    "equilibrium" of the first load at Vref. Others raise ScenarioFormatError."""
    s = scenario
    if s.initial_state == _ZERO:
        return "zero"
    if s.initial_state == equilibrium(s.p1, s.p2, s.load_schedule[0].R, s.Vref):
        return "equilibrium"
    raise ScenarioFormatError(
        f"only initial states {list(_INIT_LABELS)} can be written to a file, got {s.initial_state}"
    )


def format_scenario(scenario: Scenario) -> str:
    """Canonical text form of a scenario; parse_scenario inverts it exactly.

    Only zero/equilibrium initial states are representable in a file (see
    init_label); scenarios carrying any other state are rejected.
    """
    init = init_label(scenario)
    lines = []
    for name, p in (("converter1", scenario.p1), ("converter2", scenario.p2)):
        lines.append(f"[{name}]")
        lines.append(f"L_mH = {_engineering(p.L, 3)}")
        lines.append(f"C_uF = {_engineering(p.C, 6)}")
        lines.append(f"Vin_V = {p.Vin!r}")
        lines.append(f"Imax_A = {p.Imax!r}")
        lines.append("")
    g = scenario.gains
    lines.append("[control]")
    lines.append(f"k1 = {g.k1!r}")
    lines.append(f"k2 = {g.k2!r}")
    lines.append(f"duty_min = {g.duty_min!r}")
    lines.append(f"duty_max = {g.duty_max!r}")
    lines.append(f"x_guard = {g.x_guard!r}")
    lines.append("")
    lines.append("[load]")
    for entry in scenario.load_schedule:
        lines.append(f"{entry.time!r} = {entry.R!r}")
    lines.append("")
    lines.append("[sim]")
    lines.append(f"Vref_V = {scenario.Vref!r}")
    lines.append(f"dt_s = {scenario.dt!r}")
    lines.append(f"t_end_s = {scenario.t_end!r}")
    lines.append(f"record_every = {scenario.record_every}")
    lines.append(f"init = {init}")
    lines.append("")
    return "\n".join(lines)


def load_scenario(path: str) -> Scenario:
    """Read and parse a UTF-8 scenario file from disk."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not UTF-8 text: {exc.reason}") from None
    return parse_scenario(text)


def bundled_scenario_text(name: str) -> str:
    """Source text of a scenario shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioFormatError(
            f"unknown bundled scenario {name!r}; available: {list(BUNDLED_SCENARIOS)}"
        )
    return (resources.files("parbuck") / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")
