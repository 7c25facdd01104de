"""Plain-text scenario files: parsing, validation and canonical output.

Format: INI-like sections [converter1], [converter2], [control], [load],
[sim]. _KEYS declares each keyed section's keys once, for the unknown-key
check, the parser and format_scenario alike: the field of ConverterParams,
ControlGains or Scenario that each sets, and the power of ten between its
unit and SI (L_mH and C_uF are in engineering units, everything else is SI).
A key left out of a file is not passed, so its field keeps the dataclass
default; a key whose field has no default is required. The [load] section
holds one ``time_s = R_ohm`` entry per line, first entry at t=0, and the
[sim] ``init`` word names the initial state; both are read apart from the
table. Unknown sections or keys are rejected so typos fail loudly.
``format_scenario`` emits a canonical document that parses back to an
identical Scenario.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .errors import DegenerateConfigError, ParameterError, ParbuckError, ScenarioFormatError
from .model import ConverterParams, equilibrium
from .scenario import ControlGains, LoadStep, Scenario

BUNDLED_SCENARIOS = ("constant_load", "load_step")

# file key -> (field, shift), in the order keys are read and written; the file
# holds the field's SI value times 10**shift.
_CONVERTER_KEYS = {"L_mH": ("L", 3), "C_uF": ("C", 6), "Vin_V": ("Vin", 0), "Imax_A": ("Imax", 0)}
_KEYS = {
    "converter1": _CONVERTER_KEYS,
    "converter2": _CONVERTER_KEYS,
    "control": {"k1": ("k1", 0), "k2": ("k2", 0), "duty_min": ("duty_min", 0),
                "duty_max": ("duty_max", 0), "x_guard": ("x_guard", 0)},
    "sim": {"Vref_V": ("Vref", 0), "dt_s": ("dt", 0), "t_end_s": ("t_end", 0),
            "record_every": ("record_every", 0)},
}
_SECTIONS = ("converter1", "converter2", "control", "load", "sim")
_INIT_LABELS = ("zero", "equilibrium")

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


def _as_table(sections, section: str, *extra: str) -> dict[str, tuple[str, int]]:
    """The section's entries by key; each must be a table key or in extra."""
    table: dict[str, tuple[str, int]] = {}
    for key, value, lineno in sections[section]:
        if key not in _KEYS[section] and key not in extra:
            raise ScenarioFormatError(
                f"unknown key in [{section}]", key=key, line=lineno
            )
        if key in table:
            raise ScenarioFormatError(
                f"duplicate key in [{section}]", key=key, line=lineno
            )
        table[key] = (value, lineno)
    return table


def _number(table: dict[str, tuple[str, int]], key: str) -> float:
    value, lineno = table[key]
    try:
        return float(value)
    except ValueError:
        raise ScenarioFormatError(
            f"expected a number, got {value!r}", key=key, line=lineno
        ) from None


def _cadence(table: dict[str, tuple[str, int]], key: str) -> int | float:
    """An integer entry. An integer literal is read with int(), so that one
    above 2**53 keeps every digit; any other number is read as a float and
    made an int when it is integral (Scenario rejects the rest)."""
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


def _arguments(cls, table: dict[str, tuple[str, int]], section: str) -> dict:
    """The keyword arguments of cls that the section's table keys give, read
    in table order. A key left out is not passed, so its field keeps the
    dataclass default; a key whose field has no default is required."""
    specs = {spec.name: spec for spec in fields(cls)}
    arguments = {}
    for key, (field, shift) in _KEYS[section].items():
        if key not in table:
            if specs[field].default is MISSING:
                raise ScenarioFormatError("missing required key", key=key)
        elif shift:
            arguments[field] = _si_number(table, key, shift)
        elif specs[field].type in ("int", int):  # a string if annotations are postponed
            arguments[field] = _cadence(table, key)
        else:
            arguments[field] = _number(table, key)
    return arguments


def _build(cls, sections, section: str):
    arguments = _arguments(cls, _as_table(sections, section), section)
    try:
        return cls(**arguments)
    except ParameterError as exc:
        raise ScenarioFormatError(f"invalid [{section}]: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioFormatError."""
    sections = _split_sections(text)
    for name in _SECTIONS:
        if name not in sections:
            raise ScenarioFormatError(f"missing section [{name}]")

    p1 = _build(ConverterParams, sections, "converter1")
    p2 = _build(ConverterParams, sections, "converter2")
    gains = _build(ControlGains, sections, "control")

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

    sim_table = _as_table(sections, "sim", "init")
    arguments = _arguments(Scenario, sim_table, "sim")
    init, lineno = sim_table.get("init", ("zero", None))
    if init not in _INIT_LABELS:
        raise ScenarioFormatError(
            f"init must be one of {list(_INIT_LABELS)}, got {init!r}", key="init", line=lineno
        )
    if init == "equilibrium":
        try:
            arguments["initial_state"] = equilibrium(p1, p2, schedule[0].R, arguments["Vref"])
        except ParbuckError as exc:
            raise ScenarioFormatError(str(exc)) from exc

    try:
        return Scenario(p1=p1, p2=p2, gains=gains, load_schedule=tuple(schedule), **arguments)
    except (ParameterError, DegenerateConfigError) as exc:
        raise ScenarioFormatError(str(exc)) from exc


def _engineering(si_value: float, shift: int) -> str:
    """si_value written in units of 10**-shift: the shortest repr of the SI
    value with its decimal point moved, which _si_number reads back exactly."""
    from decimal import Decimal  # only writing a scenario needs it

    sign, digits, exponent = Decimal(repr(si_value)).as_tuple()
    value = Decimal((sign, digits, exponent + shift))
    return f"{value:f}" if -6 <= value.adjusted() < 16 else str(value)


def _section(section: str, obj, *extra: str) -> str:
    """The section's text: each table key with obj's field value, then extra."""
    lines = [f"[{section}]"]
    for key, (field, shift) in _KEYS[section].items():
        value = getattr(obj, field)
        lines.append(f"{key} = {_engineering(value, shift) if shift else repr(value)}")
    return "\n".join([*lines, *extra])


def init_label(scenario: Scenario) -> str:
    """The [sim] init word of the scenario's initial state: "zero", or
    "equilibrium" of the first load at Vref. Others raise ScenarioFormatError."""
    s = scenario
    if s.initial_state == Scenario.initial_state:
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
    s = scenario
    init = init_label(s)
    load = [f"{entry.time!r} = {entry.R!r}" for entry in s.load_schedule]
    return "\n\n".join((
        _section("converter1", s.p1), _section("converter2", s.p2),
        _section("control", s.gains), "\n".join(["[load]", *load]),
        _section("sim", s, f"init = {init}"),
    )) + "\n"


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
    from importlib import resources  # only this function reads package data

    if name not in BUNDLED_SCENARIOS:
        raise ScenarioFormatError(
            f"unknown bundled scenario {name!r}; available: {list(BUNDLED_SCENARIOS)}"
        )
    return (resources.files("parbuck") / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")
