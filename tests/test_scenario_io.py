"""Scenario files: bundled contents, exact round-trips, and named errors."""

import hashlib
import math
import random
from dataclasses import replace
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parbuck import (
    BUNDLED_SCENARIOS,
    ControlGains,
    ConverterParams,
    DegenerateConfigError,
    LoadStep,
    ParameterError,
    PlantState,
    Scenario,
    ScenarioFormatError,
    bundled_scenario_text,
    equilibrium,
    format_scenario,
    load_scenario,
    parse_scenario,
)
from parbuck.scenario_io import _si_number, init_label


def test_bundled_constant_load_values(constant_scenario):
    s = constant_scenario
    assert s.p1.L == 1e-3 and s.p2.L == 1e-3
    assert s.p1.C == 1e-5 and s.p2.C == 1e-5
    assert s.p1.Vin == 16.0 and s.p2.Vin == 16.0
    assert (s.p1.Imax, s.p2.Imax) == (5.0, 2.0)
    assert s.gains.k1 == 1.0 and s.gains.k2 == 1.0
    assert s.load_schedule == (LoadStep(0.0, 10.0),)
    assert s.Vref == 8.0 and s.dt == 1e-6 and s.t_end == 0.1
    assert s.record_every == 50
    assert init_label(s) == "equilibrium"
    assert s.initial_state == equilibrium(s.p1, s.p2, 10.0, 8.0)


def test_bundled_load_step_schedule(step_scenario):
    assert step_scenario.load_schedule == (LoadStep(0.0, 10.0), LoadStep(0.05, 15.0))
    assert step_scenario.initial_state == equilibrium(
        step_scenario.p1, step_scenario.p2, 10.0, 8.0
    )


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_round_trip_is_identity(name):
    first = parse_scenario(bundled_scenario_text(name))
    second = parse_scenario(format_scenario(first))
    assert second == first


def test_round_trip_survives_awkward_floats():
    """Engineering-unit conversion stays exact even for non-representable values."""
    rng = random.Random(8621)
    for _ in range(50):
        text = f"""
[converter1]
L_mH = {rng.uniform(0.1, 5.0)!r}
C_uF = {rng.uniform(1.0, 50.0)!r}
Vin_V = {rng.uniform(12.0, 30.0)!r}
Imax_A = 5

[converter2]
L_mH = {rng.uniform(0.1, 5.0)!r}
C_uF = {rng.uniform(1.0, 50.0)!r}
Vin_V = {rng.uniform(12.0, 30.0)!r}
Imax_A = 2

[control]
k1 = {rng.uniform(0.1, 5.0)!r}
k2 = 1

[load]
0 = {rng.uniform(5.0, 40.0)!r}
{rng.uniform(0.01, 0.09)!r} = {rng.uniform(5.0, 40.0)!r}

[sim]
Vref_V = {rng.uniform(2.0, 9.0)!r}
init = zero
"""
        first = parse_scenario(text)
        assert parse_scenario(format_scenario(first)) == first


@pytest.mark.parametrize("field, value", [
    ("C", 0.006575291225957155), ("L", 3.3e-4), ("C", 5e-324), ("L", 1.7976931348623157e308),
])
def test_any_si_inductance_and_capacitance_can_be_written(constant_scenario, field, value):
    """An SI value that no mH/uF float maps onto by division is written as
    its own digits with the decimal point moved, and reads back exactly."""
    p1 = replace(constant_scenario.p1, **{field: value})
    scenario = replace(constant_scenario, p1=p1, initial_state=PlantState(0.0, 0.0, 0.0, 0.0))
    text = format_scenario(scenario)
    print(f"\n  {[line for line in text.splitlines() if line.startswith(field)][0]}")
    assert parse_scenario(text) == scenario


def _decimal_reading(text, shift):
    """An engineering-unit entry read with the decimal module: the written
    number's digits and exponent, the exponent lowered by shift, one
    rounding to float. Returns ("value", repr) or ("error", message)."""
    try:
        value = float(text)
    except ValueError:
        return "error", str(ScenarioFormatError(f"expected a number, got {text!r}", "L_mH", 7))
    try:
        sign, digits, exponent = Decimal(text).as_tuple()
    except InvalidOperation:  # past the exponents of decimal's widest context
        return "error", str(ScenarioFormatError(f"{text!r} is out of range", "L_mH", 7))
    if not isinstance(exponent, int):  # nan or inf
        return "value", repr(value)
    try:
        return "value", repr(float(Decimal((sign, digits, exponent - shift))))
    except InvalidOperation:
        # Within that range as written, below it once shifted: 10**-(2e18)
        # rounds to a zero of the numeral's sign.
        return "value", repr(-0.0 if sign else 0.0)


def _si_reading(text, shift):
    try:
        return "value", repr(_si_number({"L_mH": (text, 7)}, "L_mH", shift))
    except ScenarioFormatError as exc:
        return "error", str(exc)


_EDGE_NUMERALS = (
    "1.7976931348623157E+311",  # overflows as written, finite in SI units
    "1e1000000000000000000", "1e" + "9" * 5000, "1e999999999999999999",
    "1e-1000000000000000000", "0e1000000000000000000", "0.1e1000000000000000000",
    "123.456e999999999999999997", "123.456e999999999999999998",
    "1e-1999999999999999997", "-1e-1999999999999999995", "1e-1999999999999999998",
    "1e" + "0" * 5000 + "3", "1" + "0" * 400 + "e-400", "4.9e-321",
    "nan", "-inf", "Infinity", "+NaN", "１２.５", "1e３", "+.5", "5.", "1_0.2_5e-1_0", "-0",
    "0x10", "1__0", "_1", "", "snan", "1e", "e5",
)

@st.composite
def _numerals(draw):
    """Numerals float() reads, with signs, a point on either side, grouping
    underscores, full-width digits and exponents short, near decimal's
    bounds and long; or arbitrary short text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=8))

    def digits(max_size):
        run = draw(st.text(st.sampled_from("0123456789０９"), min_size=1, max_size=max_size))
        cut = draw(st.integers(0, len(run) - 1))
        return run[:cut] + "_" + run[cut:] if cut else run

    form = draw(st.sampled_from(("w", ".f", "w.", "w.f")))
    mantissa = (digits(8) if "w" in form else "") + ("." if "." in form else "") + (
        digits(30) if "f" in form else "")
    exponent = draw(st.one_of(
        st.just(""),
        st.integers(0, 400).map(str),
        st.sampled_from((10**18 - 1, 2 * 10**18 - 3)).flatmap(
            lambda bound: st.integers(bound - 40, bound + 40)).map(str),
        st.text(st.sampled_from("0123456789"), min_size=19, max_size=40),
    ))
    if exponent:
        exponent = draw(st.sampled_from("eE")) + draw(st.sampled_from(("", "+", "-"))) + exponent
    return draw(st.sampled_from(("", "+", "-"))) + mantissa + exponent


@pytest.mark.parametrize("shift", [3, 6])
@pytest.mark.parametrize("text", _EDGE_NUMERALS,
                         ids=lambda t: repr(t if len(t) < 30 else f"{t[:12]}...({len(t)} chars)"))
def test_si_numbers_at_the_edges_read_as_with_decimal(text, shift):
    assert _si_reading(text, shift) == _decimal_reading(text, shift)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_numerals(), st.sampled_from((3, 6)))
def test_si_numbers_read_as_with_decimal(text, shift):
    """Moving the decimal point in the text and reading it with float()
    gives the float, or the error, that the decimal reading gives."""
    assert _si_reading(text, shift) == _decimal_reading(text, shift)


def _mutate(name, pattern, replacement):
    text = bundled_scenario_text(name)
    assert pattern in text
    return text.replace(pattern, replacement)


def test_missing_required_key_is_named():
    for key, line in (
        ("k1", "k1 = 1\n"), ("k2", "k2 = 1\n"), ("Vref_V", "Vref_V = 8\n"),
        ("L_mH", "L_mH = 1\n"), ("C_uF", "C_uF = 10\n"), ("Vin_V", "Vin_V = 16\n"),
        ("Imax_A", "Imax_A = 5\n"),
    ):
        with pytest.raises(ScenarioFormatError, match=key) as exc:
            parse_scenario(_mutate("constant_load", line, ""))
        assert exc.value.key == key


def test_unknown_key_is_rejected():
    text = _mutate("constant_load", "k1 = 1", "k1 = 1\nk3 = 2")
    with pytest.raises(ScenarioFormatError, match="k3"):
        parse_scenario(text)


def test_duplicate_key_is_rejected():
    text = _mutate("constant_load", "k1 = 1", "k1 = 1\nk1 = 2")
    with pytest.raises(ScenarioFormatError, match="duplicate"):
        parse_scenario(text)


def test_non_numeric_value_names_key_and_line():
    text = _mutate("constant_load", "Vref_V = 8", "Vref_V = eight")
    with pytest.raises(ScenarioFormatError, match="Vref_V") as err:
        parse_scenario(text)
    assert err.value.line is not None
    print(f"\n  {err.value}")


def test_duplicate_section_is_rejected_at_its_line():
    text = bundled_scenario_text("constant_load") + "\n[sim]\n"
    with pytest.raises(ScenarioFormatError, match=r"^duplicate section \[sim\]") as err:
        parse_scenario(text)
    assert err.value.line == len(text.splitlines())


def test_non_numeric_load_time_names_key_and_line():
    text = _mutate("load_step", "0.05 = 15", "soon = 15")
    with pytest.raises(ScenarioFormatError,
                       match="^load entry time must be a number, got 'soon'") as err:
        parse_scenario(text)
    assert (err.value.key, err.value.line) == ("soon", text.splitlines().index("soon = 15") + 1)


def test_empty_load_section_is_rejected():
    text = _mutate("constant_load", "[load]\n0 = 10\n", "[load]\n")
    with pytest.raises(ScenarioFormatError,
                       match=r"^section \[load\] must contain at least one entry$"):
        parse_scenario(text)


def test_vref_above_vin_is_rejected():
    text = _mutate("constant_load", "Vref_V = 8", "Vref_V = 20")
    with pytest.raises(ScenarioFormatError, match="below both input voltages"):
        parse_scenario(text)


def test_unknown_section_is_rejected():
    text = bundled_scenario_text("constant_load") + "\n[thermal]\nalpha = 1\n"
    with pytest.raises(ScenarioFormatError, match="thermal"):
        parse_scenario(text)


def test_entry_outside_section_is_rejected():
    text = "stray = 1\n" + bundled_scenario_text("constant_load")
    with pytest.raises(ScenarioFormatError, match="outside any section"):
        parse_scenario(text)


def test_bad_init_label_is_rejected():
    text = _mutate("constant_load", "init = equilibrium", "init = warm")
    with pytest.raises(ScenarioFormatError, match="init"):
        parse_scenario(text)


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "utf16.scn"
    path.write_bytes(b"\xff\xfe" + bundled_scenario_text("constant_load").encode("utf-16-le"))
    with pytest.raises(ScenarioFormatError, match="not UTF-8"):
        load_scenario(str(path))


def test_fractional_record_every_is_rejected():
    text = _mutate("constant_load", "record_every = 50", "record_every = 2.5")
    with pytest.raises(ScenarioFormatError, match="record_every"):
        parse_scenario(text)


def test_decreasing_schedule_is_rejected():
    text = _mutate("load_step", "0.05 = 15", "0.05 = 15\n0.04 = 12")
    with pytest.raises(ScenarioFormatError, match="strictly increasing"):
        parse_scenario(text)


@pytest.mark.parametrize("imax", ["1e-321", "1e-310"], ids=["underflow", "overflow"])
def test_tiny_ampere_henry_product_is_rejected(imax):
    """Imax*L underflowing to zero, or a reciprocal overflowing to inf,
    leaves no finite coupling constant X: a format error, not a crash."""
    text = _mutate("constant_load", "Imax_A = 5", f"Imax_A = {imax}")
    with pytest.raises(ScenarioFormatError, match="X is not finite"):
        parse_scenario(text)


@pytest.mark.parametrize("entries", [
    "0 = 10\nnan = 12\n0.001 = 15",
    "0 = 10\n0.05 = 15\ninf = 12",
], ids=["nan", "inf"])
def test_nonfinite_load_time_is_rejected(entries):
    """A NaN time would silently drop every later load step."""
    text = _mutate("load_step", "0 = 10\n0.05 = 15", entries)
    with pytest.raises(ScenarioFormatError, match="load entry time must be finite"):
        parse_scenario(text)


def test_zero_init_starts_dead():
    text = _mutate("constant_load", "init = equilibrium", "init = zero")
    s = parse_scenario(text)
    assert (s.initial_state.iL1, s.initial_state.iL2, s.initial_state.Vo,
            s.initial_state.d2) == (0.0, 0.0, 0.0, 0.0)


def test_custom_initial_state_cannot_be_serialized(constant_scenario):
    custom = replace(constant_scenario, initial_state=PlantState(1.0, 1.0, 5.0, 0.3))
    with pytest.raises(ScenarioFormatError, match="init"):
        format_scenario(custom)


@pytest.mark.parametrize("change", [
    {"initial_state": PlantState(1.0, 0.5, 7.9, 0.5)},
    {"Vref": 6.0},
    {"load_schedule": (LoadStep(0.0, 15.0),)},
], ids=["state", "Vref", "first_load"])
def test_state_off_the_equilibrium_is_not_written_as_one(step_scenario, change):
    """The init word is read off the state: once the state is not the
    equilibrium of the first load at Vref, no word gives it back, so
    writing fails instead of producing a file that parses to another
    scenario."""
    moved = replace(step_scenario, **change)
    with pytest.raises(ScenarioFormatError, match="initial state"):
        format_scenario(moved)
    start = equilibrium(moved.p1, moved.p2, moved.load_schedule[0].R, moved.Vref)
    rebased = replace(moved, initial_state=start)
    assert "init = equilibrium" in format_scenario(rebased)
    assert parse_scenario(format_scenario(rebased)) == rebased


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown bundled scenario"):
        bundled_scenario_text("nonexistent")


_DEFAULTS = [
    ("x_guard", lambda s: s.gains.x_guard, 1e-3),
    ("duty_min", lambda s: s.gains.duty_min, 0.0),
    ("duty_max", lambda s: s.gains.duty_max, 1.0),
    ("dt_s", lambda s: s.dt, 1e-6),
    ("t_end_s", lambda s: s.t_end, 0.1),
    ("record_every", lambda s: s.record_every, 50),
    ("init", lambda s: s.initial_state, PlantState(0.0, 0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("key, field, default", _DEFAULTS, ids=[case[0] for case in _DEFAULTS])
def test_a_key_left_out_takes_its_fields_default(step_scenario, key, field, default):
    """Each optional key, dropped from the bundled load step written out with
    every optional value off its default, leaves its field at the
    ControlGains or Scenario default."""
    gains = replace(step_scenario.gains, x_guard=2e-3, duty_min=0.1, duty_max=0.9)
    moved = replace(step_scenario, gains=gains, dt=2e-6, t_end=0.05, record_every=7)
    lines = format_scenario(moved).splitlines()
    kept = [line for line in lines if line.partition(" =")[0] != key]
    assert len(kept) == len(lines) - 1 and repr(field(moved)) != repr(default)
    assert repr(field(parse_scenario("\n".join(kept)))) == repr(default)


# Every key a keyed section may hold; a single-fault file adds each one that a
# bundled file leaves out.
_SECTION_KEYS = {
    "converter1": ("L_mH", "C_uF", "Vin_V", "Imax_A"),
    "converter2": ("L_mH", "C_uF", "Vin_V", "Imax_A"),
    "control": ("k1", "k2", "duty_min", "duty_max", "x_guard"),
    "sim": ("Vref_V", "dt_s", "t_end_s", "record_every", "init"),
}
_FAULT_VALUES = (
    "nan", "inf", "1e400", "1e-321", "-0", "1_0", "0x10", "", "abc",
    "1e-99999999999999999999", "2.5", "-1", "7", "equilibrium", "zero", "0.5", "1e30",
)


def _single_fault_files():
    """Each bundled file with one of its `key = value` lines dropped,
    duplicated, followed by an unknown key or given each fault value; and
    with each key it leaves out added with each fault value."""
    for name in BUNDLED_SCENARIOS:
        lines = bundled_scenario_text(name).splitlines()
        for i, line in enumerate(lines):
            key, sep, _ = line.partition("=")
            if not sep or line.startswith("#"):
                continue
            head, tail = lines[:i], lines[i + 1:]
            yield head + tail
            yield head + [line, line] + tail
            yield head + [line, "bogus = 1"] + tail
            for value in _FAULT_VALUES:
                yield head + [f"{key.strip()} = {value}"] + tail
        for section, keys in _SECTION_KEYS.items():
            at = lines.index(f"[{section}]") + 1
            body = lines[at:(lines + [""]).index("", at)]
            for key in keys:
                if not any(entry.partition("=")[0].strip() == key for entry in body):
                    for value in _FAULT_VALUES:
                        yield lines[:at] + [f"{key} = {value}"] + lines[at:]


# sha256 of the outcomes of _single_fault_files, taken at the commit before
# scenario_io read and wrote its keys from one table per section.
SINGLE_FAULT_SHA256 = "918d481b4386d59f767f98edf32ebdbc8cbd95401ed9ab14e2fcba96569ea1e7"


def test_single_fault_files_parse_as_pinned():
    """Each single-fault file gives the pinned scenario and canonical text,
    or the pinned message, key and line. Round-trip tests cannot see a
    reordered line, a renamed key or a changed error; this does."""
    digest, count = hashlib.sha256(), 0
    for lines in _single_fault_files():
        try:
            scenario = parse_scenario("\n".join(lines) + "\n")
        except ScenarioFormatError as exc:
            outcome = repr((str(exc), exc.key, exc.line))
        else:
            outcome = repr(scenario) + format_scenario(scenario)
        digest.update(outcome.encode("utf-8") + b"\0")
        count += 1
    print(f"\n  {count} files: {digest.hexdigest()}")
    assert count == 762
    assert digest.hexdigest() == SINGLE_FAULT_SHA256


# ── Properties ────────────────────────────────────────────────────────────────


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# L and C are drawn both in SI units, as a scenario built in code holds them,
# and in the file's units, converted as a file states them.
_converters = st.builds(
    ConverterParams,
    L=_finite(1e-6, 1e-1) | _finite(1e-3, 1e2).map(lambda mH: mH / 1e3),
    C=_finite(1e-8, 1e-2) | _finite(1e-2, 1e4).map(lambda uF: uF / 1e6),
    Vin=_finite(1.0, 1e3), Imax=_finite(1e-2, 1e2),
)


# Cadences a float cannot hold: the file must keep every digit.
_LARGE_CADENCES = (2**53 + 1, 10**17 + 1, 10**400)


@st.composite
def scenarios(draw):
    """Valid scenarios with a file-representable initial state."""
    p1, p2 = draw(_converters), draw(_converters)
    gains = ControlGains(
        k1=draw(_finite(1e-3, 1e3)), k2=draw(_finite(1e-3, 1e3)),
        x_guard=draw(_finite(1e-6, 1e-2)),
        duty_min=draw(_finite(0.0, 0.49)), duty_max=draw(_finite(0.5, 1.0)),
    )
    vref = draw(_finite(1e-2, 0.99)) * min(p1.Vin, p2.Vin)
    times = draw(st.lists(_finite(1e-9, 10.0), max_size=4, unique=True))
    loads = draw(st.lists(_finite(1e-2, 1e4), min_size=len(times) + 1, max_size=len(times) + 1))
    schedule = tuple(LoadStep(t, R) for t, R in zip([0.0] + sorted(times), loads))
    label = draw(st.sampled_from(("zero", "equilibrium")))
    state = (equilibrium(p1, p2, schedule[0].R, vref) if label == "equilibrium"
             else PlantState(0.0, 0.0, 0.0, 0.0))
    try:
        return Scenario(
            p1, p2, gains, vref, schedule, dt=draw(_finite(1e-9, 1e-3)),
            t_end=draw(_finite(0.0, 10.0)), initial_state=state,
            record_every=draw(st.integers(1, 10**6) | st.sampled_from(_LARGE_CADENCES)),
        )
    except (ParameterError, DegenerateConfigError):
        assume(False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scenarios())
def test_format_then_parse_is_identity(scenario):
    assert parse_scenario(format_scenario(scenario)) == scenario


_values = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "1e400", "1e-321", "-0", "0", "1_0", "0x10", "",
                     "1e-99999999999999999999")),
    st.floats().map(repr), st.integers().map(str), st.text(max_size=12),
)


def _parses_or_names_its_error(text):
    try:
        parse_scenario(text)
    except ScenarioFormatError:
        pass


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.text(), _values)
def test_any_text_raises_only_scenario_format_error(text, value):
    """Arbitrary text, and each bundled file with each of its entries in turn
    given an arbitrary value: parsing succeeds or raises ScenarioFormatError."""
    _parses_or_names_its_error(text)
    for name in BUNDLED_SCENARIOS:
        lines = bundled_scenario_text(name).splitlines()
        for i, line in enumerate(lines):
            key, sep, _ = line.partition("=")
            if sep:
                entry = f"{key}= {value}"
                _parses_or_names_its_error("\n".join(lines[:i] + [entry] + lines[i + 1:]))
