"""Scenario files: bundled contents, exact round-trips, and named errors."""

import math
import random
from dataclasses import replace

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
    parse_scenario,
    validate_scenario,
)


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
    assert s.init_label == "equilibrium"
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
    scenario = replace(constant_scenario, p1=p1, initial_state=PlantState(0.0, 0.0, 0.0, 0.0),
                       init_label="zero")
    text = format_scenario(scenario)
    print(f"\n  {[line for line in text.splitlines() if line.startswith(field)][0]}")
    assert parse_scenario(text) == scenario


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
    custom = replace(constant_scenario, initial_state=PlantState(1.0, 1.0, 5.0, 0.3),
                     init_label="custom")
    with pytest.raises(ScenarioFormatError, match="init"):
        format_scenario(custom)


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown bundled scenario"):
        bundled_scenario_text("nonexistent")


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
    scenario = Scenario(
        p1, p2, gains, vref, schedule, dt=draw(_finite(1e-9, 1e-3)),
        t_end=draw(_finite(0.0, 10.0)), initial_state=state,
        record_every=draw(st.integers(1, 10**6)), init_label=label,
    )
    try:
        validate_scenario(scenario)
    except (ParameterError, DegenerateConfigError):
        assume(False)
    return scenario


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
