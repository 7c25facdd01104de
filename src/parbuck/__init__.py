"""Closed-loop simulator for two parallel DC-DC buck converters.

Converter 1 runs a backstepping voltage regulator, converter 2 a backstepping
duty-rate law that balances the per-unit currents of the pair. The package
integrates the averaged plant with the continuous controllers, exports CSV
traces and gnuplot scripts, and reduces runs to settling/steady-state
metrics.

Each exported name is imported from its submodule on first use, so that
`import parbuck` loads none of them and a command loads only what it runs.
"""

__version__ = "0.1.0"

# The submodule each exported name lives in.
_SOURCES = {
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
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        # AttributeError, so that `from parbuck import <submodule>` goes on
        # to import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
