"""Closed-loop simulator for two parallel DC-DC buck converters.

Converter 1 runs a backstepping voltage regulator, converter 2 a backstepping
duty-rate law that balances the per-unit currents of the pair. The package
integrates the averaged plant with the continuous controllers, exports CSV
traces and gnuplot scripts, and reduces runs to settling/steady-state
metrics.
"""

from .control import (
    ControlGains,
    ControlSignals,
    controller_step,
    coupling_constant,
    current_rate_target,
    duty_command,
    duty_rate_command,
    lyapunov_sharing,
    lyapunov_voltage,
    sharing_error,
    virtual_current_target,
    voltage_error,
    voltage_target,
)
from .errors import (
    CcmViolationError,
    CsvFormatError,
    DegenerateConfigError,
    DivergenceError,
    InfeasibleOperatingPointError,
    NumericDomainError,
    ParameterError,
    ParbuckError,
    ScenarioFormatError,
)
from .metrics import RunMetrics, compute_metrics, lyapunov_violation_fraction
from .model import (
    ConverterParams,
    PlantDerivative,
    PlantState,
    equilibrium,
    plant_derivatives,
)
from .plotting import emit_plot_script
from .scenario_io import (
    BUNDLED_SCENARIOS,
    bundled_scenario_text,
    format_scenario,
    load_scenario,
    parse_scenario,
)
from .sim import (
    CCM_TOL,
    MAX_STEPS,
    LoadStep,
    Scenario,
    TraceRecord,
    run,
    simulate,
    step_count,
    validate_scenario,
)
from .trace_csv import CSV_COLUMNS, format_trace_csv

__version__ = "0.1.0"
