"""Exception types raised across the package."""


class ParbuckError(Exception):
    """Base class for all package errors."""


class ParameterError(ParbuckError):
    """A physical constant or gain violates its constraints."""


class NumericDomainError(ParbuckError):
    """A numeric input is outside the domain of an operation (e.g. non-finite)."""


class InfeasibleOperatingPointError(ParbuckError):
    """The requested operating point cannot be reached (e.g. Vref >= Vin)."""


class DegenerateConfigError(ParbuckError):
    """The two converters are too similar for the sharing law (|X| below guard)."""


class DivergenceError(ParbuckError):
    """The integration produced a non-finite value."""

    def __init__(self, t: float, component: str):
        super().__init__(f"integration diverged at t={t:.9g} s: {component} is non-finite")
        self.t = t
        self.component = component


class CcmViolationError(ParbuckError):
    """An inductor current left continuous conduction (went negative)."""

    def __init__(self, t: float, component: str, value: float):
        super().__init__(
            f"continuous-conduction assumption violated at t={t:.9g} s: "
            f"{component}={value:.6g} A"
        )
        self.t = t
        self.component = component
        self.value = value


class ScenarioFormatError(ParbuckError):
    """A scenario file failed to parse or validate.

    Carries the offending key and line number when known.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
        self.key = key
        self.line = line


class CsvFormatError(ParbuckError):
    """A trace CSV is missing expected columns or has a malformed header."""
