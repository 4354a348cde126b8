"""Exception types shared across the toolkit.

Everything raised on purpose derives from TsaError so callers (and the
command line driver) can tell modeling errors apart from genuine bugs.
"""

from __future__ import annotations


class TsaError(Exception):
    """Base class for all toolkit errors.

    field names the one argument or dataclass field whose value is
    refused, where one alone is, so that a reader of a config file can
    name the key that gave it.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class InputError(TsaError):
    """Malformed user input: bad config keys, bad CSV rows, bad arguments."""


class ConfigError(InputError):
    """Configuration file problem (unknown section or key, bad value)."""


class CsvFormatError(InputError):
    """CSV ingestion problem. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(TsaError):
    """Kinematic quantity requested outside the model's admissible domain."""


class HelixLimitError(DomainError):
    """Twist that winds the regular helix past the string's effective length."""


class CoilCapacityError(DomainError):
    """Twist angle beyond the point where coils consume the whole bundle.

    The message states the largest admissible twist (rad).
    """


class ParameterError(TsaError):
    """Model parameters violate their invariants for the given string."""


class TrainingGateError(TsaError):
    """Overtwist requested on a stiff string that has not been trained.

    Raised by the command line's one training gate, which simulate and
    bicep run on their twist schedule before the two-phase law; the law
    itself never raises it.
    """


class TriangleRangeError(DomainError):
    """String length or bending angle outside what the linkage triangle closes on.

    The message states the admissible closed interval.
    """


class SingularConfigurationError(DomainError):
    """Linkage pose where the string line passes through the joint."""


class NonInvertibleError(TsaError):
    """Sensing map cannot be inverted (degenerate sensitivity)."""


class UnderdeterminedError(TsaError):
    """Not enough independent data to identify the requested model."""


class GridCapError(TsaError):
    """Requested oracle grid exceeds the evaluation cap."""


class ConvergenceError(TsaError):
    """Optimizer failed to converge within its iteration budget."""
