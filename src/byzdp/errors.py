"""Exception types shared across the package, and the integer checks."""

import numbers
import operator


class ContractViolationError(ValueError):
    """An operation was called with arguments that break its preconditions."""


class ConfigurationError(ValueError):
    """A configuration object violates its invariants."""


class CalibrationError(ConfigurationError):
    """Privacy calibration preconditions do not hold; the message names the violated bound."""


class DataLoadError(ValueError):
    """A dataset file could not be parsed."""


def as_integer(name: str, value, error: type[ValueError] = ContractViolationError) -> int:
    """value as a Python int; raise error unless it is a Python or numpy integer.

    Bools and integral floats such as 10.0 are refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_integers(owner, *names: str) -> None:
    """Raise ConfigurationError unless each named field of owner holds an integer, as as_integer."""
    for name in names:
        as_integer(name, getattr(owner, name), ConfigurationError)
