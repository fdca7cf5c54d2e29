"""Exception types shared across the package, and the integer field check."""

import numbers


class ContractViolationError(ValueError):
    """An operation was called with arguments that break its preconditions."""


class ConfigurationError(ValueError):
    """A configuration object violates its invariants."""


class CalibrationError(ConfigurationError):
    """Privacy calibration preconditions do not hold; the message names the violated bound."""


class CapacityError(RuntimeError):
    """The enumerating mda oracle, `mda_bruteforce`, would exceed its subset cap."""


class DataLoadError(ValueError):
    """A dataset file could not be parsed."""


def check_integers(owner, *names: str) -> None:
    """Raise ConfigurationError unless each named field of owner holds an integer.

    Python and numpy integers pass; bools and integral floats such as 10.0 do not.
    """
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
