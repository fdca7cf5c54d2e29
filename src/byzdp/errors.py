"""Exception types shared across the package."""


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
