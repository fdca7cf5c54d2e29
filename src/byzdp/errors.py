"""Exception types shared across the package, and the one rule for integer sizes.

Four exception types, all ValueErrors, tell the callers of the package what
went wrong:

* ContractViolationError - a function was called outside its preconditions;
* ConfigurationError     - a value type (a RunConfig, GarSpec, Model, ...)
  was built with fields that break its invariants;
* CalibrationError       - the ConfigurationError of the privacy calibration
  and of the theory thresholds built on it;
* DataLoadError          - a dataset file could not be read or parsed.

``byzdp run``, ``sweep`` and ``diagnose`` print any of them and exit 2.

Every integer size the package takes (a batch size b, a dataset size m, a
dimension, a step count, a seed, a stream key field, a job count, ...) is
checked by ``as_integer`` and nowhere else. It refuses a bool and any
non-integer, floats such as 10.0 included, with "{name} must be an integer,
got {value!r}", and a value outside the caller's bounds with
"need low <= name <= high, got value", or the one-sided "need name >= low" or
"need name <= high". The caller names the exception type, so every call site
keeps the type its callers expect.

``as_real`` is the same rule for a real-valued parameter (a clip bound, a
privacy budget, ...). It refuses a bool and any non-real with "{name} must be
a real number, got {value!r}", and nan, an infinity unless the caller allows
it, and a value outside the caller's bounds with "{name} must be positive and
finite, got value" or the interval it must lie in. It returns a Python float,
so a numpy scalar is never stored.
"""

import math
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


def as_integer(name: str, value, error: type[ValueError] = ContractViolationError, *,
               low: int | None = None, high: int | None = None) -> int:
    """value as a Python int; raise error unless it is an integer in [low, high].

    Python and numpy integers are accepted; bools and integral floats such as
    10.0 are refused. A bound left as None is not checked.
    """
    # a plain int skips the much slower abstract-class check: gaussian_noise and
    # sample_batch call this once per round or block of rounds
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if (low is not None and value < low) or (high is not None and value > high):
        if high is None:
            raise error(f"need {name} >= {low}, got {value}")
        if low is None:
            raise error(f"need {name} <= {high}, got {value}")
        raise error(f"need {low} <= {name} <= {high}, got {value}")
    return value


def as_real(name: str, value, error: type[ValueError] = ContractViolationError, *,
            low: float | None = None, high: float | None = None, open_low: bool = False,
            open_high: bool = False, finite: bool = True) -> float:
    """value as a Python float; raise error unless it is a real number in the bounds.

    Python and numpy reals and integers are accepted; bools, other types and
    nan are refused, and so are infinities when ``finite`` is set. A bound
    left as None is not checked; ``open_low`` and ``open_high`` exclude it.
    """
    # a plain float skips the abstract-class check, as in as_integer: gaussian_noise
    # calls this once per round
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf if value > 0 else -math.inf
    if (math.isnan(value) or (finite and math.isinf(value))
            or (low is not None and (value <= low if open_low else value < low))
            or (high is not None and (value >= high if open_high else value > high))):
        raise error(f"{name} must be {_real_range(low, high, open_low, open_high, finite)}, "
                    f"got {value!r}")
    return value


def _real_range(low, high, open_low: bool, open_high: bool, finite: bool) -> str:
    """The values as_real accepts, in words: "positive and finite", "in (0, 1)", ..."""
    if low is None and high is None:
        return "finite" if finite else "a number"
    if high is None and low == 0:
        words = "positive" if open_low else "nonnegative"
    else:
        words = (f"in {'(' if open_low or low is None else '['}"
                 f"{'-inf' if low is None else low}, {'inf' if high is None else high}"
                 f"{')' if open_high or high is None else ']'}")
    return f"{words} and finite" if finite and (low is None or high is None) else words
