"""Gaussian-mechanism calibration for per-step, per-worker (epsilon, delta)-DP.

The honest worker releases the mean of b clipped per-point gradients computed
on a without-replacement sample from m points, plus N(0, s^2 I_d) noise. The
noise scale

    s = 2C / (b ln((e^eps - 1) m / b + 1)) * sqrt(2 ln(1.25 b / (m delta)))

makes each such release (eps, delta)-DP: the mean-gradient sensitivity is
2C/b, the Gaussian mechanism then gives an inner budget of
(ln((e^eps - 1) m/b + 1), m delta / b), and sub-sampling amplification brings
that back down to (eps, delta). ``gaussian_noise`` draws that noise for
several workers in one call, each worker's row from its own stream.
``checked_budget`` is the one budget rule: ``PrivacyParams`` and
``diagnostics.eta_bounds`` both read their checked budget and log factor there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, as_integer, as_real


class PrivacyRegimeWarning(UserWarning):
    """The inner budget left the (0, 1) range the Gaussian-mechanism bound is stated for."""


# ------------------------------------------------------------- calibration

def sensitivity_mean_grad(c: float, b: int) -> float:
    """Worst-case change of the b-point mean of norm-C-clipped gradients: 2C/b."""
    c = as_real("clip bound", c, low=0, open_low=True)
    return 2.0 * c / as_integer("b", b, low=1)


def _check_amplification(epsilon: float, b: int, m: int) -> float:
    """epsilon as a float, in the domain of the amplification map and of its inverse."""
    epsilon = as_real("epsilon", epsilon, low=0, open_low=True)
    m = as_integer("m", m, low=1)
    as_integer("b", b, low=1, high=m)
    return epsilon


def amplified_epsilon(epsilon: float, b: int, m: int) -> float:
    """Sub-sampling amplification: ln(1 + (b/m)(e^eps - 1)).

    Strictly below epsilon for b < m, equal at b = m.
    """
    epsilon = _check_amplification(epsilon, b, m)
    return math.log1p((b / m) * math.expm1(epsilon))


def inner_epsilon(epsilon: float, b: int, m: int) -> float:
    """Inverse of the amplification map: the budget the inner mechanism must meet."""
    epsilon = _check_amplification(epsilon, b, m)
    return _inner_epsilon(epsilon, b, m)


def _inner_epsilon(epsilon: float, b: int, m: int) -> float:
    # epsilon, b and m already checked, by _check_amplification or checked_budget
    return math.log1p((m / b) * math.expm1(epsilon))


def checked_budget(epsilon, delta, b, m) -> tuple[float, float, int, int, float]:
    """epsilon, delta, b and m checked and cast, and the log factor ln(1.25 b / (m delta)).

    Needs 0 < epsilon < 1, 0 < delta < 1, integers m >= 1 and b in [1, m], and
    a finite 1.25 b / (m delta) > 1; raises CalibrationError otherwise.
    """
    unit = dict(low=0, high=1, open_low=True, open_high=True)
    epsilon = as_real("epsilon", epsilon, CalibrationError, **unit)
    delta = as_real("delta", delta, CalibrationError, **unit)
    m = as_integer("m", m, CalibrationError, low=1)
    b = as_integer("b", b, CalibrationError, low=1, high=m)
    log_arg = 1.25 * b / (m * delta)
    if not log_arg > 1.0:
        raise CalibrationError(
            f"need 1.25 b / (m delta) > 1 for a positive log factor, got {log_arg}")
    if log_arg == math.inf:
        raise CalibrationError(f"delta {delta!r} is too small: 1.25 b / (m delta) overflows")
    return epsilon, delta, b, m, math.log(log_arg)


def noise_scale(c: float, b: int, m: int, epsilon: float, delta: float) -> float:
    """Noise standard deviation for per-step (epsilon, delta)-DP at one worker: PrivacyParams' s.

    Emits PrivacyRegimeWarning when the inner budget is >= 1 (for small b/m even at epsilon < 1).
    """
    params = PrivacyParams(epsilon, delta, c, b, m)
    if params.epsilon_inner >= 1.0:
        warnings.warn(f"inner budget {params.epsilon_inner:.4f} >= 1 is outside the stated "
                      "range of the Gaussian-mechanism bound", PrivacyRegimeWarning, stacklevel=2)
    return params.s


def gaussian_noise(d: int, s: float, count: int, stream) -> np.ndarray:
    """A (count, d) matrix of independent N(0, s^2) draws; row w comes from ``stream(w)``.

    Row w equals ``stream(w).normal(0.0, s, d)`` bit for bit. It is drawn by
    ``standard_normal`` into its row, which consumes the same words as
    ``normal``, and the whole matrix is then scaled once. numpy's ``normal``
    returns ``loc + scale * z``, so 0.0 is added after the scaling: it turns
    a -0.0 product into +0.0. At s = 0 the result is zeros and ``stream`` is
    never called.
    """
    d, count = as_integer("d", d, low=1), as_integer("count", count, low=1)
    s = as_real("noise scale", s, low=0)
    if s == 0.0:
        return np.zeros((count, d))
    z = np.empty((count, d))
    for w in range(count):
        stream(w).standard_normal(out=z[w])
    z *= s
    z += 0.0
    return z


# ------------------------------------------------------------------- types

@dataclass(frozen=True)
class PrivacyParams:
    """A calibrated per-step, per-worker privacy budget.

    The noise scale s and the inner budget epsilon_inner are derived from
    (epsilon, delta, c, b, m) on construction and cannot be passed in. An s
    that overflows to inf or underflows to 0 raises CalibrationError, naming
    the clip bound. Unlike noise_scale, it never warns.
    """

    epsilon: float
    delta: float
    c: float
    b: int
    m: int
    s: float = field(init=False)
    epsilon_inner: float = field(init=False)

    def __post_init__(self):
        epsilon, delta, b, m, log_term = checked_budget(self.epsilon, self.delta, self.b, self.m)
        c = as_real("clip bound", self.c, CalibrationError, low=0, open_low=True)
        eps_inner = _inner_epsilon(epsilon, b, m)
        s = (2.0 * c / (b * eps_inner)) * math.sqrt(2.0 * log_term)
        if not 0.0 < s < math.inf:
            raise CalibrationError(
                f"noise scale s = {s} is not positive and finite: the clip bound {c} is out "
                f"of range at b={self.b}, m={self.m}, epsilon={self.epsilon}, delta={self.delta}")
        # stored as checked, so a numpy scalar never reaches a sweep cell's params or digest
        for name, value in (("epsilon", epsilon), ("delta", delta), ("c", c), ("b", b),
                            ("m", m), ("s", s), ("epsilon_inner", eps_inner)):
            object.__setattr__(self, name, value)


DELTA_SLACK = 1e-4  # the delta spent by advanced composition


def compose(epsilon: float, delta: float, steps: int) -> dict:
    """Basic and advanced composition of T identical (epsilon, delta) steps.

    basic:    (T eps, T delta)
    advanced: (eps sqrt(2 T ln(1/slack)) + T eps (e^eps - 1), T delta + slack)

    Returns the ``composition`` entry of a run's summary, slack included.
    Raises ContractViolationError unless epsilon is positive and finite and
    delta lies in (0, 1).
    """
    epsilon = as_real("epsilon", epsilon, low=0, open_low=True)
    delta = as_real("delta", delta, low=0, high=1, open_low=True, open_high=True)
    steps = as_integer("steps", steps, low=1)
    adv_eps = (epsilon * math.sqrt(2.0 * steps * math.log(1.0 / DELTA_SLACK))
               + steps * epsilon * math.expm1(epsilon))
    return {
        "steps": steps,
        "per_step_epsilon": epsilon,
        "per_step_delta": delta,
        "basic_epsilon": steps * epsilon,
        "basic_delta": steps * delta,
        "advanced_epsilon": adv_eps,
        "advanced_delta": steps * delta + DELTA_SLACK,
        "delta_slack": DELTA_SLACK,
    }
