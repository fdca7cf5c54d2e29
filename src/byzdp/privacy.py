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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ContractViolationError, as_integer, check_integers


class PrivacyRegimeWarning(UserWarning):
    """The inner budget left the (0, 1) range the Gaussian-mechanism bound is stated for."""


# ------------------------------------------------------------- calibration

def sensitivity_mean_grad(c: float, b: int) -> float:
    """Worst-case change of the b-point mean of norm-C-clipped gradients: 2C/b."""
    if not c > 0:
        raise ContractViolationError("clip bound must be positive")
    if b < 1:
        raise ContractViolationError("batch size must be >= 1")
    return 2.0 * c / b


def amplified_epsilon(epsilon: float, b: int, m: int) -> float:
    """Sub-sampling amplification: ln(1 + (b/m)(e^eps - 1)).

    Strictly below epsilon for b < m, equal at b = m.
    """
    if not epsilon > 0:
        raise ContractViolationError("epsilon must be positive")
    if not 1 <= b <= m:
        raise ContractViolationError("need 1 <= b <= m")
    return math.log1p((b / m) * math.expm1(epsilon))


def inner_epsilon(epsilon: float, b: int, m: int) -> float:
    """Inverse of the amplification map: the budget the inner mechanism must meet."""
    if not epsilon > 0:
        raise ContractViolationError("epsilon must be positive")
    if not 1 <= b <= m:
        raise ContractViolationError("need 1 <= b <= m")
    return math.log1p((m / b) * math.expm1(epsilon))


def delta_log_factor(epsilon: float, delta: float, b: int, m: int) -> float:
    """ln(1.25 b / (m delta)), after checking the budget and batch it is stated for.

    Needs 0 < epsilon < 1, 0 < delta < 1, 1 <= b <= m and 1.25 b / (m delta) > 1.
    """
    if not 0 < epsilon < 1:
        raise CalibrationError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise CalibrationError(f"delta must lie in (0, 1), got {delta}")
    if not 1 <= b <= m:
        raise CalibrationError(f"need 1 <= b <= m, got b={b}, m={m}")
    log_arg = 1.25 * b / (m * delta)
    if not log_arg > 1.0:
        raise CalibrationError(
            f"need 1.25 b / (m delta) > 1 for a positive log factor, got {log_arg}")
    return math.log(log_arg)


def noise_scale(c: float, b: int, m: int, epsilon: float, delta: float) -> float:
    """Noise standard deviation for per-step (epsilon, delta)-DP at one worker.

    Emits PrivacyRegimeWarning when the inner budget is >= 1, which happens
    for small b/m even with epsilon < 1; the closed form is still evaluated
    as written. Raises CalibrationError, naming the clip bound, when the
    closed form overflows to inf or underflows to 0 (no noise at all).
    """
    log_term = delta_log_factor(epsilon, delta, b, m)
    if not 0 < c < math.inf:
        raise CalibrationError(f"clip bound must be positive and finite, got {c}")
    eps_inner = inner_epsilon(epsilon, b, m)
    s = (2.0 * c / (b * eps_inner)) * math.sqrt(2.0 * log_term)
    if not 0.0 < s < math.inf:
        raise CalibrationError(
            f"noise scale s = {s} is not positive and finite: the clip bound {c} "
            f"is out of range at b={b}, m={m}, epsilon={epsilon}, delta={delta}")
    if eps_inner >= 1.0:
        warnings.warn(
            f"inner budget {eps_inner:.4f} >= 1 is outside the stated range of the "
            "Gaussian-mechanism bound", PrivacyRegimeWarning, stacklevel=2)
    return s


def gaussian_noise(d: int, s: float, count: int, stream) -> np.ndarray:
    """A (count, d) matrix of independent N(0, s^2) draws; row w comes from ``stream(w)``.

    Row w equals ``stream(w).normal(0.0, s, d)`` bit for bit. It is drawn by
    ``standard_normal`` into its row, which consumes the same words as
    ``normal``, and the whole matrix is then scaled once. numpy's ``normal``
    returns ``loc + scale * z``, so 0.0 is added after the scaling: it turns
    a -0.0 product into +0.0. At s = 0 the result is zeros and ``stream`` is
    never called.
    """
    d, count = as_integer("dimension", d), as_integer("count", count)
    if d < 1:
        raise ContractViolationError("dimension must be >= 1")
    if count < 1:
        raise ContractViolationError(f"need at least one noise row, got count={count}")
    if not 0.0 <= s < math.inf:
        raise ContractViolationError(f"noise scale must be nonnegative and finite, got {s}")
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
    (epsilon, delta, c, b, m) on construction and cannot be passed in.
    """

    epsilon: float
    delta: float
    c: float
    b: int
    m: int
    s: float = field(init=False)
    epsilon_inner: float = field(init=False)

    def __post_init__(self):
        check_integers(self, "b", "m")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrivacyRegimeWarning)
            s = noise_scale(self.c, self.b, self.m, self.epsilon, self.delta)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "epsilon_inner", inner_epsilon(self.epsilon, self.b, self.m))


DELTA_SLACK = 1e-4  # the delta spent by advanced composition


def compose(epsilon: float, delta: float, steps: int) -> dict:
    """Basic and advanced composition of T identical (epsilon, delta) steps.

    basic:    (T eps, T delta)
    advanced: (eps sqrt(2 T ln(1/slack)) + T eps (e^eps - 1), T delta + slack)

    Returns the ``composition`` entry of a run's summary, slack included.
    """
    if steps < 1:
        raise ContractViolationError("steps must be >= 1")
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
