"""Computable checks of the variance-to-norm theory.

The honest-submission distribution at theta is the mean gradient of a
without-replacement batch plus isotropic Gaussian noise, so its total
variance decomposes exactly as

    Var[G(theta)] = (1/b) (m - b)/(m - 1) * population_variance(theta) + d s^2.

The rule passes the variance-to-norm check at theta when
kappa^2 Var[G(theta)] < |grad Q(theta)|^2; with s > 0 the check provably
fails somewhere near any critical point, and find_vn_violation constructs
such a point for quadratic models. The eta bounds quantify how large the
tolerated gradient-norm threshold must be for the relaxed check to hold,
and convergence_bound evaluates the resulting guarantee on
min_t E|grad Q(theta_t)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import GarSpec, kappa
from .errors import CalibrationError, ContractViolationError, as_integer, as_real
from .model import (Dataset, Model, ReadOnlyArrays, full_grad, population_variance,
                    quadratic_minimizer, read_only_copy, smoothness_constant)
from .privacy import checked_budget


# ---------------------------------------------------------------- variance

def batch_mean_variance(model: Model, theta: np.ndarray, dataset: Dataset, b: int) -> float:
    """Exact variance of the without-replacement batch-mean gradient at theta.

    Finite-population formula: (1/b) (m-b)/(m-1) times the population
    variance; zero when b = m. Never exceeds the population variance.
    """
    m = dataset.m
    as_integer("b", b, low=1, high=m)
    if b == m:
        return 0.0
    return (m - b) / (b * (m - 1)) * population_variance(model, theta, dataset)


def submission_variance(model: Model, theta: np.ndarray, dataset: Dataset,
                        b: int, s: float) -> float:
    """Total variance of one honest submission: sampling part plus d s^2."""
    s = as_real("noise scale", s, low=0)
    return batch_mean_variance(model, theta, dataset, b) + model.dim * s * s


# ------------------------------------------------------------------- margin

@dataclass(frozen=True, eq=False)
class VnMargin(ReadOnlyArrays):
    """One evaluation of the variance-to-norm inequality at a parameter vector."""

    theta: np.ndarray
    lhs: float
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "theta", read_only_copy(self.theta))

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs


def vn_margin(model: Model, dataset: Dataset, theta: np.ndarray, spec: GarSpec,
              s: float, b: int) -> VnMargin:
    """kappa^2 Var[G(theta)] versus |grad Q(theta)|^2 at one point."""
    kap = kappa(spec)
    lhs = kap * kap * submission_variance(model, theta, dataset, b, s)
    g = full_grad(model, theta, dataset)
    rhs = float(g @ g)
    return VnMargin(theta, lhs, rhs)


def find_vn_violation(model: Model, dataset: Dataset, spec: GarSpec, s: float,
                      b: int) -> VnMargin:
    """A non-critical point where the variance-to-norm check provably fails.

    Quadratic models only. Walks a distance kappa sqrt(d) s / (2L) from the
    exact minimizer along the top eigenvector of the regularized curvature,
    so the gradient norm there is exactly half of kappa sqrt(d) s while the
    noise floor alone puts the left side at kappa^2 d s^2. The batch size b
    only adds its sampling variance to the left side; b = m adds none and
    leaves the noise floor alone.
    """
    if model.kind != "quadratic":
        raise ContractViolationError("the violation construction needs a quadratic model")
    s = as_real("noise scale", s, low=0, open_low=True)  # s = 0 guarantees no violation
    kap = kappa(spec)
    lips = smoothness_constant(model)
    theta_star = quadratic_minimizer(model, dataset)
    curvature = model.hessian + model.lam * np.eye(model.dim)
    eigvals, eigvecs = np.linalg.eigh(curvature)
    direction = eigvecs[:, -1]
    radius = kap * math.sqrt(model.dim) * s / (2.0 * lips)
    theta_prime = theta_star + radius * direction
    return vn_margin(model, dataset, theta_prime, spec, s, b)


# --------------------------------------------------------------- eta bounds

def eta_bounds(kap: float, c: float, d: int, b: int, m: int,
               epsilon: float, delta: float, upsilon: float) -> dict:
    """Both closed-form thresholds on eta^2, keyed as ``summary.json`` stores them.

    eta_sq_necessary:  4 kappa^2 C^2 d ln(1.25 b / (m delta)) / (b m (e^eps - 1))
    eta_sq_sufficient: kappa^2 (8 C^2 d ln(1.25 b / (m delta))
                                (1/(m (e^eps - 1)) + 1/b)^2 + upsilon^2)

    Since (x + y)^2 >= 4xy, the sufficient threshold is at least 8 times the
    necessary one in exact arithmetic.
    """
    epsilon, _, b, m, log_term = checked_budget(epsilon, delta, b, m)
    d = as_integer("d", d, CalibrationError, low=1)
    kap = as_real("kappa", kap, CalibrationError, low=0)
    c = as_real("clip bound", c, CalibrationError, low=0, open_low=True)
    upsilon = as_real("upsilon", upsilon, CalibrationError, low=0)
    e_term = math.expm1(epsilon)
    necessary = 4.0 * kap * kap * c * c * d * log_term / (b * m * e_term)
    sufficient = kap * kap * (
        8.0 * c * c * d * log_term * (1.0 / (m * e_term) + 1.0 / b) ** 2
        + upsilon * upsilon)
    return {"eta_sq_necessary": necessary, "eta_sq_sufficient": sufficient}


# ------------------------------------------------------------- convergence

def sigma_total(upsilon: float, d: int, s: float, c: float) -> float:
    """sqrt(upsilon^2 + d s^2 + C^2), the second-moment constant of a submission.

    Where the squares overflow, hypot gives the same root without them;
    wherever the plain root is finite, it is returned as it is.
    """
    d = as_integer("d", d, low=1)
    upsilon, s = as_real("upsilon", upsilon, low=0), as_real("noise scale", s, low=0)
    c = as_real("clip bound", c, low=0, open_low=True)
    sigma = math.sqrt(upsilon * upsilon + d * s * s + c * c)
    if math.isinf(sigma):
        return math.hypot(upsilon, math.sqrt(d) * s, c)
    return sigma


def convergence_bound(eta_sq: float, steps: int, alpha: float, mu: float,
                      sigma: float, smoothness: float, q_init: float,
                      q_star: float) -> float:
    """max(eta^2, (Q1 - Q*)/((1 - sin a) sqrt(T))
               + mu sigma^2 L (1 + ln T) / (2 (1 - sin a) sqrt(T))).

    Holds for the gamma_t = 1/sqrt(t) schedule; alpha and mu are the rule's
    resilience constants. An overflowed eta^2, sigma, Q1 or Q* gives inf.
    """
    alpha = as_real("alpha", alpha, low=0, high=math.pi / 2, open_high=True)
    mu, eta_sq = as_real("mu", mu, low=0), as_real("eta^2", eta_sq, low=0, finite=False)
    steps = as_integer("steps", steps, low=1)
    smoothness = as_real("smoothness constant", smoothness, low=0, open_low=True)
    sigma = as_real("sigma", sigma, low=0, finite=False)
    q_init, q_star = as_real("Q1", q_init, finite=False), as_real("Q*", q_star, finite=False)
    if q_init < q_star:
        raise ContractViolationError("initial loss cannot be below the minimum loss")
    denom = 1.0 - math.sin(alpha)
    sqrt_t = math.sqrt(steps)
    tail = ((q_init - q_star) / (denom * sqrt_t)
            + mu * sigma * sigma * smoothness * (1.0 + math.log(steps))
            / (2.0 * denom * sqrt_t))
    return max(eta_sq, tail)
