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
from .errors import CalibrationError, ContractViolationError
from .model import (Dataset, Model, batch_grads, full_grad, population_variance,
                    quadratic_minimizer, sample_batch, smoothness_constant)
from .privacy import delta_log_factor, gaussian_noise


# ---------------------------------------------------------------- variance

def batch_mean_variance(model: Model, theta: np.ndarray, dataset: Dataset, b: int) -> float:
    """Exact variance of the without-replacement batch-mean gradient at theta.

    Finite-population formula: (1/b) (m-b)/(m-1) times the population
    variance; zero when b = m. Never exceeds the population variance.
    """
    m = dataset.m
    if not 1 <= b <= m:
        raise ContractViolationError(f"need 1 <= b <= m, got b={b}, m={m}")
    if b == m:
        return 0.0
    return (m - b) / (b * (m - 1)) * population_variance(model, theta, dataset)


def submission_variance(model: Model, theta: np.ndarray, dataset: Dataset,
                        b: int, s: float) -> float:
    """Total variance of one honest submission: sampling part plus d s^2."""
    return batch_mean_variance(model, theta, dataset, b) + model.dim * s * s


def monte_carlo_submission_variance(model: Model, theta: np.ndarray, dataset: Dataset,
                                    b: int, s: float, samples: int,
                                    rng: np.random.Generator) -> float:
    """Estimate E|G(theta) - grad Q(theta)|^2 from i.i.d. simulated submissions."""
    if samples < 1:
        raise ContractViolationError("need at least one sample")
    mean_grad = full_grad(model, theta, dataset)
    x, labels = dataset.features, dataset.labels
    total = 0.0
    for _ in range(samples):
        idx = sample_batch(dataset, b, rng)
        g = batch_grads(model, theta, x[idx],
                        None if labels is None else labels[idx]).mean(axis=0)
        g = g + gaussian_noise(model.dim, s, rng)
        diff = g - mean_grad
        total += float(diff @ diff)
    return total / samples


# ------------------------------------------------------------------- margin

@dataclass(frozen=True)
class VnMargin:
    """One evaluation of the variance-to-norm inequality at a parameter vector."""

    theta: np.ndarray
    lhs: float
    rhs: float
    satisfied: bool


def vn_margin(model: Model, dataset: Dataset, theta: np.ndarray, spec: GarSpec,
              s: float, b: int) -> VnMargin:
    """kappa^2 Var[G(theta)] versus |grad Q(theta)|^2 at one point."""
    kap = kappa(spec)
    theta = np.asarray(theta, dtype=np.float64)
    lhs = kap * kap * submission_variance(model, theta, dataset, b, s)
    g = full_grad(model, theta, dataset)
    rhs = float(g @ g)
    return VnMargin(theta, lhs, rhs, lhs < rhs)


def find_vn_violation(model: Model, dataset: Dataset, spec: GarSpec, s: float,
                      b: int | None = None) -> VnMargin:
    """A non-critical point where the variance-to-norm check provably fails.

    Quadratic models only. Walks a distance kappa sqrt(d) s / (2L) from the
    exact minimizer along the top eigenvector of the regularized curvature,
    so the gradient norm there is exactly half of kappa sqrt(d) s while the
    noise floor alone puts the left side at kappa^2 d s^2.
    """
    if model.kind != "quadratic":
        raise ContractViolationError("the violation construction needs a quadratic model")
    if not s > 0:
        raise ContractViolationError("no violation is guaranteed with s = 0")
    kap = kappa(spec)
    lips = smoothness_constant(model)
    if b is None:
        b = dataset.m
    theta_star = quadratic_minimizer(model, dataset)
    curvature = model.hessian + model.lam * np.eye(model.dim)
    eigvals, eigvecs = np.linalg.eigh(curvature)
    direction = eigvecs[:, -1]
    radius = kap * math.sqrt(model.dim) * s / (2.0 * lips)
    theta_prime = theta_star + radius * direction
    return vn_margin(model, dataset, theta_prime, spec, s, b)


# --------------------------------------------------------------- eta bounds

@dataclass(frozen=True)
class EtaBounds:
    """Necessary and sufficient thresholds for the relaxed check to hold."""

    eta_sq_necessary: float
    eta_sq_sufficient: float

    def __post_init__(self):
        if self.eta_sq_necessary > self.eta_sq_sufficient:
            raise AssertionError("threshold ordering violated; this is a bug")


def eta_bounds(kap: float, c: float, d: int, b: int, m: int,
               epsilon: float, delta: float, upsilon: float) -> EtaBounds:
    """Both closed-form thresholds on eta^2.

    necessary:  4 kappa^2 C^2 d ln(1.25 b / (m delta)) / (b m (e^eps - 1))
    sufficient: kappa^2 (8 C^2 d ln(1.25 b / (m delta))
                         (1/(m (e^eps - 1)) + 1/b)^2 + upsilon^2)
    """
    log_term = delta_log_factor(epsilon, delta, b, m)
    if not (kap >= 0 and c > 0 and d >= 1 and upsilon >= 0):
        raise CalibrationError("need kappa >= 0, C > 0, d >= 1, upsilon >= 0")
    e_term = math.expm1(epsilon)
    necessary = 4.0 * kap * kap * c * c * d * log_term / (b * m * e_term)
    sufficient = kap * kap * (
        8.0 * c * c * d * log_term * (1.0 / (m * e_term) + 1.0 / b) ** 2
        + upsilon * upsilon)
    return EtaBounds(necessary, sufficient)


# ------------------------------------------------------------- convergence

def sigma_total(upsilon: float, d: int, s: float, c: float) -> float:
    """sqrt(upsilon^2 + d s^2 + C^2), the second-moment constant of a submission."""
    if upsilon < 0 or s < 0 or d < 1 or not c > 0:
        raise ContractViolationError("need upsilon, s >= 0, d >= 1, C > 0")
    return math.sqrt(upsilon * upsilon + d * s * s + c * c)


def convergence_bound(eta_sq: float, steps: int, alpha: float, mu: float,
                      sigma: float, smoothness: float, q_init: float,
                      q_star: float) -> float:
    """max(eta^2, (Q1 - Q*)/((1 - sin a) sqrt(T))
               + mu sigma^2 L (1 + ln T) / (2 (1 - sin a) sqrt(T))).

    Holds for the gamma_t = 1/sqrt(t) schedule; alpha and mu are the
    resilience constants of the aggregation rule and are caller-supplied.
    """
    if not 0 <= alpha < math.pi / 2:
        raise ContractViolationError("alpha must lie in [0, pi/2)")
    if mu < 0 or eta_sq < 0:
        raise ContractViolationError("mu and eta^2 must be nonnegative")
    if steps < 1:
        raise ContractViolationError("steps must be >= 1")
    if not smoothness > 0:
        raise ContractViolationError("smoothness constant must be positive")
    if q_init < q_star:
        raise ContractViolationError("initial loss cannot be below the minimum loss")
    denom = 1.0 - math.sin(alpha)
    sqrt_t = math.sqrt(steps)
    tail = ((q_init - q_star) / (denom * sqrt_t)
            + mu * sigma * sigma * smoothness * (1.0 + math.log(steps))
            / (2.0 * denom * sqrt_t))
    return max(eta_sq, tail)
