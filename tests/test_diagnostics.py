"""Variance margins, the violation construction, eta bounds, convergence bound."""

import math

import numpy as np
import pytest

from byzdp import (CalibrationError, ContractViolationError, GarSpec, PrivacyParams,
                   batch_mean_variance, convergence_bound, eta_bounds,
                   find_vn_violation, full_grad, gaussian_blobs, kappa,
                   logistic_model, mlp1_model, monte_carlo_submission_variance,
                   population_variance,
                   quadratic_minimizer, quadratic_model, regression_targets,
                   sigma_total, submission_variance, vn_margin, worker_stream)
from byzdp.model import batch_grads


def random_spd(rng, d):
    a = rng.normal(0, 1, (d, d))
    return a @ a.T + 0.5 * np.eye(d)


# ----------------------------------------------------------- variance parts

def test_batch_mean_variance_below_population_variance():
    # the (m - b) / (b (m - 1)) factor never exceeds one
    rng = np.random.default_rng(10)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 40))
        model = quadratic_model(random_spd(rng, d), lam=float(rng.uniform(0, 0.5)))
        ds = regression_targets(int(rng.integers(0, 1000)), m, d)
        theta = rng.normal(0, 2, d)
        pop = population_variance(model, theta, ds)
        for b in range(1, m + 1):
            assert batch_mean_variance(model, theta, ds, b) <= pop


def test_batch_mean_variance_vanishes_at_full_batch():
    model = quadratic_model(np.eye(3))
    ds = regression_targets(1, 25, 3)
    assert batch_mean_variance(model, np.zeros(3), ds, 25) == 0.0


def mc_submission_second_moment(model, ds, theta, b, s, samples, rng):
    """Vectorized oracle: mean and standard error of |G - grad Q|^2."""
    grads = batch_grads(model, theta, ds.features, ds.labels)
    mean_grad = grads.mean(axis=0)
    picks = np.argsort(rng.random((samples, ds.m)), axis=1)[:, :b]
    batch_means = grads[picks].mean(axis=1)
    if s > 0:
        batch_means = batch_means + rng.normal(0.0, s, batch_means.shape)
    sq = ((batch_means - mean_grad) ** 2).sum(axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp1"])
def test_analytic_variance_matches_monte_carlo(kind):
    rng = np.random.default_rng(abs(hash(kind)) % 2**32)
    if kind == "quadratic":
        model = quadratic_model(np.diag([1.0, 3.0]), lam=0.1)
        ds = regression_targets(3, 40, 2)
    elif kind == "logistic":
        model = logistic_model(3, lam=1e-3)
        ds = gaussian_blobs(3, 40, 3)
    else:
        model = mlp1_model(3, 2, lam=1e-3)
        ds = gaussian_blobs(4, 40, 3)
    theta = rng.normal(0, 0.5, model.dim)
    b, s = 8, 0.05
    analytic = submission_variance(model, theta, ds, b, s)
    mc, se = mc_submission_second_moment(model, ds, theta, b, s, 100_000, rng)
    assert abs(analytic - mc) <= 3 * se


def test_library_monte_carlo_mode_agrees_with_analytic():
    model = logistic_model(4, lam=1e-3)
    ds = gaussian_blobs(7, 30, 4)
    theta = np.full(4, 0.3)
    analytic = submission_variance(model, theta, ds, b=6, s=0.1)
    mc = monte_carlo_submission_variance(model, theta, ds, b=6, s=0.1, samples=100_000,
                                         rng=worker_stream(17, 0, 1, 1))
    assert mc == pytest.approx(analytic, rel=0.02)


# ------------------------------------------------------------------ margins

def test_margin_full_batch_no_noise():
    from byzdp import Dataset
    model = quadratic_model(np.eye(2))
    ds = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, -0.5], [-0.5, 0.5]]))
    spec = GarSpec("median", 5, 2)
    away = vn_margin(model, ds, np.array([5.0, 5.0]), spec, s=0.0, b=4)
    assert away.lhs == 0.0 and away.satisfied
    # the symmetric points put the exact minimizer at zero
    at_star = vn_margin(model, ds, np.zeros(2), spec, s=0.0, b=4)
    assert at_star.rhs == 0.0
    assert not at_star.satisfied  # lhs = rhs = 0 is not a strict win


def test_margin_fails_at_minimizer_with_noise():
    model = quadratic_model(np.eye(3))
    ds = regression_targets(2, 20, 3)
    spec = GarSpec("krum", 9, 2)
    margin = vn_margin(model, ds, quadratic_minimizer(model, ds), spec, s=0.2, b=20)
    assert margin.rhs <= 1e-20
    assert margin.lhs >= kappa(spec) ** 2 * 3 * 0.04 * (1 - 1e-12)
    assert not margin.satisfied


def test_margin_requires_kappa():
    model = quadratic_model(np.eye(2))
    ds = regression_targets(0, 10, 2)
    with pytest.raises(Exception, match="average"):
        vn_margin(model, ds, np.zeros(2), GarSpec("average", 5, 0), s=0.1, b=10)


# ------------------------------------------------------- violation witness

def test_violation_witness_reference_instance():
    # identity curvature, median with n=15 f=6, s from the calibration example
    s = PrivacyParams(0.1, 1e-5, 2.0, 25, 1000).s
    model = quadratic_model(np.eye(10))
    ds = regression_targets(11, 200, 10, spread=0.3)
    witness = find_vn_violation(model, ds, GarSpec("median", 15, 6), s)
    radius = np.linalg.norm(witness.theta - quadratic_minimizer(model, ds))
    assert radius == pytest.approx(3 * math.sqrt(10) * s / 2, rel=1e-12)
    assert witness.rhs == pytest.approx(radius ** 2, rel=1e-9)
    assert witness.rhs <= 3.41
    assert witness.lhs >= 13.6
    assert not witness.satisfied
    grad_norm = np.linalg.norm(full_grad(model, witness.theta, ds))
    assert grad_norm > 0


def test_violation_witness_property():
    rng = np.random.default_rng(99)
    specs = [GarSpec("median", 15, 6), GarSpec("krum", 15, 3),
             GarSpec("mda", 15, 3), GarSpec("bulyan", 15, 3)]
    for trial in range(100):
        d = int(rng.integers(2, 6))
        model = quadratic_model(random_spd(rng, d), lam=float(rng.uniform(0, 0.2)))
        ds = regression_targets(int(rng.integers(0, 10_000)), int(rng.integers(5, 30)), d)
        spec = specs[trial % len(specs)]
        s = float(rng.uniform(0.01, 1.0))
        witness = find_vn_violation(model, ds, spec, s)
        assert not witness.satisfied
        assert witness.lhs >= witness.rhs
        assert np.linalg.norm(full_grad(model, witness.theta, ds)) > 0


def test_violation_needs_noise_and_quadratic():
    model = quadratic_model(np.eye(2))
    ds = regression_targets(0, 10, 2)
    with pytest.raises(ContractViolationError):
        find_vn_violation(model, ds, GarSpec("median", 5, 2), s=0.0)
    with pytest.raises(ContractViolationError):
        find_vn_violation(logistic_model(2), gaussian_blobs(0, 10, 2),
                          GarSpec("median", 5, 2), s=0.1)


# --------------------------------------------------------------- eta bounds

def test_eta_bounds_reference_values():
    bounds = eta_bounds(0.70710678, 2.0, 10, 25, 1000, 0.1, 1e-5, 1.0)
    assert bounds.eta_sq_necessary == pytest.approx(0.2449, abs=1e-3)
    assert bounds.eta_sq_sufficient == pytest.approx(3.656, abs=1e-2)
    # 50-digit evaluations of the same closed forms
    assert bounds.eta_sq_necessary == pytest.approx(0.24484911865486761, rel=1e-7)
    assert bounds.eta_sq_sufficient == pytest.approx(3.6558823373629236, rel=1e-7)


def test_eta_necessary_shrinks_with_population():
    small = eta_bounds(1.0, 2.0, 10, 1000, 1000, 0.1, 1e-5, 0.0)
    large = eta_bounds(1.0, 2.0, 10, 10**6, 10**6, 0.1, 1e-5, 0.0)
    assert large.eta_sq_necessary < small.eta_sq_necessary


def test_eta_ordering_on_random_tuples():
    rng = np.random.default_rng(2)
    done = 0
    while done < 1000:
        kap = float(rng.uniform(0.05, 10))
        c = float(rng.uniform(0.1, 5))
        d = int(rng.integers(1, 200))
        m = int(rng.integers(2, 100_000))
        b = int(rng.integers(1, m + 1))
        eps = float(rng.uniform(1e-4, 0.999))
        delta = float(rng.uniform(1e-8, 0.5))
        ups = float(rng.uniform(0, 3))
        if not 1.25 * b / (m * delta) > 1:
            continue
        bounds = eta_bounds(kap, c, d, b, m, eps, delta, ups)
        assert bounds.eta_sq_necessary <= bounds.eta_sq_sufficient
        done += 1


def test_eta_bounds_increase_with_kappa():
    k_mda = kappa(GarSpec("mda", 15, 3))
    k_med = kappa(GarSpec("median", 15, 3))
    k_kru = kappa(GarSpec("krum", 15, 3))
    prev = None
    for kap in (k_mda, k_med, k_kru):
        bounds = eta_bounds(kap, 2.0, 10, 25, 1000, 0.1, 1e-5, 1.0)
        if prev is not None:
            assert bounds.eta_sq_necessary > prev.eta_sq_necessary
            assert bounds.eta_sq_sufficient > prev.eta_sq_sufficient
        prev = bounds


def test_eta_sufficient_decreases_with_batch_size_on_reference_grid():
    grid = [25, 50, 150, 300, 500, 750, 1000, 1250, 1500]
    for m in (1000, 10_000):
        for eps in (0.05, 0.1, 0.2):
            values = [eta_bounds(1.0, 2.0, 10, b, m, eps, 1e-5, 1.0).eta_sq_sufficient
                      for b in grid if b <= m]
            assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_eta_bounds_precondition_errors():
    with pytest.raises(CalibrationError, match="epsilon"):
        eta_bounds(1.0, 2.0, 10, 25, 1000, 1.5, 1e-5, 1.0)
    with pytest.raises(CalibrationError, match="1.25"):
        eta_bounds(1.0, 2.0, 10, 1, 1000, 0.1, 0.9, 1.0)
    with pytest.raises(CalibrationError, match="b"):
        eta_bounds(1.0, 2.0, 10, 2000, 1000, 0.1, 1e-5, 1.0)


# ------------------------------------------------------------- convergence

def test_convergence_bound_reference_value():
    got = convergence_bound(0.0, 100, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert got == pytest.approx(0.3803, abs=1e-4)
    assert got == pytest.approx(0.1 + (1 + math.log(100)) / 20, rel=1e-12)


def test_convergence_bound_tail_vanishes():
    got = convergence_bound(0.25, 10**12, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert got == 0.25


def test_convergence_bound_monotone_in_steps():
    steps = list(range(8, 1001)) + [int(t) for t in np.logspace(3, 6, 40)]
    values = [convergence_bound(0.0, t, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
              for t in steps]
    assert all(later <= earlier * (1 + 1e-12)
               for earlier, later in zip(values, values[1:]))


def test_convergence_bound_preconditions():
    with pytest.raises(ContractViolationError):
        convergence_bound(0.0, 10, math.pi / 2, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ContractViolationError):
        convergence_bound(0.0, 10, 0.0, -1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ContractViolationError):
        convergence_bound(0.0, 10, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def test_sigma_total_values():
    assert sigma_total(1.0, 10, 0.389, 2.0) == pytest.approx(2.552, abs=1e-3)
    assert sigma_total(0.0, 7, 0.0, 2.0) == 2.0
    assert sigma_total(3.0, 10, 0.0, 4.0) == pytest.approx(5.0, rel=1e-15)
