"""Why worker-side noise breaks the variance-to-norm check near minima.

The check requires kappa^2 Var[G(theta)] < |grad Q(theta)|^2 at every
non-critical theta. With noise the variance has a floor of d s^2, so close
enough to the minimizer the inequality must fail; find_vn_violation builds
an explicit failing point for a quadratic objective.
"""

import numpy as np

from byzdp import (GarSpec, PrivacyParams, batch_grads, find_vn_violation, full_grad,
                   gaussian_noise, kappa, quadratic_minimizer, quadratic_model,
                   regression_targets, vn_margin, worker_stream)

model = quadratic_model(np.eye(10))
data = regression_targets(11, 1000, 10, spread=0.3)
spec = GarSpec("median", 15, 6)
privacy = PrivacyParams(0.1, 1e-5, 2.0, 25, 1000)
print(f"noise scale s = {privacy.s:.5f}, kappa_median(15, 6) = 3\n")

theta_star = quadratic_minimizer(model, data)
print("margin along a ray from the minimizer (analytic variance):")
direction = np.ones(10) / np.sqrt(10)
for radius in (8.0, 4.0, 2.0, 1.0, 0.5):
    margin = vn_margin(model, data, theta_star + radius * direction, spec,
                       s=privacy.s, b=25)
    flag = "ok " if margin.satisfied else "VIOLATED"
    print(f"  radius {radius:4.1f}: lhs = {margin.lhs:8.3f}  rhs = {margin.rhs:8.3f}  {flag}")

witness = find_vn_violation(model, data, spec, privacy.s, b=data.m)
print("\nconstructed witness:")
print(f"  distance from minimizer  {np.linalg.norm(witness.theta - theta_star):.4f}")
print(f"  lhs = {witness.lhs:.3f} >= rhs = {witness.rhs:.3f}, "
      f"satisfied = {witness.satisfied}")

# E|G - grad Q|^2 over simulated submissions: a full batch drawn without
# replacement, then the noise, both from one generator
rng = worker_stream(1, 0, 1, 1)
mean_grad = full_grad(model, witness.theta, data)
samples, total = 20_000, 0.0
for _ in range(samples):
    idx = np.sort(rng.choice(data.m, size=data.m, replace=False))
    g = batch_grads(model, witness.theta, data.features[idx]).mean(axis=0)
    diff = g + gaussian_noise(model.dim, privacy.s, 1, lambda _: rng)[0] - mean_grad
    total += float(diff @ diff)
mc_var = total / samples
print(f"  monte-carlo cross-check of the variance: lhs = {kappa(spec) ** 2 * mc_var:.3f}")
