"""How the per-step noise scale is calibrated, and what it costs over a run.

Walks the closed-form calibration for one worker: sensitivity of the batch
mean, amplification from sampling b of m points, the resulting noise scale
for several batch sizes, and the basic/advanced composition of 300 steps.
"""

import warnings

from byzdp import (PrivacyRegimeWarning, amplified_epsilon, compose, inner_epsilon,
                   noise_scale, sensitivity_mean_grad)

C, M = 2.0, 4000
EPSILON, DELTA = 0.2, 1e-5

print(f"clip bound C = {C}, dataset size m = {M}, "
      f"per-step budget ({EPSILON}, {DELTA})\n")

print("sensitivity of the clipped batch-mean gradient is 2C/b:")
for b in (16, 64, 512):
    print(f"  b = {b:4d}: delta_f = {sensitivity_mean_grad(C, b):.5f}")

print("\nsub-sampling shrinks a worker's effective budget "
      "(ln(1 + (b/m)(e^eps - 1))):")
for b in (16, 64, 512, M):
    print(f"  b = {b:4d}: eps' = {amplified_epsilon(EPSILON, b, M):.5f}")

print("\nnoise scale delivering the per-step budget at each batch size:")
with warnings.catch_warnings():
    warnings.simplefilter("ignore", PrivacyRegimeWarning)
    for b in (16, 64, 512, M):
        s = noise_scale(C, b, M, EPSILON, DELTA)
        print(f"  b = {b:4d}: s = {s:.5f}   (inner budget {inner_epsilon(EPSILON, b, M):.3f})")
print("small batches pay a much larger noise scale for the same budget.")

report = compose(EPSILON, DELTA, steps=300)
print(f"\nover T = {report['steps']} steps the per-worker budget composes to")
print(f"  basic:    eps = {report['basic_epsilon']:.3f}, delta = {report['basic_delta']:.2e}")
print(f"  advanced: eps = {report['advanced_epsilon']:.3f}, "
      f"delta = {report['advanced_delta']:.2e} (slack {report['delta_slack']:.0e})")
