"""The five aggregation rules side by side on a contaminated toy instance.

Twelve honest vectors cluster around the true gradient while three forged
ones sit far away; every robust rule ignores the forged cluster, whereas
plain averaging is dragged toward it.
"""

from itertools import combinations

import numpy as np

from byzdp import GarSpec, aggregate, kappa

rng = np.random.default_rng(0)
truth = np.array([1.0, -0.5, 0.25])
honest = truth + 0.05 * rng.standard_normal((12, 3))
forged = np.tile(np.array([-8.0, 6.0, -4.0]), (3, 1))
messages = np.vstack([honest, forged])

print(f"true gradient      {truth}")
print(f"honest mean        {np.round(honest.mean(axis=0), 4)}\n")

for rule, f in (("krum", 3), ("mda", 3), ("median", 3), ("bulyan", 3)):
    out = aggregate(GarSpec(rule, 15, f), messages)
    err = np.linalg.norm(out - truth)
    print(f"{rule:7s} -> {np.round(out, 4)}   |error| = {err:.4f}")

naive = aggregate(GarSpec("average", 12, 0), honest)
polluted = messages.mean(axis=0)
print(f"\naverage of honest only  {np.round(naive, 4)}")
print(f"average incl. forged    {np.round(polluted, 4)}   "
      f"(pulled {np.linalg.norm(polluted - truth):.3f} off target)")


def diameter(subset):
    return max(float(np.linalg.norm(messages[a] - messages[b]))
               for a, b in combinations(subset, 2))


# min keeps the first of equal diameters, the lexicographically smallest subset
best = min(combinations(range(15), 12), key=diameter)
print("\nexact minimum-diameter search agrees with the brute-force oracle:",
      np.array_equal(aggregate(GarSpec('mda', 15, 3), messages),
                     messages[list(best)].mean(axis=0)))

print("\nmultiplicative constants at n = 15, f = 3 "
      "(smaller tolerates more submission variance):")
for rule in ("mda", "median", "krum", "bulyan"):
    print(f"  kappa_{rule:7s} = {kappa(GarSpec(rule, 15, 3)):.4f}")
