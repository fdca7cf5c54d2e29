"""Gradient aggregation rules with their variance-to-norm constants.

Five server-side rules over n submitted vectors, at most f of them forged:

* average - plain mean, only meaningful with f = 0;
* krum    - scores each vector by the summed squared distances to its
            n - f - 2 nearest peers and returns the lowest-scoring vector;
* mda     - returns the mean of the size-(n - f) subset with the smallest
            diameter (exact enumeration);
* median  - coordinate-wise median;
* bulyan  - iterated krum selection followed by a per-coordinate trimmed
            average around the coordinate-wise median of the selection.

Tie handling is deterministic everywhere: krum and bulyan prefer the lowest
worker index among minimal scores, mda prefers the lexicographically smallest
index set among minimal diameters, and bulyan's per-coordinate selection
prefers the lower value among equally close ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import CapacityError, ConfigurationError, ContractViolationError

RULES = ("average", "krum", "mda", "median", "bulyan")

MDA_SUBSET_CAP = 200_000


@dataclass(frozen=True)
class GarSpec:
    """An aggregation rule together with its (n, f) configuration."""

    rule: str
    n: int
    f: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown aggregation rule '{self.rule}'")
        if self.n < 1 or self.f < 0 or self.f >= self.n:
            raise ConfigurationError(f"need n >= 1 and 0 <= f < n, got n={self.n}, f={self.f}")
        if self.rule == "average" and self.f != 0:
            raise ConfigurationError("average tolerates no forged vectors: f = 0 required")
        if self.rule == "krum" and self.n < 2 * self.f + 3:
            raise ConfigurationError(f"krum needs n >= 2f+3, got n={self.n}, f={self.f}")
        if self.rule == "bulyan" and self.n < 4 * self.f + 3:
            raise ConfigurationError(f"bulyan needs n >= 4f+3, got n={self.n}, f={self.f}")
        if self.rule in ("mda", "median") and self.n < 2 * self.f + 1:
            raise ConfigurationError(f"{self.rule} needs n >= 2f+1, got n={self.n}, f={self.f}")


def _kappa_krum(n: int, f: int) -> float:
    return math.sqrt(2.0 * (n - f + (f * (n - f - 2) + f * f * (n - f - 1)) / (n - 2 * f - 2)))


def kappa(spec: GarSpec) -> float:
    """Closed-form constant of the rule in the variance-to-norm condition.

    Undefined for plain averaging.
    """
    n, f = spec.n, spec.f
    if spec.rule == "average":
        raise ConfigurationError("no kappa constant defined for the average rule")
    if spec.rule in ("krum", "bulyan"):
        return _kappa_krum(n, f)
    if spec.rule == "mda":
        return math.sqrt(8.0) * f / (n - f)
    return math.sqrt(n - f)


# ------------------------------------------------------------------ helpers

def _as_matrix(grads, n: int) -> np.ndarray:
    try:
        g = np.asarray(grads, dtype=np.float64)
    except ValueError as exc:
        raise ContractViolationError(f"gradients must share one dimension: {exc}") from exc
    if g.ndim != 2:
        raise ContractViolationError("gradients must form an (n, d) matrix")
    if g.shape[0] != n:
        raise ContractViolationError(f"expected {n} gradients, got {g.shape[0]}")
    return g


def _mean_rows(rows: np.ndarray) -> np.ndarray:
    # The mean of identical vectors is that vector; summing k copies and
    # dividing can drift by an ulp, so unanimous inputs short-circuit. This
    # keeps unanimity exact, which downstream bit-reproducibility relies on.
    if np.all(rows == rows[0]):
        return rows[0].copy()
    return rows.mean(axis=0)


def _pairwise_sq_dists(g: np.ndarray) -> np.ndarray:
    diff = g[:, None, :] - g[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _masked_sq_dists(g: np.ndarray) -> np.ndarray:
    d2 = _pairwise_sq_dists(g)
    np.fill_diagonal(d2, np.inf)
    return d2


def _nearest_sums(d2: np.ndarray, f: int) -> np.ndarray:
    """Row sums of the n - f - 2 smallest entries of d2, sorted in place."""
    d2.sort(axis=1)
    return d2[:, :d2.shape[0] - f - 2].sum(axis=1)


def _krum_scores(g: np.ndarray, f: int) -> np.ndarray:
    """Summed squared distances to the n - f - 2 nearest other vectors."""
    return _nearest_sums(_masked_sq_dists(g), f)


# -------------------------------------------------------------------- rules

def _krum(g: np.ndarray, f: int) -> np.ndarray:
    scores = _krum_scores(g, f)
    return g[int(np.argmin(scores))].copy()


def _median(g: np.ndarray) -> np.ndarray:
    return np.median(g, axis=0)


def _mda(g: np.ndarray, f: int, cap: int) -> np.ndarray:
    n = g.shape[0]
    size = n - f
    total = math.comb(n, size)
    if total > cap:
        raise CapacityError(
            f"mda would enumerate {total} subsets, above the cap of {cap}; raise the cap")
    dist = np.sqrt(_pairwise_sq_dists(g))
    best_diam = np.inf
    best_subset = None
    subset_iter = combinations(range(n), size)
    chunk = max(1, min(4096, total))
    while True:
        block = np.array(list(islice(subset_iter, chunk)), dtype=np.intp)
        if block.size == 0:
            break
        diams = dist[block[:, :, None], block[:, None, :]].max(axis=(1, 2))
        # a subset holding a non-finite vector has a NaN or inf diameter;
        # NaN would win argmin and then lose the < test below, so rank it last
        diams[~np.isfinite(diams)] = np.inf
        i = int(np.argmin(diams))
        # strict < keeps the first minimum, i.e. the lexicographically
        # smallest index set, since combinations enumerate in lex order
        if diams[i] < best_diam:
            best_diam = float(diams[i])
            best_subset = block[i]
    if best_subset is None:
        raise ContractViolationError(
            f"mda found no {size} vectors with a finite diameter; "
            f"more than f={f} submissions are non-finite")
    return _mean_rows(g[best_subset])


def _bulyan(g: np.ndarray, f: int) -> np.ndarray:
    n = g.shape[0]
    d2 = _masked_sq_dists(g)
    pool = list(range(n))
    chosen: list[int] = []
    for _ in range(n - 2 * f - 2):
        # the krum scores of the pool, from one distance matrix for all passes
        scores = _nearest_sums(d2[np.ix_(pool, pool)], f)
        j = int(np.argmin(scores))
        chosen.append(pool.pop(j))
    sel = g[chosen]
    med = np.median(sel, axis=0)
    beta = n - 4 * f - 2
    absdiff = np.abs(sel - med[None, :])
    order = np.lexsort((sel, absdiff), axis=0)[:beta]
    vals = np.take_along_axis(sel, order, axis=0)
    # one contiguous row per coordinate keeps the summation order of a 1-D mean
    return np.ascontiguousarray(vals.T).mean(axis=1)


def aggregate(spec: GarSpec, grads, mda_cap: int = MDA_SUBSET_CAP) -> np.ndarray:
    """Apply the configured rule to exactly n same-dimension vectors."""
    g = _as_matrix(grads, spec.n)
    if np.all(g == g[0]):
        return g[0].copy()  # unanimity is exact for every rule
    if spec.rule == "average":
        return _mean_rows(g)
    if spec.rule == "krum":
        return _krum(g, spec.f)
    if spec.rule == "median":
        return _median(g)
    if spec.rule == "mda":
        return _mda(g, spec.f, mda_cap)
    return _bulyan(g, spec.f)


# ------------------------------------------------------------------ oracles

def mda_bruteforce(grads, n: int, f: int, cap: int = MDA_SUBSET_CAP) -> np.ndarray:
    """Reference minimum-diameter averaging by plain nested loops.

    Kept independent of aggregate() so the two can cross-check each other.
    Diameter ties resolve to the lexicographically smallest index set.
    """
    g = _as_matrix(grads, n)
    size = n - f
    if size < 1:
        raise ContractViolationError("need n - f >= 1")
    total = math.comb(n, size)
    if total > cap:
        raise CapacityError(
            f"mda would enumerate {total} subsets, above the cap of {cap}; raise the cap")
    best_diam = math.inf
    best: tuple[int, ...] | None = None
    for subset in combinations(range(n), size):
        diam = 0.0
        for a in range(size):
            for b in range(a + 1, size):
                dval = float(np.linalg.norm(g[subset[a]] - g[subset[b]]))
                if dval > diam:
                    diam = dval
        if diam < best_diam:
            best_diam = diam
            best = subset
    return g[list(best)].mean(axis=0)
