"""Gradient aggregation rules with their variance-to-norm constants.

Five server-side rules over n submitted vectors, at most f of them forged:

* average - plain mean, only meaningful with f = 0;
* krum    - scores each vector by the summed squared distances to its
            n - f - 2 nearest peers and returns the lowest-scoring vector;
* mda     - returns the mean of the size-(n - f) subset with the smallest
            diameter (exact, by a threshold search for the smallest
            diameter whose conflict graph has a vertex cover of at most f
            rows);
* median  - coordinate-wise median;
* bulyan  - iterated krum selection followed by a per-coordinate trimmed
            average around the coordinate-wise median of the selection.

Every rule shares one input policy: k rows holding NaN or +-inf count
against f, k > f raises ContractViolationError, and otherwise the rule runs
on the finite rows with f - k, which keeps its (n, f) constraint. Distances
that could overflow or underflow are taken on a copy rescaled down or up
by a power of two.

Tie handling is deterministic everywhere: krum and bulyan prefer the lowest
worker index among minimal scores, mda prefers the lexicographically smallest
index set among minimal diameters, and bulyan's per-coordinate selection
prefers the lower value among equally close ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, as_integer

RULES = ("average", "krum", "mda", "median", "bulyan")

_FLOAT_MAX = float(np.finfo(np.float64).max)
_SQUARE_FLOOR = 2.0 ** -511  # squares of smaller numbers are subnormal


@dataclass(frozen=True)
class GarSpec:
    """An aggregation rule together with its (n, f) configuration."""

    rule: str
    n: int
    f: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown aggregation rule '{self.rule}'")
        # stored as checked, so a numpy integer never reaches a cell's params or digest
        object.__setattr__(self, "n", as_integer("n", self.n, ConfigurationError, low=1))
        object.__setattr__(self, "f", as_integer("f", self.f, ConfigurationError, low=0,
                                                 high=self.n - 1))
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
    # a difference is at most 2 top and a krum score sums fewer than n
    # distances of d terms each, so nothing overflows while top <= limit.
    # Above it the rows shrink by the smallest power of two that fits: exact,
    # and squares stay normal for differences down to about sqrt(n d)
    # 2^-1022 top (below about sqrt(n d) 2^-1048 top they vanish). When
    # every square would be subnormal, the rows grow by the power of two that
    # brings top to at most limit (limit / top itself could overflow)
    top = float(np.abs(g).max(initial=0.0))
    limit = math.sqrt(_FLOAT_MAX / (4.0 * max(g.size, 1)))
    if top > limit:
        g = np.ldexp(g, -math.frexp(top / limit)[1])
    elif 0.0 < top < _SQUARE_FLOOR:
        g = np.ldexp(g, math.frexp(limit)[1] - math.frexp(top)[1] - 1)
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

def _conflict_masks(dist: np.ndarray, tau: float) -> list[int]:
    """Bitset of row u: the rows v with dist[u, v] > tau."""
    packed = np.packbits(dist > tau, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[u * width:(u + 1) * width], "little")
            for u in range(dist.shape[0])]


def _has_cover(adj: list[int], alive: int, k: int) -> bool:
    """Whether at most k rows of `alive` cover every conflict among `alive`.

    Bounded search tree on the row of highest degree u: either u is in the
    cover, or all of its neighbours are. Each branch spends budget, so the
    depth is at most k.
    """
    top, top_deg, twice_edges, busy = -1, 0, 0, 0
    rest = alive
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        deg = (adj[u] & alive).bit_count()
        if deg:
            busy |= low
            twice_edges += deg
            if deg > top_deg:
                top, top_deg = u, deg
        rest ^= low
    if top_deg == 0:
        return True
    if twice_edges > 2 * k * top_deg:  # one cover row covers at most top_deg edges
        return False
    # rows without a conflict never gain one, so the branches drop them
    without = busy & ~(1 << top)
    if _has_cover(adj, without, k - 1):
        return True
    return top_deg <= k and _has_cover(adj, without & ~adj[top], k - top_deg)


def _mda(g: np.ndarray, f: int) -> np.ndarray:
    """Mean of the lexicographically smallest size-(n - f) minimum-diameter subset.

    A subset has diameter <= tau exactly when the rows left out cover every
    pair with dist > tau, so the minimum diameter is the smallest
    pairwise distance tau at which at most f rows cover that conflict graph.
    The same floats decide every comparison as in the enumeration over
    subsets.
    """
    n = g.shape[0]
    size = n - f
    # einsum sums the same squares in the same order for (u, v) and (v, u),
    # so dist is symmetric, as the cover search needs
    dist = np.sqrt(_pairwise_sq_dists(g))
    # every diameter is an entry of dist (the diagonal's 0.0 for one row)
    taus = np.unique(dist)
    # each of the size rows of the best subset has size entries <= D* in
    # its row, its own 0.0 included, so D* is at least this bound
    lower = np.sort(np.sort(dist, axis=1)[:, size - 1])[size - 1]
    lo, hi = int(np.searchsorted(taus, lower)), taus.size
    alive, budget = (1 << n) - 1, f
    # the largest distance always fits, so the search sets adj, the
    # conflict graph at taus[hi]
    while lo < hi:
        mid = (lo + hi) // 2
        masks = _conflict_masks(dist, taus[mid])
        if _has_cover(masks, alive, budget):
            hi, adj = mid, masks
        else:
            lo = mid + 1
    # lexicographic tie rule: keep row i when its live neighbours can all be
    # left out and a cover of the rest still fits the budget. A row with at
    # most one live neighbour needs no search: a cover holding the row can
    # swap it for that neighbour
    kept: list[int] = []
    for i in range(n):
        bit = 1 << i
        if not alive & bit:
            continue
        nbrs = adj[i] & alive
        cost = nbrs.bit_count()
        if cost <= 1 or (cost <= budget
                         and _has_cover(adj, alive & ~nbrs & ~bit, budget - cost)):
            kept.append(i)
            if len(kept) == size:
                break
            alive &= ~nbrs
            budget -= cost
        else:
            alive &= ~bit
            budget -= 1
    return _mean_rows(g[kept])


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


def aggregate(spec: GarSpec, grads) -> np.ndarray:
    """Apply the configured rule to exactly n same-dimension vectors.

    Rows holding NaN or +-inf count against f: more than f of them raise
    ContractViolationError, and otherwise the rule runs on the finite rows.
    """
    g = _as_matrix(grads, spec.n)
    f = spec.f
    if not np.isfinite(g).all():
        finite = np.isfinite(g).all(axis=1)
        k = spec.n - int(finite.sum())
        if k > f:
            raise ContractViolationError(
                f"{k} submissions are non-finite, more than f={f}")
        g, f = g[finite], f - k
    if np.all(g == g[0]):
        return g[0].copy()
    if spec.rule == "average":
        return g.mean(axis=0)
    if spec.rule == "krum":
        return g[int(np.argmin(_krum_scores(g, f)))].copy()
    if spec.rule == "median":
        return np.median(g, axis=0)
    if spec.rule == "mda":
        return _mda(g, f)
    return _bulyan(g, f)
