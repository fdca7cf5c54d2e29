"""Literal reference rules that ``byzdp.aggregation`` is checked against, and
the worst-case forgeries that its error bounds are checked under.

Both mda references enumerate every size-(n - f) subset in lexicographic
order and keep the first of the smallest diameters, the lexicographically
smallest index set. ``mda_bruteforce`` shares no code with
``byzdp.aggregation``: its distances are ``np.linalg.norm`` of row
differences, taken in nested loops. ``mda_enumerate`` uses the library's own
distance matrix and mean, so it checks the search alone, on inputs whose
distances would overflow too.

``krum_oracle`` scores every row in Python loops, and ``bulyan_loop`` runs
Bulyan as written: a fresh krum pass over the rows left after each
selection, then the trimmed mean one coordinate at a time. Neither uses
library code.

``minmax_row`` and ``tailored_row`` forge one row, which the attacker sends
k times: the mean of the honest rows pushed against their spread, as far as
the honest diameter allows or as far as hurts one rule most.
"""

import math
from itertools import combinations, islice

import numpy as np

from byzdp.aggregation import _mean_rows, _pairwise_sq_dists, aggregate


def mda_bruteforce(g, f):
    """Minimum-diameter averaging of the rows of g by plain nested loops."""
    g = np.asarray(g, dtype=np.float64)
    size = g.shape[0] - f
    best_diam = math.inf
    best = None
    for subset in combinations(range(g.shape[0]), size):
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


def mda_enumerate(g, f):
    """Reference mda over all C(n, n - f) subsets of finite rows in lexicographic order."""
    n = g.shape[0]
    size = n - f
    total = math.comb(n, size)
    dist = np.sqrt(_pairwise_sq_dists(g, float(np.abs(g).max(initial=0.0))))
    best_diam = np.inf
    best_subset = None
    subset_iter = combinations(range(n), size)
    chunk = max(1, min(4096, total))
    while True:
        block = np.array(list(islice(subset_iter, chunk)), dtype=np.intp)
        if block.size == 0:
            break
        diams = dist[block[:, :, None], block[:, None, :]].max(axis=(1, 2))
        i = int(np.argmin(diams))
        # strict < keeps the first minimum, the lexicographically smallest set
        if diams[i] < best_diam:
            best_diam = float(diams[i])
            best_subset = block[i]
    return _mean_rows(g[best_subset])


def krum_oracle(grads, f):
    """Krum scores: each row's summed squared distances to its n - f - 2 nearest others.

    Each distance sums squared coordinate differences in a Python loop, which
    is exact on dyadic rows of few bits, so their ties stay exact.
    """
    rows = np.asarray(grads, dtype=np.float64).tolist()
    n = len(rows)
    scores = []
    for i in range(n):
        dists = sorted(sum((a - b) * (a - b) for a, b in zip(rows[i], rows[j]))
                       for j in range(n) if j != i)
        scores.append(sum(dists[:n - f - 2]))
    return scores


def bulyan_loop(g, f):
    """Bulyan with a fresh krum pass per selection and a per-coordinate trimmed mean."""
    n = g.shape[0]
    pool = list(range(n))
    chosen = []
    for _ in range(n - 2 * f - 2):
        scores = krum_oracle(g[pool], f)
        chosen.append(pool.pop(scores.index(min(scores))))
    sel = g[chosen]
    med = np.median(sel, axis=0)
    beta = n - 4 * f - 2
    absdiff = np.abs(sel - med[None, :])
    out = np.empty(g.shape[1])
    for j in range(g.shape[1]):
        order = np.lexsort((sel[:, j], absdiff[:, j]))
        out[j] = sel[order[:beta], j].mean()
    return out


def _push(honest):
    """(mean, p, diam): the honest mean, the unit vector -sigma / |sigma| of the
    coordinate-wise standard deviation sigma (zero where sigma is zero), and
    the honest diameter."""
    mean = honest.mean(axis=0)
    sigma = honest.std(axis=0)
    norm = float(np.linalg.norm(sigma))
    p = -sigma / norm if norm > 0 else np.zeros_like(sigma)
    diam = max((float(np.linalg.norm(u - v)) for u in honest for v in honest), default=0.0)
    return mean, p, diam


def minmax_row(honest):
    """The min-max forgery (Shejwalkar & Houmansadr, NDSS 2021): mean + gamma p.

    gamma is the largest value at which the row lies within the honest
    diameter of every honest row, found by bisection to a relative 1e-12.
    gamma = 0 always fits, since the mean lies in the honest rows' hull, and
    nothing above twice the diameter does. With sigma = 0 the row is the mean.
    """
    mean, p, diam = _push(honest)
    if not p.any():
        return mean

    def fits(gamma):
        return max(float(np.linalg.norm(mean + gamma * p - h)) for h in honest) <= diam

    lo, hi = 0.0, 2.0 * diam
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return mean + lo * p


TAILORED_GAMMAS = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


def tailored_row(spec, honest, k):
    """mean + gamma diam p, with gamma from TAILORED_GAMMAS, whose k copies after
    the honest rows move spec's aggregate farthest from the honest mean (the
    first such gamma)."""
    mean, p, diam = _push(honest)

    def error(gamma):
        row = mean + gamma * diam * p
        out = aggregate(spec, np.vstack([honest, np.tile(row, (k, 1))]))
        return float(np.linalg.norm(out - mean))

    best = max(TAILORED_GAMMAS, key=error)
    return mean + best * diam * p
