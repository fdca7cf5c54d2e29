"""Reference mda implementations that the exact cover search is checked against.

Both enumerate every size-(n - f) subset in lexicographic order and keep the
first of the smallest diameters, the lexicographically smallest index set.
``mda_bruteforce`` shares no code with ``byzdp.aggregation``: its distances
are ``np.linalg.norm`` of row differences, taken in nested loops.
``mda_enumerate`` uses the library's own distance matrix and mean, so it
checks the search alone, on inputs whose distances would overflow too.
"""

import math
from itertools import combinations, islice

import numpy as np

from byzdp.aggregation import _mean_rows, _pairwise_sq_dists


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
        i = int(np.argmin(diams))
        # strict < keeps the first minimum, the lexicographically smallest set
        if diams[i] < best_diam:
            best_diam = float(diams[i])
            best_subset = block[i]
    return _mean_rows(g[best_subset])
