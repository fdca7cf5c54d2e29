"""Aggregation rules, constants, and the brute-force cross-checks."""

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from byzdp import ConfigurationError, ContractViolationError, GarSpec, aggregate, kappa
from byzdp.aggregation import RULES, _krum_scores, _mean_rows, _pairwise_sq_dists
from oracles import mda_bruteforce, mda_enumerate


def vecs(*scalars):
    return [np.array([float(v)]) for v in scalars]


def random_instance(rng, n, d):
    return rng.normal(0, 1, (n, d))


# ----------------------------------------------------------------- kappa

def test_kappa_closed_forms_against_independent_evaluation():
    # each closed form rewritten from scratch here
    n, f = 15, 3
    krum_ref = math.sqrt(2 * (n - f + (f * (n - f - 2) + f**2 * (n - f - 1)) / (n - 2 * f - 2)))
    assert kappa(GarSpec("krum", 15, 3)) == pytest.approx(krum_ref, rel=1e-9)
    assert kappa(GarSpec("bulyan", 15, 3)) == pytest.approx(krum_ref, rel=1e-9)
    assert kappa(GarSpec("mda", 15, 3)) == pytest.approx(math.sqrt(8) * 3 / 12, rel=1e-9)
    assert kappa(GarSpec("median", 15, 6)) == pytest.approx(math.sqrt(9), rel=1e-9)


def test_kappa_reference_values():
    assert kappa(GarSpec("mda", 15, 3)) == pytest.approx(0.7071068, abs=1e-6)
    assert kappa(GarSpec("median", 15, 6)) == 3.0
    assert kappa(GarSpec("krum", 15, 3)) == pytest.approx(7.8011, abs=1e-3)


def test_kappa_ordering_at_15_3():
    mda = kappa(GarSpec("mda", 15, 3))
    med = kappa(GarSpec("median", 15, 3))
    kru = kappa(GarSpec("krum", 15, 3))
    bul = kappa(GarSpec("bulyan", 15, 3))
    assert mda < med < kru
    assert kru == bul
    assert med == pytest.approx(math.sqrt(12), rel=1e-12)


def test_kappa_undefined_for_average():
    with pytest.raises(ConfigurationError, match="average"):
        kappa(GarSpec("average", 15, 0))


# ------------------------------------------------------------- constraints

def test_gar_spec_constraints():
    with pytest.raises(ConfigurationError):
        GarSpec("krum", 4, 1)  # needs n >= 5
    with pytest.raises(ConfigurationError, match="4f\\+3"):
        GarSpec("bulyan", 15, 6)
    with pytest.raises(ConfigurationError):
        GarSpec("average", 15, 3)
    with pytest.raises(ConfigurationError):
        GarSpec("median", 2, 1)
    with pytest.raises(ConfigurationError):
        GarSpec("trimmed_mean", 5, 1)
    # n and f are integers; GarSpec("median", 5.0, 1) was once accepted
    for n, f in ((5.0, 1), (5, 1.0), (5, 1.5), (True, 0), (5, False)):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            GarSpec("median", n, f)
    for n, f, message in ((0, 0, "need n >= 1, got 0"), (5, -1, "need 0 <= f <= 4, got -1"),
                          (5, 5, "need 0 <= f <= 4, got 5"), (5, 6, "need 0 <= f <= 4, got 6")):
        with pytest.raises(ConfigurationError, match=message):
            GarSpec("median", n, f)
    GarSpec("bulyan", 15, 3)
    GarSpec("krum", 5, 1)


def test_aggregate_rejects_bad_shapes():
    spec = GarSpec("median", 3, 1)
    with pytest.raises(ContractViolationError):
        aggregate(spec, vecs(1, 2))
    with pytest.raises(ContractViolationError):
        aggregate(spec, [np.array([1.0]), np.array([2.0]), np.array([3.0, 4.0])])
    for grads in (np.ones(3), np.ones((3, 2, 1))):
        with pytest.raises(ContractViolationError, match="must form an \\(n, d\\) matrix"):
            aggregate(spec, grads)


# ---------------------------------------------------------------- examples

def test_unanimity_exact_for_every_rule():
    rng = np.random.default_rng(0)
    g = rng.normal(0, 3, 7)
    stack = [g.copy() for _ in range(7)]
    for rule, f in (("average", 0), ("krum", 1), ("mda", 1), ("median", 1), ("bulyan", 1)):
        out = aggregate(GarSpec(rule, 7, f), stack)
        assert np.array_equal(out, g), rule


# ------------------------------------------------------------ input policy

@pytest.mark.filterwarnings("error")
def test_unanimous_non_finite_rows():
    # n equal rows holding inf are n non-finite rows, more than f under
    # every rule, so unanimity does not hand them back
    row = np.array([0.1, np.inf, -np.inf, 0.7])
    for rule, n, f in (("average", 3, 0), ("krum", 9, 1), ("mda", 5, 1),
                       ("median", 9, 1), ("bulyan", 9, 1)):
        with pytest.raises(ContractViolationError, match="non-finite"):
            aggregate(GarSpec(rule, n, f), np.tile(row, (n, 1)))
    with pytest.raises(ContractViolationError, match="non-finite"):
        aggregate(GarSpec("mda", 1, 0), [[-1, np.inf, .5, .5, 1]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rule", ["krum", "median", "bulyan"])
def test_one_nan_row_is_dropped_against_f(rule):
    g = np.random.default_rng(19).normal(0, 1, (11, 4))
    g[6, 2] = np.nan
    out = aggregate(GarSpec(rule, 11, 2), g)
    assert np.array_equal(out, aggregate(GarSpec(rule, 10, 1), np.delete(g, 6, 0)))


RULE_CASES = (("average", 9, 0), ("krum", 9, 2), ("mda", 9, 3), ("median", 9, 4),
              ("bulyan", 11, 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-900, -40, 17, 700, 1000])
def test_power_of_two_scaling_commutes_with_every_rule(k):
    # scaling by 2^k is exact, and distances that would overflow or underflow
    # are taken on a rescaled copy, so every comparison and every mean scale
    # with it
    rng = np.random.default_rng(29)
    for trial in range(30):
        for rule, n, f in RULE_CASES:
            d = int(rng.integers(1, 30))
            if trial % 2:
                g = rng.integers(-2, 3, (n, d)) / 4.0  # exact ties
            else:
                g = random_instance(rng, n, d)
            spec = GarSpec(rule, n, f)
            assert np.array_equal(aggregate(spec, np.ldexp(g, k)),
                                  np.ldexp(aggregate(spec, g), k)), rule


@st.composite
def policy_inputs(draw):
    rule = draw(st.sampled_from(RULES))
    f = 0 if rule == "average" else draw(st.integers(0, 2))
    low = {"average": 1, "krum": 2 * f + 3, "bulyan": 4 * f + 3}.get(rule, 2 * f + 1)
    n = draw(st.integers(low, low + 4))
    d = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([-1e300, -1.0, 0.0, 1.0, 1e300]),
                      st.floats(-1e300, 1e300))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    g = np.array(rows)
    for r in draw(st.lists(st.integers(0, n - 1), max_size=f + 1, unique=True)):
        g[r, draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return GarSpec(rule, n, f), g


@settings(max_examples=400, deadline=None)
@given(policy_inputs())
def test_every_rule_returns_a_finite_vector_or_raises(instance):
    spec, g = instance
    finite = np.isfinite(g).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d2 = _pairwise_sq_dists(g[finite])
        if spec.n - int(finite.sum()) > spec.f:
            with pytest.raises(ContractViolationError, match="non-finite"):
                aggregate(spec, g)
            return
        out = aggregate(spec, g)
    # the identity that lets mda skip symmetrising its distances
    assert np.array_equal(d2, d2.T)
    assert out.shape == (g.shape[1],)
    assert np.isfinite(out).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [20, 21, 705, 707])
@pytest.mark.parametrize("top", [1.0, 1e200])
def test_pairwise_sq_dists_symmetric_at_workload_dimensions(d, top):
    # d reaches the unrolled SIMD sums of einsum, with and without a
    # remainder, on the plain path (top 1) and the rescaled one (top 1e200)
    g = np.random.default_rng(d).normal(0, 1, (15, d))
    g[3] *= top
    d2 = _pairwise_sq_dists(g)
    assert np.array_equal(d2, d2.T)


def exact_sq_dists(g):
    """Squared distances in rational arithmetic: no overflow, no underflow."""
    rows = [[Fraction(float(x)) for x in row] for row in g]
    return [[sum((a - b) ** 2 for a, b in zip(u, v)) for v in rows] for u in rows]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [3, 21])
@pytest.mark.parametrize("forged,honest", [((1e30, 1e200), 1.0), ((1e100, 1e300), 1e-3),
                                           ((1e-290,), 2.0 ** -1000)])
def test_mixed_magnitudes_keep_honest_rows(d, forged, honest):
    # a huge forged row must not push the honest rows' distances, or those
    # to a moderate forged row, to zero; nor may tiny rows square to zero
    n = 9
    g = np.random.default_rng(d).normal(0, honest, (n, d))
    g[:len(forged)] = np.array(forged)[:, None]
    d2 = exact_sq_dists(g)

    f = 2
    scores = [sum(sorted(d2[i][j] for j in range(n) if j != i)[:n - f - 2])
              for i in range(n)]
    best = min(range(n), key=lambda i: (scores[i], i))
    assert best >= len(forged)
    assert np.array_equal(aggregate(GarSpec("krum", n, f), g), g[best])

    f = 3
    # min keeps the first of equal diameters, the lexicographically smallest set
    subset = min(combinations(range(n), n - f),
                 key=lambda s: max(d2[u][v] for u in s for v in s))
    assert min(subset) >= len(forged)
    assert np.array_equal(aggregate(GarSpec("mda", n, f), g), _mean_rows(g[list(subset)]))


def test_median_scalar_example():
    assert aggregate(GarSpec("median", 3, 1), vecs(1, 2, 100)) == pytest.approx([2.0])


def test_median_even_count_midpoint():
    assert aggregate(GarSpec("median", 4, 1), vecs(1, 2, 4, 100)) == pytest.approx([3.0])


def krum_oracle(grads, f):
    """Brute-force scores: sum of squared distances to the n-f-2 closest peers."""
    n = len(grads)
    scores = []
    for i in range(n):
        dists = sorted(float(np.linalg.norm(grads[i] - grads[j]) ** 2)
                       for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return scores


def test_krum_example_scores():
    grads = vecs(0, 0.1, 0.2, 0.3, 10)
    scores = krum_oracle(grads, 1)
    assert scores == pytest.approx([0.05, 0.02, 0.02, 0.05, 190.13], abs=1e-9)
    # in binary floating point the 0.02 pair is not an exact tie: the score
    # of index 2 is smaller by ~1e-18, so the minimum is unambiguous
    expected = grads[int(np.argmin(scores))]
    out = aggregate(GarSpec("krum", 5, 1), grads)
    assert np.array_equal(out, expected)


def test_krum_exact_tie_breaks_to_lower_index():
    # dyadic inputs make the two central scores identical bit for bit
    grads = vecs(0, 0.25, 0.5, 0.75, 10)
    scores = krum_oracle(grads, 1)
    assert scores[1] == scores[2]
    out = aggregate(GarSpec("krum", 5, 1), grads)
    assert np.array_equal(out, grads[1])


def test_mda_examples():
    assert aggregate(GarSpec("mda", 3, 1), vecs(0, 1, 10)) == pytest.approx([0.5])
    assert aggregate(GarSpec("mda", 4, 1), vecs(0, 0, 0, 5)) == pytest.approx([0.0])
    assert mda_bruteforce(vecs(0, 1, 10), 1) == pytest.approx([0.5])
    assert mda_bruteforce(vecs(0, 0, 0, 5), 1) == pytest.approx([0.0])


def test_bulyan_outlier_example():
    grads = vecs(0, 0, 0, 0, 0, 0, 100)
    out = aggregate(GarSpec("bulyan", 7, 1), grads)
    assert np.array_equal(out, np.array([0.0]))


def test_bulyan_never_picks_far_outlier():
    rng = np.random.default_rng(5)
    honest = rng.normal(0, 0.1, (6, 3))
    outlier = np.full((1, 3), 50.0)
    out = aggregate(GarSpec("bulyan", 7, 1), np.vstack([honest, outlier]))
    assert np.linalg.norm(out) < 1.0


# ------------------------------------------------------ oracle equivalence

def bulyan_loop(g, f):
    """Reference Bulyan with the trimmed mean taken one coordinate at a time."""
    n = g.shape[0]
    pool = list(range(n))
    chosen = []
    for _ in range(n - 2 * f - 2):
        chosen.append(pool.pop(int(np.argmin(_krum_scores(g[pool], f)))))
    sel = g[chosen]
    med = np.median(sel, axis=0)
    beta = n - 4 * f - 2
    absdiff = np.abs(sel - med[None, :])
    out = np.empty(g.shape[1])
    for j in range(g.shape[1]):
        order = np.lexsort((sel[:, j], absdiff[:, j]))
        out[j] = sel[order[:beta], j].mean()
    return out


@pytest.mark.parametrize("kind", ["random", "dyadic", "wide_trim"])
def test_bulyan_matches_loop_oracle(kind):
    rng = np.random.default_rng({"random": 11, "dyadic": 12, "wide_trim": 13}[kind])
    for _ in range(150):
        f = int(rng.integers(0, 4))
        # wide_trim keeps beta = n - 4f - 2 >= 8, where a pairwise sum differs
        # from a left-to-right one
        low = 4 * f + 10 if kind == "wide_trim" else 4 * f + 3
        n = int(rng.integers(low, low + 8))
        d = int(rng.integers(1, 40))
        if kind == "dyadic":
            # few distinct dyadic values: exact ties in distance and in value
            g = rng.integers(-4, 5, (n, d)) / 4.0
        else:
            g = random_instance(rng, n, d)
        got = aggregate(GarSpec("bulyan", n, f), g)
        assert np.array_equal(got, bulyan_loop(g, f))


def mda_instance(rng, kind):
    n = int(rng.integers(1, 17))
    f = int(rng.integers(0, min(5, (n - 1) // 2) + 1))
    d = int(rng.integers(1, 6))
    if kind == "random":
        return random_instance(rng, n, d), f
    if kind == "dyadic":
        # few distinct dyadic values: many exactly tied diameters
        return rng.integers(-2, 3, (n, d)) / 4.0, f
    if kind == "duplicates":
        distinct = random_instance(rng, max(1, n // 3), d)
        return distinct[rng.integers(0, distinct.shape[0], n)], f
    # one to f rows (one when f = 0, which must raise) with a NaN or inf
    g = rng.integers(-2, 3, (n, d)) / 2.0
    rows = rng.choice(n, int(rng.integers(1, max(f, 1) + 1)), replace=False)
    g[rows, rng.integers(0, d, rows.size)] = rng.choice([np.nan, np.inf, -np.inf], rows.size)
    return g, f


def assert_mda_matches_enumeration(g, f):
    # aggregate drops the k non-finite rows against f before the rule runs
    n = g.shape[0]
    finite = np.isfinite(g).all(axis=1)
    k = n - int(finite.sum())
    if k > f:
        with pytest.raises(ContractViolationError, match="non-finite"):
            aggregate(GarSpec("mda", n, f), g)
        return
    want = mda_enumerate(g[finite], f - k)
    assert np.array_equal(aggregate(GarSpec("mda", n, f), g), want)


@pytest.mark.parametrize("kind", ["random", "dyadic", "duplicates", "non_finite"])
def test_mda_matches_enumeration_oracle(kind):
    rng = np.random.default_rng({"random": 21, "dyadic": 22, "duplicates": 23,
                                 "non_finite": 24}[kind])
    for _ in range(150):
        assert_mda_matches_enumeration(*mda_instance(rng, kind))


@st.composite
def mda_inputs(draw):
    n = draw(st.integers(1, 12))
    f = draw(st.integers(0, min(5, (n - 1) // 2)))
    d = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1e200]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    g = np.array(rows)
    for r in draw(st.lists(st.integers(0, n - 1), max_size=f + 1, unique=True)):
        g[r, draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return g, f


@settings(max_examples=300, deadline=None)
@given(mda_inputs())
def test_mda_matches_enumeration_property(instance):
    # ties, duplicates, entries that would overflow the distances unscaled,
    # and up to f + 1 non-finite rows
    assert_mda_matches_enumeration(*instance)


def test_mda_planted_cluster_at_31_7():
    # C(31, 24) = 2.6M subsets: beyond any enumeration, exact by the search
    rng = np.random.default_rng(31)
    g = rng.normal(0, 0.01, (31, 20))
    far = [0, 4, 9, 15, 16, 22, 30]
    g[far] += 100.0 * np.eye(20)[:7]
    tight = np.setdiff1d(np.arange(31), far)
    out = aggregate(GarSpec("mda", 31, 7), g)
    assert np.array_equal(out, _mean_rows(g[tight]))


def test_mda_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        f = int(rng.integers(1, min(4, (n - 1) // 2 + 1)))
        d = int(rng.integers(1, 6))
        g = random_instance(rng, n, d)
        got = aggregate(GarSpec("mda", n, f), g)
        want = mda_bruteforce(g, f)
        assert np.array_equal(got, want)


def test_median_is_coordinate_wise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, 6))
        g = random_instance(rng, n, d)
        out = aggregate(GarSpec("median", n, 1 if n >= 3 else 0), g)
        for j in range(d):
            col = sorted(g[:, j].tolist())
            mid = (col[(n - 1) // 2] + col[n // 2]) / 2
            assert out[j] == pytest.approx(mid, rel=1e-15)


# ------------------------------------------------------------ error bounds

@st.composite
def honest_and_forged(draw, per_f=2, extra=1):
    """(f, honest rows, all n rows): at least n - f moderate honest rows and up
    to f forged rows of any floats, NaN, +-inf and 1e300 included, in any order.

    n is at least per_f f + extra, the least n the rule accepts.
    """
    f = draw(st.integers(0, 3))
    n = draw(st.integers(per_f * f + extra, per_f * f + extra + 5))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, f))
    honest = np.array(draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
                                    min_size=n - k, max_size=n - k)))
    value = st.one_of(st.sampled_from([-1e300, 1e300, np.nan, np.inf, -np.inf]), st.floats())
    forged = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=k, max_size=k))
    order = draw(st.permutations(range(n)))
    g = np.empty((n, d))
    g[order[:n - k]] = honest
    g[order[n - k:]] = np.reshape(forged, (k, d))
    return f, honest, g


@settings(max_examples=300, deadline=None)
@given(honest_and_forged())
def test_median_stays_inside_the_honest_range(instance):
    # more than half of the finite rows are honest, so both middle values of
    # each coordinate, and their mean, lie between honest values
    f, honest, g = instance
    out = aggregate(GarSpec("median", g.shape[0], f), g)
    assert np.all(honest.min(axis=0) <= out) and np.all(out <= honest.max(axis=0))


@settings(max_examples=300, deadline=None)
@given(honest_and_forged())
def test_mda_error_is_at_most_twice_the_honest_diameter(instance):
    """|R - mean(H)| <= 2 diam(H) for the mda output R and the honest rows H.

    H holds at least n - f rows and the chosen set S holds n - f, and
    n >= 2f + 1, so S and H share a row h. Any n - f rows of H have a
    diameter of at most diam(H), so diam(S) <= diam(H): R, a mean of rows
    within diam(H) of h, lies within diam(H) of h, and so does mean(H).

    The allowance covers rounding: relative error in the distances, the
    means and the norms, and the absolute resolution of the distances, whose
    squares are taken on rows shrunk by up to 2 top / limit as
    ``_pairwise_sq_dists`` shrinks them, with subnormal spacing 2^-1074.
    """
    f, honest, g = instance
    n, d = g.shape
    out = aggregate(GarSpec("mda", n, f), g)
    mean = honest.mean(axis=0)
    diam = max((float(np.linalg.norm(u - v)) for u in honest for v in honest), default=0.0)
    finite = g[np.isfinite(g).all(axis=1)]
    top = float(np.abs(finite).max())
    limit = math.sqrt(np.finfo(np.float64).max / (4 * finite.size))
    resolution = math.sqrt(d * 2.0 ** -1074) * max(1.0, 2 * top / limit)
    eps = np.finfo(np.float64).eps
    scale = float(np.abs(honest).max()) + diam
    allowance = 8 * (d + 3) * eps * diam + 4 * resolution + 4 * n * math.sqrt(d) * eps * scale
    assert float(np.linalg.norm(out - mean)) <= 2 * diam + allowance


@settings(max_examples=300, deadline=None)
@given(honest_and_forged(per_f=4, extra=3))
def test_bulyan_stays_within_the_honest_width_of_the_honest_range(instance):
    """Per coordinate, lo - w <= R <= hi + w for the honest range [lo, hi], w = hi - lo.

    After the k non-finite rows are dropped, n' = n - k rows remain with at
    most f' = f - k forged, and n' >= 4f' + 3. The selection holds
    n' - 2f' - 2 >= 2f' + 1 rows, at most f' of them forged, so more than
    half are honest and its median lies between honest values, in [lo, hi].
    It holds at least n' - 3f' - 2 >= beta = n' - 4f' - 2 honest values,
    each within w of the median, so the beta values closest to the median
    lie within w of it, and so does their mean.

    The allowance covers rounding: distances to the median tie at one
    rounding of w, and the mean of beta values rounds by a few ulps of their
    magnitude, at most max|H| + 2w.
    """
    f, honest, g = instance
    n = g.shape[0]
    out = aggregate(GarSpec("bulyan", n, f), g)
    lo, hi = honest.min(axis=0), honest.max(axis=0)
    width = hi - lo
    beta = n - 4 * f - 2 + 3 * (n - np.isfinite(g).all(axis=1).sum())
    eps = np.finfo(np.float64).eps
    allowance = 4 * (beta + 2) * eps * (np.abs(honest).max(axis=0) + 2 * width)
    assert np.all(lo - width - allowance <= out) and np.all(out <= hi + width + allowance)


@settings(max_examples=300, deadline=None)
@given(honest_and_forged(per_f=2, extra=3))
def test_krum_returns_a_submitted_row_and_targets_its_error(instance):
    # no bound is asserted on krum's error; target() steers the search toward
    # a large |R - mean(H)| / diam(H), which hypothesis reports with --hypothesis-show-statistics
    f, honest, g = instance
    out = aggregate(GarSpec("krum", g.shape[0], f), g)
    finite = g[np.isfinite(g).all(axis=1)]
    assert any(np.array_equal(out, row) for row in finite)
    diam = max((float(np.linalg.norm(u - v)) for u in honest for v in honest), default=0.0)
    if diam > 0:
        target(float(np.linalg.norm(out - honest.mean(axis=0))) / diam,
               label="krum |R - mean(H)| / diam(H)")


# ---------------------------------------------------------------- invariants

def test_permutation_invariance():
    rng = np.random.default_rng(11)
    g = random_instance(rng, 7, 4)
    perm = rng.permutation(7)
    for rule, f in (("median", 2), ("mda", 2)):
        a = aggregate(GarSpec(rule, 7, f), g)
        b = aggregate(GarSpec(rule, 7, f), g[perm])
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
    for rule, f in (("krum", 1), ("bulyan", 1)):
        a = aggregate(GarSpec(rule, 7, f), g)
        b = aggregate(GarSpec(rule, 7, f), g[perm])
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_translation_equivariance():
    rng = np.random.default_rng(13)
    g = random_instance(rng, 7, 3)
    shift = rng.normal(0, 5, 3)
    for rule, f in (("average", 0), ("median", 2), ("mda", 2)):
        base = aggregate(GarSpec(rule, 7, f), g)
        moved = aggregate(GarSpec(rule, 7, f), g + shift)
        np.testing.assert_allclose(moved, base + shift, rtol=1e-9, atol=1e-12)
    # selection rules keep their chosen index under translation
    base = aggregate(GarSpec("krum", 7, 1), g)
    moved = aggregate(GarSpec("krum", 7, 1), g + shift)
    np.testing.assert_allclose(moved, base + shift, rtol=1e-9, atol=1e-12)
    base = aggregate(GarSpec("bulyan", 7, 1), g)
    moved = aggregate(GarSpec("bulyan", 7, 1), g + shift)
    np.testing.assert_allclose(moved, base + shift, rtol=1e-9, atol=1e-12)


def test_mda_two_cluster_selection_is_exact():
    # 5 identical honest vectors and 2 forged ones: the honest subset has
    # diameter zero and its mean must be returned without rounding drift
    v = np.array([0.3123456789, -1.7, 2.25])
    forged = -0.1 * v
    g = np.vstack([np.tile(v, (5, 1)), np.tile(forged, (2, 1))])
    out = aggregate(GarSpec("mda", 7, 2), g)
    assert np.array_equal(out, v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mda_skips_a_non_finite_row(bad):
    # every subset holding row 2 has a NaN or inf diameter and must lose to
    # the finite ones; the result is a (d,) vector, not the (n, d) input
    g = np.random.default_rng(17).normal(0, 1, (7, 3))
    g[2, 1] = bad
    out = aggregate(GarSpec("mda", 7, 2), g)
    assert np.array_equal(out, mda_bruteforce(np.delete(g, 2, 0), 1))


def test_mda_rejects_more_than_f_non_finite_rows():
    g = np.random.default_rng(17).normal(0, 1, (7, 3))
    g[[0, 3, 5]] = np.nan
    with pytest.raises(ContractViolationError, match="non-finite"):
        aggregate(GarSpec("mda", 7, 2), g)


def test_mda_matches_enumeration_at_20_9():
    # C(20, 11) = 167,960 subsets, the largest instance the suite enumerates
    g = random_instance(np.random.default_rng(3), 20, 2)
    assert np.array_equal(aggregate(GarSpec("mda", 20, 9), g), mda_enumerate(g, 9))
