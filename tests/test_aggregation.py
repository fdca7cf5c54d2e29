"""Aggregation rules, constants, and the brute-force cross-checks."""

import math
from itertools import combinations

import numpy as np
import pytest

from byzdp import (CapacityError, ConfigurationError, ContractViolationError,
                   GarSpec, aggregate, kappa, mda_bruteforce)
from byzdp.aggregation import _krum_scores


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
    GarSpec("bulyan", 15, 3)
    GarSpec("krum", 5, 1)


def test_aggregate_rejects_bad_shapes():
    spec = GarSpec("median", 3, 1)
    with pytest.raises(ContractViolationError):
        aggregate(spec, vecs(1, 2))
    with pytest.raises(ContractViolationError):
        aggregate(spec, [np.array([1.0]), np.array([2.0]), np.array([3.0, 4.0])])


# ---------------------------------------------------------------- examples

def test_unanimity_exact_for_every_rule():
    rng = np.random.default_rng(0)
    g = rng.normal(0, 3, 7)
    stack = [g.copy() for _ in range(7)]
    for rule, f in (("average", 0), ("krum", 1), ("mda", 1), ("median", 1), ("bulyan", 1)):
        out = aggregate(GarSpec(rule, 7, f), stack)
        assert np.array_equal(out, g), rule


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
    assert mda_bruteforce(vecs(0, 1, 10), 3, 1) == pytest.approx([0.5])
    assert mda_bruteforce(vecs(0, 0, 0, 5), 4, 1) == pytest.approx([0.0])


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


def test_mda_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        f = int(rng.integers(1, min(4, (n - 1) // 2 + 1)))
        d = int(rng.integers(1, 6))
        g = random_instance(rng, n, d)
        got = aggregate(GarSpec("mda", n, f), g)
        want = mda_bruteforce(g, n, f)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mda_skips_a_non_finite_row(bad):
    # every subset holding row 2 has a NaN or inf diameter and must lose to
    # the finite ones; the result is a (d,) vector, not the (n, d) input
    g = np.random.default_rng(17).normal(0, 1, (7, 3))
    g[2, 1] = bad
    out = aggregate(GarSpec("mda", 7, 2), g)
    assert np.array_equal(out, mda_bruteforce(np.delete(g, 2, 0), 6, 1))


def test_mda_rejects_more_than_f_non_finite_rows():
    g = np.random.default_rng(17).normal(0, 1, (7, 3))
    g[[0, 3, 5]] = np.nan
    with pytest.raises(ContractViolationError, match="non-finite"):
        aggregate(GarSpec("mda", 7, 2), g)


# ------------------------------------------------------------------- caps

def test_enumeration_cap():
    rng = np.random.default_rng(3)
    g = random_instance(rng, 20, 2)
    with pytest.raises(CapacityError, match="raise the cap"):
        mda_bruteforce(g, 20, 10, cap=1000)
    with pytest.raises(CapacityError, match="raise the cap"):
        aggregate(GarSpec("mda", 20, 9), g, mda_cap=1000)
    # a raised cap succeeds
    got = aggregate(GarSpec("mda", 20, 9), g, mda_cap=200_000)
    assert got.shape == (2,)
