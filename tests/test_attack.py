"""Forged-gradient behaviors."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from byzdp import AttackSpec, ConfigurationError, ContractViolationError, forge


def test_attack_spec_defaults():
    assert AttackSpec("little").zeta == 1.0
    assert AttackSpec("empire").zeta == 1.1
    assert AttackSpec("none").zeta == 0.0
    assert AttackSpec("little", 2.5).zeta == 2.5
    # the none kind takes any zeta: a sweep cell passes it the base config's
    assert AttackSpec("none", 3.0).zeta == 3.0
    for zeta in (-0.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="zeta must be nonnegative and finite"):
            AttackSpec("little", zeta)
    with pytest.raises(ConfigurationError):
        AttackSpec("signflip")


def test_little_hand_value():
    # honest {1, 2, 3}: mean 2, population std sqrt(2/3)
    out = forge(AttackSpec("little", 1.0), [np.array([1.0]), np.array([2.0]), np.array([3.0])])
    assert out[0] == pytest.approx(2.0 - math.sqrt(2.0 / 3.0), abs=1e-12)
    assert out[0] == pytest.approx(1.1835034, abs=1e-4)


def test_empire_scales_the_mean():
    honest = [np.array([2.0, 4.0]), np.array([4.0, 0.0])]
    out = forge(AttackSpec("empire", 1.1), honest)
    np.testing.assert_allclose(out, -0.1 * np.array([3.0, 2.0]), rtol=1e-12)


def test_degenerate_zetas():
    honest = [np.array([1.5, -2.0]), np.array([0.5, 2.0])]
    assert np.array_equal(forge(AttackSpec("empire", 1.0), honest), np.zeros(2))
    gbar = np.mean(honest, axis=0)
    assert np.array_equal(forge(AttackSpec("little", 0.0), honest), gbar)


def test_little_with_identical_honest_returns_mean():
    v = np.array([2.5, -1.0, 0.5])  # small dyadic mantissas keep the mean exact
    honest = [v.copy() for _ in range(3)]
    for zeta in (0.5, 1.0, 7.0):
        assert np.array_equal(forge(AttackSpec("little", zeta), honest), v)


def test_none_returns_mean():
    rng = np.random.default_rng(1)
    honest = rng.normal(0, 1, (5, 4))
    assert np.array_equal(forge(AttackSpec("none"), honest), honest.mean(axis=0))


def test_forge_permutation_invariant():
    rng = np.random.default_rng(2)
    honest = rng.normal(0, 1, (6, 3))
    perm = rng.permutation(6)
    for kind in ("little", "empire", "none"):
        a = forge(AttackSpec(kind), honest)
        b = forge(AttackSpec(kind), honest[perm])
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_forge_rejects_empty():
    with pytest.raises(ContractViolationError):
        forge(AttackSpec("little"), np.empty((0, 3)))


def forged_exactly(kind, zeta, g):
    """The attack formula in 200-bit arithmetic, whose exponent cannot overflow."""
    with mpmath.workprec(200):
        out = []
        for column in g.T:
            xs = [mpmath.mpf(float(x)) for x in column]
            mean = mpmath.fsum(xs) / len(xs)
            std = mpmath.sqrt(mpmath.fsum((x - mean) ** 2 for x in xs) / len(xs))
            out.append({"none": mean, "little": mean - zeta * std,
                        "empire": (1 - mpmath.mpf(zeta)) * mean}[kind])
        return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["none", "little", "empire"])
def test_rows_near_the_float_maximum_forge_a_finite_vector(kind):
    # a plain mean of these rows overflowed to inf, and the std to nan
    rng = np.random.default_rng(1)
    g = (1.5e308 + rng.uniform(-1e306, 1e306, size=(15, 4)))[:12]
    spec = AttackSpec(kind)
    out = forge(spec, g)
    assert np.isfinite(out).all()
    want = forged_exactly(kind, spec.zeta, g)
    np.testing.assert_allclose(out, [float(x) for x in want], rtol=1e-12)


@st.composite
def extreme_honest(draw):
    k, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([-1.7e308, -1e308, -1.0, 0.0, 5e-324, 1.5e308, 1.7e308]),
                      st.floats(-1.7e308, 1.7e308))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=k, max_size=k))
    return draw(st.sampled_from(["none", "little", "empire"])), np.array(rows)


@settings(max_examples=300, deadline=None)
@given(extreme_honest())
def test_forge_matches_its_formula_up_to_the_float_maximum(instance):
    kind, g = instance
    spec = AttackSpec(kind)
    want = forged_exactly(kind, spec.zeta, g)
    # little can leave the float range: mean - std reaches twice the largest row entry
    assume(all(abs(x) <= np.finfo(np.float64).max / 2 for x in want))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = forge(spec, g)
    assert np.isfinite(out).all()
    # the mean and the std are each exact to a relative 1e-12 of the largest entry
    top = float(np.abs(g).max())
    for got, exact in zip(out, want):
        assert abs(mpmath.mpf(float(got)) - exact) <= 1e-12 * (1 + spec.zeta) * top
