"""Forged-gradient behaviors."""

import math

import numpy as np
import pytest

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
