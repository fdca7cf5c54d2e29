"""Noise calibration, amplification, composition.

High-precision reference values are frozen from a 50-digit mpmath evaluation
of the same closed forms (recomputed below where cheap).
"""

import dataclasses
import json
import math
import pickle
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzdp import (CalibrationError, ConfigurationError,
                   ContractViolationError, PrivacyParams, PrivacyRegimeWarning,
                   amplified_epsilon, compose, eta_bounds, gaussian_noise,
                   inner_epsilon, noise_scale, sensitivity_mean_grad, worker_stream)
from byzdp.privacy import checked_budget

mp.mp.dps = 50


def mp_noise_scale(c, b, m, eps, delta):
    c, b, m, eps, delta = map(mp.mpf, (c, b, m, eps, delta))
    eps_inner = mp.log((mp.e ** eps - 1) * m / b + 1)
    return (2 * c / (b * eps_inner)) * mp.sqrt(2 * mp.log(mp.mpf("1.25") * b / (m * delta)))


# ------------------------------------------------------------- sensitivity

def test_sensitivity_values():
    assert sensitivity_mean_grad(2.0, 25) == pytest.approx(0.16, abs=1e-15)
    assert sensitivity_mean_grad(1.0, 1) == 2.0
    assert sensitivity_mean_grad(3.0, 50) == pytest.approx(sensitivity_mean_grad(3.0, 25) / 2)


@pytest.mark.parametrize("c, b, message", [
    (0.0, 5, "clip bound must be positive"), (-1.0, 5, "clip bound must be positive"),
    (math.nan, 5, "clip bound must be positive"),
    # the id is the one this case had when it matched an older message
    pytest.param(1.0, 0, "need b >= 1, got 0", id="1.0-0-batch size must be >= 1"),
])
def test_sensitivity_precondition_errors(c, b, message):
    with pytest.raises(ContractViolationError, match=message):
        sensitivity_mean_grad(c, b)


# ------------------------------------------------------------ amplification

@pytest.mark.parametrize("amplification", [amplified_epsilon, inner_epsilon])
@pytest.mark.parametrize("epsilon, b, m, message", [
    (0.0, 5, 10, "epsilon must be positive"), (-0.1, 5, 10, "epsilon must be positive"),
    (math.nan, 5, 10, "epsilon must be positive"),
    # the ids are the ones these cases had when they matched an older message
    pytest.param(0.1, 0, 10, "need 1 <= b <= 10, got 0", id="0.1-0-10-need 1 <= b <= m"),
    pytest.param(0.1, 11, 10, "need 1 <= b <= 10, got 11", id="0.1-11-10-need 1 <= b <= m"),
])
def test_amplification_maps_share_one_domain(amplification, epsilon, b, m, message):
    with pytest.raises(ContractViolationError, match=message):
        amplification(epsilon, b, m)


def test_amplified_epsilon_identity_at_full_batch():
    assert amplified_epsilon(0.2, 1000, 1000) == pytest.approx(0.2, rel=1e-15)


def test_amplified_epsilon_reference_value():
    # ln(1 + 0.025 (e^0.1 - 1)) evaluated at 50 digits
    reference = float(mp.log(1 + mp.mpf("0.025") * (mp.e ** mp.mpf("0.1") - 1)))
    got = amplified_epsilon(0.1, 25, 1000)
    assert got == pytest.approx(reference, abs=1e-7)
    assert got == pytest.approx(0.0026258224606289752, rel=1e-12)


def test_amplified_epsilon_small_epsilon_limit():
    assert amplified_epsilon(1e-12, 5, 1000) < 1e-13


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, 5.0), st.integers(1, 500), st.integers(0, 500))
def test_amplification_never_exceeds_epsilon(eps, b, extra):
    m = b + extra
    amp = amplified_epsilon(eps, b, m)
    assert amp <= eps * (1 + 1e-12)
    if b < m:
        assert amp < eps
    assert inner_epsilon(amp, b, m) == pytest.approx(eps, rel=1e-9)


# -------------------------------------------------------------- noise scale

def test_noise_scale_reference_value():
    with pytest.warns(PrivacyRegimeWarning):
        got = noise_scale(2.0, 25, 1000, 0.1, 1e-5)
    assert got == pytest.approx(0.38903, abs=1e-4)
    assert got == pytest.approx(float(mp_noise_scale(2, 25, 1000, "0.1", "1e-5")), rel=1e-12)


def test_noise_scale_full_batch_reduces_to_plain_gaussian_mechanism():
    c, m, eps, delta = 2.0, 1000, 0.5, 1e-5
    got = noise_scale(c, m, m, eps, delta)
    plain = (2 * c / (m * eps)) * math.sqrt(2 * math.log(1.25 / delta))
    assert got == pytest.approx(plain, rel=1e-12)


def test_noise_scale_decreasing_in_delta():
    with pytest.warns(PrivacyRegimeWarning):
        tight = noise_scale(2.0, 25, 1000, 0.1, 1e-5)
        loose = noise_scale(2.0, 25, 1000, 0.1, 1e-4)
    assert loose < tight


def test_noise_scale_matches_inner_gaussian_budget():
    # substituting s back into the plain mechanism at the inner budget
    # (eps', m delta / b) must hold with equality
    c, b, m, eps, delta = 2.0, 25, 1000, 0.1, 1e-5
    with pytest.warns(PrivacyRegimeWarning):
        s = noise_scale(c, b, m, eps, delta)
    eps_inner = inner_epsilon(eps, b, m)
    delta_inner = (m / b) * delta
    rhs = (sensitivity_mean_grad(c, b) / eps_inner) * math.sqrt(2 * math.log(1.25 / delta_inner))
    assert s == pytest.approx(rhs, rel=1e-12)


def test_noise_scale_warning_only_outside_unit_inner_budget():
    with pytest.warns(PrivacyRegimeWarning):
        noise_scale(2.0, 25, 1000, 0.1, 1e-5)  # inner budget 1.65
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        noise_scale(2.0, 1000, 1000, 0.5, 1e-5)  # inner budget = 0.5


def test_noise_scale_precondition_errors():
    with pytest.raises(CalibrationError, match="epsilon"):
        noise_scale(2.0, 25, 1000, 1.2, 1e-5)
    with pytest.raises(CalibrationError, match="delta"):
        noise_scale(2.0, 25, 1000, 0.1, 1.5)
    with pytest.raises(CalibrationError, match="b"):
        noise_scale(2.0, 2000, 1000, 0.1, 1e-5)
    with pytest.raises(CalibrationError, match="1.25"):
        noise_scale(2.0, 1, 1000, 0.1, 0.5)
    # an infinite clip bound once calibrated to s = inf
    for c in (0.0, math.inf, math.nan):
        with pytest.raises(CalibrationError, match="clip bound must be positive and finite"):
            noise_scale(c, 25, 1000, 0.1, 1e-5)
        with pytest.raises(CalibrationError, match="clip bound must be positive and finite"):
            PrivacyParams(0.1, 1e-5, c, 25, 1000)


def test_noise_scale_must_be_positive_and_finite():
    # a finite clip bound once calibrated to s = inf, which failed only in
    # round 1 of a run; one that underflows to s = 0 would add no noise
    for c, b, m in ((1e308, 1, 60), (5e-324, 1000, 1000)):
        with pytest.raises(CalibrationError, match=re.escape(f"the clip bound {c} is out of range")):
            PrivacyParams(0.5, 1e-4, c, b, m)


def test_checked_budget_is_the_one_budget_check():
    assert checked_budget(0.1, 1e-5, 25, 1000)[-1] == math.log(1.25 * 25 / (1000 * 1e-5))
    for eps, delta, b, m in ((1.2, 1e-5, 25, 1000), (0.1, 1.5, 25, 1000),
                             (0.1, 1e-5, 2000, 1000), (0.1, 0.5, 1, 1000),
                             (0.5, 1e-320, 10, 10)):
        with pytest.raises(CalibrationError) as direct:
            checked_budget(eps, delta, b, m)
        with pytest.raises(CalibrationError) as via_noise:
            noise_scale(2.0, b, m, eps, delta)
        with pytest.raises(CalibrationError) as via_eta:
            eta_bounds(1.0, 2.0, 10, b, m, eps, delta, 1.0)
        assert str(via_noise.value) == str(via_eta.value) == str(direct.value)


def test_a_delta_whose_log_argument_overflows_is_refused_by_name():
    # a subnormal delta once calibrated s = inf and blamed the clip bound, and
    # eta_bounds returned two infinite thresholds
    message = re.escape("delta 1e-320 is too small: 1.25 b / (m delta) overflows")
    with pytest.raises(CalibrationError, match=message):
        PrivacyParams(0.5, 1e-320, 1.0, 10, 10)
    with pytest.raises(CalibrationError, match=message):
        eta_bounds(1.0, 1.0, 3, 10, 10, 0.5, 1e-320, 0.0)


# ------------------------------------------------------------ gaussian noise

def _one_stream(rng):
    return lambda _: rng


def _position(rng):
    state = rng.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["buffer"]), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


def test_gaussian_noise_zero_scale():
    def undrawn(w):
        raise AssertionError(f"stream {w} drawn at s = 0")
    noise = gaussian_noise(3, 0.0, 4, undrawn)
    assert noise.shape == (4, 3) and not noise.any() and not np.signbit(noise).any()


def test_gaussian_noise_deterministic():
    a = gaussian_noise(8, 0.5, 1, _one_stream(worker_stream(3, 1, 2, 1)))
    b = gaussian_noise(8, 0.5, 1, _one_stream(worker_stream(3, 1, 2, 1)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("s", [5e-324, 1.5e-323, 1e-300, 0.37, 1.0, 3.5e7, 1e300])
@pytest.mark.parametrize("d,count", [(1, 1), (1, 6), (7, 1), (10, 15), (705, 3)])
def test_gaussian_noise_rows_are_the_stream_normal_draws_bit_for_bit(s, d, count):
    # row w is stream(w).normal(0.0, s, d); bit patterns are compared, since
    # -0.0 == 0.0, and s = 5e-324 makes zero products, where a missing + 0.0
    # would keep the sign of -0.0
    got_streams = [worker_stream(5, w, 9, 1) for w in range(count)]
    want_streams = [worker_stream(5, w, 9, 1) for w in range(count)]
    got = gaussian_noise(d, s, count, lambda w: got_streams[w])
    want = np.array([want_streams[w].normal(0.0, s, d) for w in range(count)])
    assert got.shape == (count, d)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [_position(g) for g in got_streams] == [_position(g) for g in want_streams]


def test_gaussian_noise_leaves_a_shared_rng_where_normal_does():
    # a generator shared by several calls, as demo 03 shares one
    got, want = worker_stream(8, 0, 0, 1), worker_stream(8, 0, 0, 1)
    for d in (1, 3, 8, 1):
        a = gaussian_noise(d, 0.7, 1, _one_stream(got))[0]
        b = want.normal(0.0, 0.7, d)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert _position(got) == _position(want)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_gaussian_noise_rejects_a_bad_scale(s):
    with pytest.raises(ContractViolationError, match="noise scale"):
        gaussian_noise(3, s, 1, _one_stream(worker_stream(0, 0, 1, 1)))


@pytest.mark.parametrize("d,count", [(3.0, 1), (True, 1), ("3", 1), (3, 2.0), (3, False),
                                     (0, 1), (3, 0)])
def test_gaussian_noise_rejects_a_bad_dimension_or_count(d, count):
    with pytest.raises(ContractViolationError):
        gaussian_noise(d, 0.5, count, _one_stream(worker_stream(0, 0, 1, 1)))


def test_gaussian_noise_takes_numpy_integers():
    noise = gaussian_noise(np.int64(3), 0.5, np.int32(2), lambda w: worker_stream(0, w, 1, 1))
    assert noise.shape == (2, 3)


def test_gaussian_noise_moments():
    rng = worker_stream(42, 0, 1, 1)
    draws = gaussian_noise(10_000, 1.0, 100, _one_stream(rng)).ravel()
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 1.0) <= 0.01


def test_gaussian_noise_mean_squared_norm():
    # E|y|^2 = d s^2
    rng = worker_stream(43, 0, 1, 1)
    d, s, draws = 10, 0.5, 100_000
    y = gaussian_noise(d, s, draws, _one_stream(rng))
    assert np.einsum("ij,ij->i", y, y).mean() == pytest.approx(d * s * s, rel=0.02)


# -------------------------------------------------------------- composition

def test_compose_single_step_is_identity():
    rep = compose(0.3, 1e-6, 1)
    assert (rep["basic_epsilon"], rep["basic_delta"]) == (0.3, 1e-6)


def test_compose_reference_values():
    rep = compose(0.1, 1e-5, 300)
    assert rep["delta_slack"] == 1e-4
    # 50-digit evaluation of eps sqrt(2 T ln(1/slack)) + T eps (e^eps - 1)
    reference = float(mp.mpf("0.1") * mp.sqrt(600 * mp.log(10_000))
                      + 30 * (mp.e ** mp.mpf("0.1") - 1))
    assert rep["advanced_epsilon"] == pytest.approx(reference, rel=1e-12)
    assert rep["advanced_epsilon"] == pytest.approx(10.588971919969106, rel=1e-12)
    assert rep["advanced_delta"] == pytest.approx(3.1e-3, rel=1e-12)
    assert rep["basic_epsilon"] == pytest.approx(30.0)
    assert rep["basic_delta"] == pytest.approx(3e-3)


def test_compose_basic_linear_in_steps():
    one = compose(0.05, 1e-6, 1)["basic_epsilon"]
    for t in (2, 10, 77):
        assert compose(0.05, 1e-6, t)["basic_epsilon"] == pytest.approx(t * one, rel=1e-12)


def test_compose_report_serializes():
    # compose returns the composition entry of summary.json as it is written
    rep = compose(0.1, 1e-5, 10)
    assert sorted(rep) == ["advanced_delta", "advanced_epsilon", "basic_delta",
                           "basic_epsilon", "delta_slack", "per_step_delta",
                           "per_step_epsilon", "steps"]
    assert rep["steps"] == 10 and rep["basic_epsilon"] == pytest.approx(1.0)
    assert json.loads(json.dumps(rep)) == rep


def test_compose_rejects_bad_steps():
    with pytest.raises(ContractViolationError):
        compose(0.1, 1e-5, 0)


# ------------------------------------------------------------ privacy params

def test_privacy_params_derivations():
    p = PrivacyParams(0.1, 1e-5, 2.0, 25, 1000)
    assert p.s == pytest.approx(0.38902757511759369, rel=1e-12)
    assert p.epsilon_inner == pytest.approx(inner_epsilon(0.1, 25, 1000), rel=1e-15)


def test_privacy_params_counts_are_integers():
    # b=8.5 once calibrated to s=1.0015, b=True to 3.087 and m=40.0 to 1.026
    privacy = PrivacyParams(0.5, 1e-4, 1.5, np.int64(8), np.int64(40))
    # stored as Python numbers, as a sweep cell's params and id need them
    assert (type(privacy.b), type(privacy.m), type(privacy.s)) == (int, int, float)
    for b, m in ((8.5, 40), (True, 40), (8.0, 40), (8, 40.0)):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            PrivacyParams(0.5, 1e-4, 1.5, b, m)


def test_noise_scale_is_a_python_float():
    # a numpy b once gave a numpy s, though PrivacyParams stored float(s)
    with pytest.warns(PrivacyRegimeWarning):
        assert type(noise_scale(2.0, np.int64(25), 1000, 0.1, 1e-5)) is float


def test_privacy_params_leaves_the_warning_filters_alone(monkeypatch):
    # it once silenced noise_scale's warning inside catch_warnings, which swaps
    # the process-wide filter list and is not thread-safe
    def swap(*args, **kwargs):
        raise AssertionError("PrivacyParams swapped the warning filters")
    # undone before pytest, which swaps them too, reports the outcome
    with monkeypatch.context() as patch:
        patch.setattr(warnings, "catch_warnings", swap)
        # the suite turns warnings into errors, so an inner budget >= 1 that warned would raise
        privacy = PrivacyParams(0.1, 1e-5, 2.0, 25, 1000)
    assert privacy.epsilon_inner >= 1.0


@st.composite
def calibrations(draw):
    """(c, b, m, epsilon, delta) in the calibration's domain, clip bounds that overflow included."""
    m = draw(st.integers(1, 10_000))
    b = draw(st.integers(1, m))
    epsilon = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    delta = draw(st.floats(0.0, min(1.0, 1.25 * b / m), exclude_min=True, exclude_max=True))
    c = draw(st.floats(0.0, 1e308, exclude_min=True))
    return c, b, m, epsilon, delta


@settings(max_examples=300, deadline=None)
@given(calibrations())
def test_noise_scale_reads_privacy_params(calibration):
    c, b, m, epsilon, delta = calibration
    try:
        params = PrivacyParams(epsilon, delta, c, b, m)
    except CalibrationError as error:
        with pytest.raises(CalibrationError, match=re.escape(str(error))):
            noise_scale(c, b, m, epsilon, delta)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = noise_scale(c, b, m, epsilon, delta)
    # the closed form, term for term, from the public maps
    closed_form = ((2.0 * c / (b * inner_epsilon(epsilon, b, m)))
                   * math.sqrt(2.0 * checked_budget(epsilon, delta, b, m)[-1]))
    assert type(s) is float and s == params.s == closed_form
    assert [w.category for w in caught] == (
        [PrivacyRegimeWarning] if params.epsilon_inner >= 1.0 else [])


def test_privacy_params_rejects_stale_noise_scale():
    # s and epsilon_inner are derived, never passed in
    with pytest.raises(TypeError):
        PrivacyParams(0.1, 1e-5, 2.0, 25, 1000, s=0.5)
    with pytest.raises(TypeError):
        PrivacyParams(0.1, 1e-5, 2.0, 25, 1000, epsilon_inner=0.5)


def test_privacy_params_replace_recalibrates():
    p = dataclasses.replace(PrivacyParams(0.2, 1e-5, 2.0, 512, 4000), b=128)
    fresh = PrivacyParams(0.2, 1e-5, 2.0, 128, 4000)
    assert p == fresh
    assert p.s == fresh.s and p.epsilon_inner == fresh.epsilon_inner


def test_privacy_params_pickle_round_trip():
    p = PrivacyParams(0.2, 1e-5, 2.0, 512, 4000)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert q.s == p.s and q.epsilon_inner == p.epsilon_inner
