"""Every integer size the package takes follows one rule, ``errors.as_integer``.

``SIZES`` holds one row per public callable that takes an integer size, and
one for the budget rule ``privacy.checked_budget`` through its log factor
(``delta_log_factor`` below): a valid call, the exception type of its call
site, and for each size parameter the values out of its range with the
message each one gets. Every size parameter must refuse a bool, a fractional
float and an integral float with "{name} must be an integer, got {value!r}",
refuse each out-of-range value with its "need ..." message, and accept a
numpy integer. The drift guard at the end fails when a public function or
dataclass takes a parameter with a size's name that has no row here.

``REALS`` is the same table for real parameters, which follow
``errors.as_real``: the clip bound, the privacy budget, zeta, the
regularization, the momentum, the constant step size, the noise scale, the
constants of the eta and convergence bounds, and the dataset generators'
reals. None is refused too, but where it is a parameter's default it means
unset. A function that keeps no value gives the checked one back through its
result, or, where the result cannot give it back, is read against its result
at the row's valid value 0.5. Its drift guard fails when a public function or
dataclass takes a parameter with a real's name that has no row.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import byzdp
from byzdp import (AttackSpec, CalibrationError, ClipParams, ConfigurationError,
                   ContractViolationError, GarSpec, Model, PrivacyParams, RunConfig,
                   amplified_epsilon, batch_mean_variance, compose, convergence_bound,
                   eta_bounds, find_vn_violation, gaussian_blobs,
                   gaussian_noise, inner_epsilon, logistic_model, mlp1_model, noise_scale,
                   quadratic_model, regression_targets, sample_batch, sensitivity_mean_grad,
                   sigma_total, submission_variance, sweep, vn_margin, worker_stream)
from byzdp.engine import PURPOSE_BATCH
from byzdp.errors import as_real
from byzdp.privacy import checked_budget

DATA = regression_targets(0, 20, 3)
QUAD = quadratic_model(np.eye(3))
THETA = np.zeros(3)
SPEC = GarSpec("median", 5, 1)
RUN_ARGS = dict(model=QUAD, dataset=DATA, gar=GarSpec("average", 5, 0), b=5, steps=4,
                schedule="constant", gamma=0.5, eval_every=2)
BASE = RunConfig(**RUN_ARGS)


def streams(w):
    return worker_stream(0, w, 1, 1)


def delta_log_factor(epsilon, delta, b, m):
    """ln(1.25 b / (m delta)) as ``privacy.checked_budget`` checks and returns it."""
    return checked_budget(epsilon, delta, b, m)[-1]


SEED_MAX, WORKER_MAX, ROUND_MAX = 2 ** 64 - 1, 2 ** 30 - 1, 2 ** 32 - 1

# (callable, valid keyword arguments, error type, {size: ((bad value, message), ...)})
SIZES = [
    (sensitivity_mean_grad, dict(c=1.0, b=5), ContractViolationError,
     {"b": ((0, "need b >= 1, got 0"),)}),
    (amplified_epsilon, dict(epsilon=0.5, b=5, m=10), ContractViolationError,
     {"b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (inner_epsilon, dict(epsilon=0.5, b=5, m=10), ContractViolationError,
     {"b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (delta_log_factor, dict(epsilon=0.5, delta=1e-5, b=5, m=10), CalibrationError,
     {"b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (noise_scale, dict(c=1.0, b=5, m=10, epsilon=0.5, delta=1e-5), CalibrationError,
     {"b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (PrivacyParams, dict(epsilon=0.5, delta=1e-5, c=1.0, b=5, m=10), CalibrationError,
     {"b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (gaussian_noise, dict(d=3, s=1.0, count=2, stream=streams), ContractViolationError,
     {"d": ((0, "need d >= 1, got 0"),), "count": ((0, "need count >= 1, got 0"),)}),
    (compose, dict(epsilon=0.5, delta=1e-5, steps=10), ContractViolationError,
     {"steps": ((0, "need steps >= 1, got 0"),)}),
    (batch_mean_variance, dict(model=QUAD, theta=THETA, dataset=DATA, b=5),
     ContractViolationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21"))}),
    (submission_variance, dict(model=QUAD, theta=THETA, dataset=DATA, b=5, s=0.1),
     ContractViolationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21"))}),
    (vn_margin, dict(model=QUAD, dataset=DATA, theta=THETA, spec=SPEC, s=0.1, b=5),
     ContractViolationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21"))}),
    (find_vn_violation, dict(model=QUAD, dataset=DATA, spec=SPEC, s=0.1, b=5),
     ContractViolationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21"))}),
    (eta_bounds, dict(kap=1.0, c=1.0, d=3, b=5, m=10, epsilon=0.5, delta=1e-5, upsilon=0.0),
     CalibrationError,
     {"d": ((0, "need d >= 1, got 0"),),
      "b": ((0, "need 1 <= b <= 10, got 0"), (11, "need 1 <= b <= 10, got 11")),
      "m": ((0, "need m >= 1, got 0"),)}),
    (sigma_total, dict(upsilon=0.0, d=3, s=0.1, c=1.0), ContractViolationError,
     {"d": ((0, "need d >= 1, got 0"),)}),
    (convergence_bound, dict(eta_sq=0.0, steps=10, alpha=0.0, mu=1.0, sigma=1.0,
                             smoothness=1.0, q_init=1.0, q_star=0.0), ContractViolationError,
     {"steps": ((0, "need steps >= 1, got 0"),)}),
    (GarSpec, dict(rule="median", n=5, f=1), ConfigurationError,
     {"n": ((0, "need n >= 1, got 0"),),
      "f": ((-1, "need 0 <= f <= 4, got -1"), (5, "need 0 <= f <= 4, got 5"))}),
    (Model, dict(kind="mlp1", n_features=3, hidden=2), ConfigurationError,
     {"n_features": ((0, "need n_features >= 1, got 0"),),
      "hidden": ((0, "need hidden >= 1, got 0"),)}),
    (logistic_model, dict(n_features=3), ConfigurationError,
     {"n_features": ((0, "need n_features >= 1, got 0"),)}),
    (mlp1_model, dict(n_features=3, hidden=2), ConfigurationError,
     {"n_features": ((0, "need n_features >= 1, got 0"),),
      "hidden": ((0, "need hidden >= 1, got 0"),)}),
    (gaussian_blobs, dict(seed=0, m=10, dim=3), ContractViolationError,
     {"seed": ((-1, "need seed >= 0, got -1"),), "m": ((0, "need m >= 1, got 0"),),
      "dim": ((0, "need dim >= 1, got 0"),)}),
    (regression_targets, dict(seed=0, m=10, dim=3), ContractViolationError,
     {"seed": ((-1, "need seed >= 0, got -1"),), "m": ((0, "need m >= 1, got 0"),),
      "dim": ((0, "need dim >= 1, got 0"),)}),
    (sample_batch, dict(dataset=DATA, b=5, count=2, stream=streams),
     ContractViolationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21")),
      "count": ((0, "need count >= 1, got 0"),)}),
    (RunConfig, dict(model=QUAD, dataset=DATA, gar=GarSpec("average", 5, 0), b=5, steps=4,
                     schedule="constant", gamma=0.5, master_seed=1, eval_every=2),
     ConfigurationError,
     {"b": ((0, "need 1 <= b <= 20, got 0"), (21, "need 1 <= b <= 20, got 21")),
      "steps": ((0, f"need 1 <= steps <= {ROUND_MAX}, got 0"),
                (ROUND_MAX + 1, f"need 1 <= steps <= {ROUND_MAX}, got {ROUND_MAX + 1}")),
      "master_seed": ((-1, f"need 0 <= master_seed <= {SEED_MAX}, got -1"),
                      (SEED_MAX + 1,
                       f"need 0 <= master_seed <= {SEED_MAX}, got {SEED_MAX + 1}")),
      "eval_every": ((0, "need 1 <= eval_every <= 4, got 0"),
                     (5, "need 1 <= eval_every <= 4, got 5"))}),
    (worker_stream, dict(master_seed=1, worker_id=0, round_no=1, purpose=0),
     ContractViolationError,
     {"master_seed": ((-1, f"need 0 <= master_seed <= {SEED_MAX}, got -1"),
                      (SEED_MAX + 1,
                       f"need 0 <= master_seed <= {SEED_MAX}, got {SEED_MAX + 1}")),
      "worker_id": ((-1, f"need 0 <= worker_id <= {WORKER_MAX}, got -1"),
                    (WORKER_MAX + 1,
                     f"need 0 <= worker_id <= {WORKER_MAX}, got {WORKER_MAX + 1}")),
      "round_no": ((-1, f"need 0 <= round_no <= {ROUND_MAX}, got -1"),
                   (ROUND_MAX + 1, f"need 0 <= round_no <= {ROUND_MAX}, got {ROUND_MAX + 1}")),
      "purpose": ((-1, "need 0 <= purpose <= 3, got -1"), (4, "need 0 <= purpose <= 3, got 4"))}),
    (sweep, dict(base=BASE, grid={"seed": [1]}, jobs=1), ContractViolationError,
     {"jobs": ((0, "need jobs >= 1, got 0"), (-1, "need jobs >= 1, got -1"))}),
]

# parameters with a size's name that are not sizes the callable checks
NOT_SIZES = {
    # a record the engine fills in from its own loop counter; no caller builds one to ask for
    # a run, so it has no checks at all
    ("MetricsRecord", "round_no"),
}

SIZE_NAMES = {"b", "m", "d", "dim", "steps", "count", "n", "f", "hidden", "n_features",
              "master_seed", "seed", "worker_id", "round_no", "purpose", "jobs", "eval_every"}

CASES = [pytest.param(fn, kwargs, error, size, bad, id=f"{fn.__name__}-{size}")
         for fn, kwargs, error, sizes in SIZES for size, bad in sizes.items()]


def refusal(fn, kwargs, error) -> str:
    with pytest.raises(error) as info:
        fn(**kwargs)
    return str(info.value)


@pytest.mark.parametrize("fn, kwargs, error, size, bad", CASES)
def test_a_size_is_an_integer_in_its_range(fn, kwargs, error, size, bad):
    valid = kwargs[size]
    for value in (True, 2.5, float(valid)):
        assert refusal(fn, {**kwargs, size: value}, error) == (
            f"{size} must be an integer, got {value!r}")
    for value, message in bad:
        assert refusal(fn, {**kwargs, size: value}, error) == message
    fn(**{**kwargs, size: np.int64(valid)})


def test_a_purpose_past_its_two_bits_no_longer_aliases_another_key():
    # purpose 4 once drew the words of purpose 0 of the same round, and purpose 4
    # of round 1 those of purpose 0 of round 2, as it overflowed its 2 bits
    for round_no in (1, 2):
        with pytest.raises(ContractViolationError, match="need 0 <= purpose <= 3, got 4"):
            worker_stream(1, 0, round_no, 4)
    top = worker_stream(1, 0, 1, 3).integers(0, 2 ** 62, 4)
    assert not np.array_equal(top, worker_stream(1, 0, 2, 0).integers(0, 2 ** 62, 4))


def test_a_stream_key_field_is_refused_before_numpy_sees_it():
    # a fractional seed once drew seed 1's words, and a negative worker, round
    # or purpose raised numpy's OverflowError
    with pytest.raises(ContractViolationError, match="master_seed must be an integer, got 1.5"):
        worker_stream(1.5, 0, 1, PURPOSE_BATCH)
    for args in ((1, -1, 1, PURPOSE_BATCH), (1, 0, -1, PURPOSE_BATCH), (1, 0, 1, -1)):
        with pytest.raises(ContractViolationError, match="need 0 <= "):
            worker_stream(*args)
    # every field at its top still packs into the one 64-bit key word
    worker_stream(SEED_MAX, WORKER_MAX, ROUND_MAX, 3).random()


def public_parameters(names) -> set:
    """(callable, parameter) for each parameter in names of a public function or dataclass,
    and of ``delta_log_factor`` above."""
    found = set()
    callables = {name: getattr(byzdp, name) for name in byzdp.__all__}
    callables["delta_log_factor"] = delta_log_factor
    for name, obj in callables.items():
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            found |= {(name, p) for p in inspect.signature(obj).parameters if p in names}
    return found


def test_every_public_size_parameter_has_a_row():
    covered = {(fn.__name__, size) for fn, _, _, sizes in SIZES for size in sizes}
    found = public_parameters(SIZE_NAMES)
    assert sorted(found - covered - NOT_SIZES) == []
    # and no row names a parameter that is gone
    assert sorted((covered | NOT_SIZES) - found) == []


def positive(name):
    return tuple((value, f"{name} must be positive and finite, got {value!r}")
                 for value in (0.0, -1.0, math.inf, math.nan))


def nonnegative(name):
    return tuple((value, f"{name} must be nonnegative and finite, got {value!r}")
                 for value in (-1.0, math.inf, math.nan))


def unit(name):
    return tuple((value, f"{name} must be in (0, 1), got {value!r}")
                 for value in (0.0, 1.0, -1e-5, math.inf, math.nan))


class Ones:
    """A generator whose standard normal draws are all one."""

    @staticmethod
    def standard_normal(out):
        out[...] = 1.0


def finite(name):
    return tuple((value, f"{name} must be finite, got {value!r}")
                 for value in (math.inf, -math.inf, math.nan))


REGULARIZATION = tuple((value, f"regularization must be nonnegative and finite, got {value!r}")
                       for value in (-0.1, math.inf, math.nan))
ALPHA = tuple((value, f"alpha must be in [0, {math.pi / 2}), got {value!r}")
              for value in (-0.1, math.pi / 2, math.inf, math.nan))


def at_half(fn, kwargs, error, param, name, bad, read=lambda result: result):
    """The row of a function whose result cannot give ``param`` back; kwargs set it to 0.5.

    The result is read as 0.5 times itself over the result at kwargs, so a call
    at a value equal to 0.5 reads as 0.5, and as a Python float only when what
    ``read`` takes from the result is one.
    """
    assert kwargs[param] == 0.5
    return (fn, kwargs, error, param, name,
            lambda result: 0.5 * read(result) / read(fn(**kwargs)), bad)


def necessary(bounds):
    return bounds["eta_sq_necessary"]


def lhs(margin):
    return margin.lhs


def first_feature(data):
    return data.features[0, 0].item()


PRIVACY = dict(epsilon=0.5, delta=1e-5, c=1.0, b=5, m=10)
ETA = dict(kap=1.0, c=1e-200, d=1, b=5, m=10, epsilon=0.5, delta=1e-5, upsilon=1.0)
BOUND = dict(eta_sq=0.0, steps=1, alpha=0.0, mu=0.0, sigma=1.0, smoothness=1.0, q_init=0.0,
             q_star=0.0)
HALVES = dict(c=0.5, b=5, m=10, epsilon=0.5, delta=0.5)
LOG_HALVES = dict(epsilon=0.5, delta=0.5, b=5, m=10)
ETA_HALVES = dict(ETA, c=0.5, delta=0.5)
VARIANCE = dict(model=QUAD, theta=THETA, dataset=DATA, b=5, s=0.5)
MARGIN = dict(model=QUAD, dataset=DATA, theta=THETA, spec=SPEC, s=0.5, b=5)
VIOLATION = dict(model=QUAD, dataset=DATA, spec=SPEC, s=0.5, b=5)
BLOBS = dict(seed=0, m=2, dim=2, half_sep=0.5, axis_std=0.5, cross_std=0.5)
TARGETS = dict(seed=0, m=2, dim=2, spread=0.5)

# (callable, valid keyword arguments, error type, parameter, its name in messages,
# the value it gives back, ((bad value, message), ...))
REALS = [
    (ClipParams, dict(c=2.0), ConfigurationError, "c", "clip bound", lambda clip: clip.c,
     positive("clip bound")),
    (compose, dict(epsilon=0.5, delta=1e-5, steps=3), ContractViolationError, "epsilon",
     "epsilon", lambda report: report["per_step_epsilon"],
     tuple((value, f"epsilon must be positive and finite, got {value!r}")
           for value in (0.0, -0.5, math.inf, math.nan))),
    (compose, dict(epsilon=0.5, delta=1e-5, steps=3), ContractViolationError, "delta",
     "delta", lambda report: report["per_step_delta"], unit("delta")),
    (AttackSpec, dict(kind="little", zeta=2.0), ConfigurationError, "zeta", "zeta",
     lambda spec: spec.zeta,
     tuple((value, f"zeta must be nonnegative and finite, got {value!r}")
           for value in (-0.5, math.inf, -math.inf, math.nan))),
    (Model, dict(kind="logistic", lam=0.5, n_features=3), ConfigurationError, "lam",
     "regularization", lambda model: model.lam, REGULARIZATION),
    (logistic_model, dict(n_features=3, lam=0.5), ConfigurationError, "lam", "regularization",
     lambda model: model.lam, REGULARIZATION),
    (mlp1_model, dict(n_features=3, hidden=2, lam=0.5), ConfigurationError, "lam",
     "regularization", lambda model: model.lam, REGULARIZATION),
    (quadratic_model, dict(hessian=np.eye(2), lam=0.5), ConfigurationError, "lam",
     "regularization", lambda model: model.lam, REGULARIZATION),
    (RunConfig, dict(RUN_ARGS, momentum=0.5), ConfigurationError, "momentum", "momentum",
     lambda config: config.momentum,
     tuple((value, f"momentum must be in [0, 1), got {value!r}")
           for value in (1.0, -0.5, math.inf, math.nan))),
    (RunConfig, RUN_ARGS, ConfigurationError, "gamma", "gamma", lambda config: config.gamma,
     tuple((value, f"gamma must be positive and finite, got {value!r}")
           for value in (0.0, -0.5, math.inf, math.nan))),
    (sensitivity_mean_grad, dict(c=1.0, b=1), ContractViolationError, "c", "clip bound",
     lambda sensitivity: sensitivity / 2, positive("clip bound")),
    (amplified_epsilon, dict(epsilon=0.5, b=5, m=5), ContractViolationError, "epsilon",
     "epsilon", lambda epsilon: epsilon, positive("epsilon")),
    (inner_epsilon, dict(epsilon=0.5, b=5, m=5), ContractViolationError, "epsilon",
     "epsilon", lambda epsilon: epsilon, positive("epsilon")),
    (PrivacyParams, PRIVACY, CalibrationError, "epsilon", "epsilon",
     lambda privacy: privacy.epsilon, unit("epsilon")),
    (PrivacyParams, PRIVACY, CalibrationError, "delta", "delta",
     lambda privacy: privacy.delta, unit("delta")),
    (PrivacyParams, PRIVACY, CalibrationError, "c", "clip bound",
     lambda privacy: privacy.c, positive("clip bound")),
    (gaussian_noise, dict(d=1, s=0.5, count=1, stream=lambda w: Ones), ContractViolationError,
     "s", "noise scale", lambda noise: noise.item(), nonnegative("noise scale")),
    at_half(noise_scale, HALVES, CalibrationError, "c", "clip bound", positive("clip bound")),
    at_half(noise_scale, HALVES, CalibrationError, "epsilon", "epsilon", unit("epsilon")),
    at_half(noise_scale, HALVES, CalibrationError, "delta", "delta", unit("delta")),
    at_half(delta_log_factor, LOG_HALVES, CalibrationError, "epsilon", "epsilon", unit("epsilon")),
    at_half(delta_log_factor, LOG_HALVES, CalibrationError, "delta", "delta", unit("delta")),
    at_half(eta_bounds, ETA_HALVES, CalibrationError, "c", "clip bound", positive("clip bound"),
            necessary),
    at_half(eta_bounds, ETA_HALVES, CalibrationError, "epsilon", "epsilon", unit("epsilon"),
            necessary),
    at_half(eta_bounds, ETA_HALVES, CalibrationError, "delta", "delta", unit("delta"),
            necessary),
    at_half(submission_variance, VARIANCE, ContractViolationError, "s", "noise scale",
            nonnegative("noise scale")),
    at_half(vn_margin, MARGIN, ContractViolationError, "s", "noise scale",
            nonnegative("noise scale"), lhs),
    at_half(find_vn_violation, VIOLATION, ContractViolationError, "s", "noise scale",
            positive("noise scale"), lhs),
    # C^2 underflows to zero, so the sufficient threshold is kappa^2 upsilon^2
    (eta_bounds, ETA, CalibrationError, "kap", "kappa",
     lambda bounds: math.sqrt(bounds["eta_sq_sufficient"]), nonnegative("kappa")),
    (eta_bounds, ETA, CalibrationError, "upsilon", "upsilon",
     lambda bounds: math.sqrt(bounds["eta_sq_sufficient"]), nonnegative("upsilon")),
    (sigma_total, dict(upsilon=1.0, d=1, s=0.0, c=1e-200), ContractViolationError, "upsilon",
     "upsilon", lambda sigma: sigma, nonnegative("upsilon")),
    (sigma_total, dict(upsilon=0.0, d=1, s=1.0, c=1e-200), ContractViolationError, "s",
     "noise scale", lambda sigma: sigma, nonnegative("noise scale")),
    (sigma_total, dict(upsilon=0.0, d=1, s=0.0, c=1.0), ContractViolationError, "c",
     "clip bound", lambda sigma: sigma, positive("clip bound")),
    # at T = 1 and alpha = 0 the bound is max(eta^2, Q1 - Q* + mu sigma^2 L / 2)
    (convergence_bound, dict(BOUND, eta_sq=1.0), ContractViolationError, "eta_sq", "eta^2",
     lambda bound: bound, tuple((value, f"eta^2 must be nonnegative, got {value!r}")
                                for value in (-0.5, math.nan))),
    (convergence_bound, dict(BOUND, mu=1.0, smoothness=2.0), ContractViolationError, "mu",
     "mu", lambda bound: bound, nonnegative("mu")),
    (convergence_bound, dict(BOUND, mu=2.0), ContractViolationError, "sigma", "sigma",
     lambda bound: math.sqrt(bound), tuple((value, f"sigma must be nonnegative, got {value!r}")
                                           for value in (-1.0, math.nan))),
    (convergence_bound, dict(BOUND, mu=2.0), ContractViolationError, "smoothness",
     "smoothness constant", lambda bound: bound, positive("smoothness constant")),
    (convergence_bound, dict(BOUND, q_init=1.0), ContractViolationError, "q_init", "Q1",
     lambda bound: bound, ((math.nan, "Q1 must be a number, got nan"),)),
    (convergence_bound, dict(BOUND, q_init=1.0), ContractViolationError, "q_star", "Q*",
     lambda bound: 1.0 - bound, ((math.nan, "Q* must be a number, got nan"),)),
    at_half(convergence_bound, dict(BOUND, alpha=0.5, q_init=1.0), ContractViolationError,
            "alpha", "alpha", ALPHA),
    # negative deviations are taken as given
    at_half(gaussian_blobs, BLOBS, ContractViolationError, "half_sep", "half_sep",
            finite("half_sep"), first_feature),
    at_half(gaussian_blobs, BLOBS, ContractViolationError, "axis_std", "axis_std",
            finite("axis_std"), first_feature),
    at_half(gaussian_blobs, BLOBS, ContractViolationError, "cross_std", "cross_std",
            finite("cross_std"), first_feature),
    at_half(regression_targets, TARGETS, ContractViolationError, "spread", "spread",
            finite("spread"), first_feature),
]

# parameters with a real's name that are not reals the callable checks
NOT_REALS = {
    # the record the engine fills in, as NOT_SIZES says
    ("MetricsRecord", "s"), ("MetricsRecord", "gamma"),
}

REAL_NAMES = {"c", "epsilon", "delta", "s", "zeta", "lam", "momentum", "gamma", "kap",
              "upsilon", "eta_sq", "alpha", "mu", "sigma", "smoothness", "q_init", "q_star",
              "half_sep", "axis_std", "cross_std", "spread"}


@pytest.mark.parametrize("fn, kwargs, error, param, name, stored, bad", REALS,
                         ids=[f"{row[0].__name__}-{row[3]}" for row in REALS])
def test_a_real_parameter_is_a_float_in_its_range(fn, kwargs, error, param, name, stored, bad):
    unset = inspect.signature(fn).parameters[param].default is None
    for value in (True, "2", 1j) + (() if unset else (None,)):
        assert refusal(fn, {**kwargs, param: value}, error) == (
            f"{name} must be a real number, got {value!r}")
    for value, message in bad:
        assert refusal(fn, {**kwargs, param: value}, error) == message
    # a numpy scalar is stored as the Python float it equals
    for value in (np.float64(kwargs[param]), np.float32(0.5)):
        got = stored(fn(**{**kwargs, param: value}))
        assert type(got) is float and got == value


def test_every_public_real_parameter_has_a_row():
    covered = {(row[0].__name__, row[3]) for row in REALS}
    found = public_parameters(REAL_NAMES)
    assert sorted(found - covered - NOT_REALS) == []
    # and no row names a parameter that is gone
    assert sorted((covered | NOT_REALS) - found) == []


def test_as_real_names_the_range_it_takes():
    assert as_real("x", 10 ** 400, finite=False) == math.inf
    assert as_real("x", -math.inf, finite=False) == -math.inf
    for value, bounds, message in [
            (math.nan, {}, "x must be finite, got nan"),
            (math.nan, dict(finite=False), "x must be a number, got nan"),
            (10 ** 400, {}, "x must be finite, got inf"),
            (-1, dict(low=0), "x must be nonnegative and finite, got -1.0"),
            (2, dict(low=0, high=1), "x must be in [0, 1], got 2.0"),
            (1, dict(low=0, high=1, open_high=True), "x must be in [0, 1), got 1.0"),
            (5, dict(high=1), "x must be in (-inf, 1] and finite, got 5.0")]:
        with pytest.raises(ContractViolationError) as info:
            as_real("x", value, **bounds)
        assert str(info.value) == message
