"""Every integer size the package takes follows one rule, ``errors.as_integer``.

``SIZES`` holds one row per public callable that takes an integer size: a
valid call, the exception type of its call site, and for each size parameter
the values out of its range with the message each one gets. Every size
parameter must refuse a bool, a fractional float and an integral float with
"{name} must be an integer, got {value!r}", refuse each out-of-range value
with its "need ..." message, and accept a numpy integer. The drift guard at
the end fails when a public function or dataclass takes a parameter with a
size's name that has no row here.

``REALS`` starts the same table for real parameters, which follow
``errors.as_real``: the clip bound, ``compose``'s budget, zeta, the
regularization, the momentum and the constant step size so far. None is
refused too, but where it is a parameter's default it means unset.
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
                   delta_log_factor, eta_bounds, find_vn_violation, gaussian_blobs,
                   gaussian_noise, inner_epsilon, logistic_model, mlp1_model, noise_scale,
                   quadratic_model, regression_targets, sample_batch, sensitivity_mean_grad,
                   sigma_total, submission_variance, sweep, vn_margin, worker_stream)
from byzdp.engine import PURPOSE_BATCH
from byzdp.errors import as_real

DATA = regression_targets(0, 20, 3)
QUAD = quadratic_model(np.eye(3))
THETA = np.zeros(3)
SPEC = GarSpec("median", 5, 1)
RUN_ARGS = dict(model=QUAD, dataset=DATA, gar=GarSpec("average", 5, 0), b=5, steps=4,
                schedule="constant", gamma=0.5, eval_every=2)
BASE = RunConfig(**RUN_ARGS)


def streams(w):
    return worker_stream(0, w, 1, 1)


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


def test_every_public_size_parameter_has_a_row():
    covered = {(fn.__name__, size) for fn, _, _, sizes in SIZES for size in sizes}
    found = set()
    for name in byzdp.__all__:
        obj = getattr(byzdp, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            found |= {(name, p) for p in inspect.signature(obj).parameters if p in SIZE_NAMES}
    assert sorted(found - covered - NOT_SIZES) == []
    # and no row names a parameter that is gone
    assert sorted((covered | NOT_SIZES) - found) == []


# (callable, valid keyword arguments, error type, parameter, its name in messages,
# the value it gives back, ((bad value, message), ...))
REALS = [
    (ClipParams, dict(c=2.0), ConfigurationError, "c", "clip bound", lambda clip: clip.c,
     tuple((value, f"clip bound must be positive and finite, got {value!r}")
           for value in (0.0, -1.0, math.inf, math.nan))),
    (compose, dict(epsilon=0.5, delta=1e-5, steps=3), ContractViolationError, "epsilon",
     "epsilon", lambda report: report["per_step_epsilon"],
     tuple((value, f"epsilon must be positive and finite, got {value!r}")
           for value in (0.0, -0.5, math.inf, math.nan))),
    (compose, dict(epsilon=0.5, delta=1e-5, steps=3), ContractViolationError, "delta",
     "delta", lambda report: report["per_step_delta"],
     tuple((value, f"delta must be in (0, 1), got {value!r}")
           for value in (0.0, 1.0, -1e-5, math.inf, math.nan))),
    (AttackSpec, dict(kind="little", zeta=2.0), ConfigurationError, "zeta", "zeta",
     lambda spec: spec.zeta,
     tuple((value, f"zeta must be nonnegative and finite, got {value!r}")
           for value in (-0.5, math.inf, -math.inf, math.nan))),
    (Model, dict(kind="logistic", lam=0.5, n_features=3), ConfigurationError, "lam",
     "regularization", lambda model: model.lam,
     tuple((value, f"regularization must be nonnegative and finite, got {value!r}")
           for value in (-0.1, math.inf, math.nan))),
    (RunConfig, dict(RUN_ARGS, momentum=0.5), ConfigurationError, "momentum", "momentum",
     lambda config: config.momentum,
     tuple((value, f"momentum must be in [0, 1), got {value!r}")
           for value in (1.0, -0.5, math.inf, math.nan))),
    (RunConfig, RUN_ARGS, ConfigurationError, "gamma", "gamma", lambda config: config.gamma,
     tuple((value, f"gamma must be positive and finite, got {value!r}")
           for value in (0.0, -0.5, math.inf, math.nan))),
]


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
