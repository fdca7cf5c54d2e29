"""Losses, gradients, clipping, sampling."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from byzdp import (ClipParams, ContractViolationError, ConfigurationError, DataLoadError,
                   Dataset, Model, accuracy, batch_grads, clip, full_grad, full_loss,
                   gaussian_blobs, load_csv, logistic_model, mlp1_model, population_variance,
                   quadratic_minimizer, quadratic_model, regression_targets,
                   sample_batch, smoothness_constant, worker_stream)
import byzdp.model
from byzdp.model import _sorted_choice, batch_losses, estimate_min_loss


def fd_point_grad(model, theta, x, label=None, h=1e-6):
    """Central finite differences of the point-wise loss; the gradient oracle."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        labels = None if label is None else np.asarray([label])
        lo = batch_losses(model, down, np.atleast_2d(x), labels)[0]
        hi = batch_losses(model, up, np.atleast_2d(x), labels)[0]
        grad[i] = (hi - lo) / (2 * h)
    return grad


def fd_full_grad(model, theta, dataset, h=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (full_loss(model, up, dataset) - full_loss(model, down, dataset)) / (2 * h)
    return grad


# ------------------------------------------------------ per-point gradients

def test_point_grad_scalar_quadratic():
    model = quadratic_model(np.eye(1))
    assert batch_grads(model, np.array([3.0]), np.array([[1.0]]))[0] == pytest.approx([2.0])


def test_mean_point_grad_vanishes_at_minimizer():
    model = quadratic_model(np.diag([1.0, 4.0]), lam=0.1)
    ds = regression_targets(3, 40, 2)
    theta_star = quadratic_minimizer(model, ds)
    g = batch_grads(model, theta_star, ds.features).mean(axis=0)
    assert np.linalg.norm(g) < 1e-12


def test_logistic_point_grad_matches_finite_differences_at_zero():
    ds = gaussian_blobs(0, 30, 4)
    model = logistic_model(4, lam=1e-4)
    theta = np.zeros(4)
    for i in range(5):
        g = batch_grads(model, theta, ds.features[i:i + 1], ds.labels[i:i + 1])[0]
        oracle = fd_point_grad(model, theta, ds.features[i], ds.labels[i])
        assert np.linalg.norm(g - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))


def test_point_grad_matches_finite_differences_everywhere():
    rng = np.random.default_rng(7)
    models = [
        (quadratic_model(np.diag([1.0, 2.0, 0.5]), lam=0.2), 3, False),
        (logistic_model(3, lam=0.01), 3, True),
        (mlp1_model(3, 4, lam=0.01), 3, True),
    ]
    checks = 0
    for model, p, labeled in models:
        for _ in range(34):
            theta = rng.normal(0, 1, model.dim)
            x = rng.normal(0, 1, p)
            label = float(rng.choice([-1.0, 1.0])) if labeled else None
            g = batch_grads(model, theta, np.atleast_2d(x),
                            None if label is None else np.asarray([label]))[0]
            oracle = fd_point_grad(model, theta, x, label)
            assert np.linalg.norm(g - oracle) <= 1e-5 * max(1.0, np.linalg.norm(oracle))
            checks += 1
    assert checks >= 100


def test_point_grad_dimension_mismatch():
    model = logistic_model(4)
    with pytest.raises(ContractViolationError):
        batch_grads(model, np.zeros(3), np.zeros((1, 4)), np.ones(1))
    with pytest.raises(ContractViolationError):
        batch_grads(model, np.zeros(4), np.zeros((1, 5)), np.ones(1))


# --------------------------------------------------------- model objects

def test_model_derives_its_dimension():
    assert quadratic_model(np.eye(6)).dim == 6
    assert logistic_model(20).dim == 20
    assert mlp1_model(20, 32).dim == 20 * 32 + 2 * 32 + 1
    with pytest.raises(TypeError):
        Model("logistic", n_features=3, dim=3)


@pytest.mark.parametrize("lam", [-0.1, math.inf, math.nan])
def test_regularization_must_be_finite_and_nonnegative(lam):
    for make in (lambda: quadratic_model(np.eye(2), lam=lam),
                 lambda: logistic_model(3, lam=lam), lambda: mlp1_model(3, 2, lam=lam)):
        with pytest.raises(ConfigurationError,
                           match="regularization must be nonnegative and finite"):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: quadratic_model(np.ones((2, 3))), "needs a \\(d, d\\) matrix"),
    (lambda: quadratic_model(np.zeros((0, 0))), "needs a \\(d, d\\) matrix"),
    (lambda: logistic_model(0), "need n_features >= 1, got 0"),
    (lambda: mlp1_model(3, 0), "need hidden >= 1, got 0"),
    (lambda: mlp1_model(0, 2), "need n_features >= 1, got 0"),
], ids=["non_square", "empty", "no_features", "no_hidden", "mlp1_no_features"])
def test_model_rejects_shapes_without_a_dimension(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: quadratic_model(np.array([[1.0, 0.5], [0.0, 1.0]])), "must be symmetric"),
    (lambda: quadratic_model(np.diag([1.0, -0.5])), "must be positive semidefinite"),
    (lambda: Model("cubic", n_features=3), "unknown model kind 'cubic'"),
], ids=["non_symmetric", "not_psd", "unknown_kind"])
def test_model_rejects_bad_matrices_and_kinds(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()


@pytest.mark.parametrize("make, name", [
    # logistic_model(20.0) once gave dim == 20.0, and run then failed inside numpy
    (lambda: logistic_model(20.0), "n_features"),
    (lambda: logistic_model(True), "n_features"),
    (lambda: mlp1_model(4.0, 3), "n_features"),
    # mlp1_model(4, True) once ran as hidden = 1
    (lambda: mlp1_model(4, True), "hidden"),
    (lambda: mlp1_model(4, 2.0), "hidden"),
    (lambda: Model("logistic"), "n_features"),
    # a quadratic model of a 1x1 matrix once took n_features = True, as True == 1
    (lambda: Model("quadratic", hessian=np.eye(1), n_features=True), "n_features"),
    (lambda: Model("quadratic", hessian=np.eye(1), n_features=1.0), "n_features"),
], ids=["float_features", "bool_features", "mlp1_float_features", "bool_hidden",
        "float_hidden", "no_features", "quadratic_bool_features", "quadratic_float_features"])
def test_model_counts_must_be_integers(make, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        make()


@pytest.mark.parametrize("make, message", [
    # the quadratic model once took n_features = 5 and silently kept its matrix size 3
    (lambda: Model("quadratic", hessian=np.eye(3), n_features=5),
     "n_features is its matrix size 3, got 5"),
    (lambda: Model("quadratic", hessian=np.eye(3), hidden=2), "quadratic model takes no hidden"),
    (lambda: Model("logistic", n_features=3, hidden=2), "logistic model takes no hidden"),
    (lambda: Model("logistic", n_features=3, hessian=np.eye(3)),
     "logistic model takes no hessian"),
    (lambda: Model("mlp1", n_features=3, hidden=2, hessian=np.eye(2)),
     "mlp1 model takes no hessian"),
], ids=["quadratic_features", "quadratic_hidden", "logistic_hidden", "logistic_hessian",
        "mlp1_hessian"])
def test_model_rejects_fields_its_kind_does_not_take(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()


def test_model_replace_keeps_working():
    # a quadratic model's derived n_features goes back in through replace
    model = dataclasses.replace(quadratic_model(np.eye(3)), lam=0.5)
    assert (model.dim, model.n_features, model.lam) == (3, 3, 0.5)
    assert dataclasses.replace(mlp1_model(np.int64(4), 3), lam=0.1).dim == 4 * 3 + 2 * 3 + 1


def test_model_stores_its_counts_as_python_ints():
    for given in (None, 1, np.int64(1)):
        model = Model("quadratic", hessian=np.eye(1), n_features=given)
        assert (type(model.n_features), type(model.dim), model.dim) == (int, int, 1)
    model = mlp1_model(np.int64(4), np.int32(3))
    assert [type(v) for v in (model.n_features, model.hidden, model.dim)] == [int] * 3


# --------------------------------------------------------- input contract

def contract_model(kind):
    """A model of three features with a matching dataset of six points."""
    if kind == "quadratic":
        return quadratic_model(np.eye(3)), regression_targets(0, 6, 3)
    if kind == "logistic":
        return logistic_model(3), gaussian_blobs(0, 6, 3)
    return mlp1_model(3, 2), gaussian_blobs(0, 6, 3)


def evaluate_on(name, model, theta, x, y):
    """Call one per-point or full-dataset function of the model on (x, y)."""
    if name == "batch_grads":
        return batch_grads(model, theta, x, y)
    if name == "batch_losses":
        return batch_losses(model, theta, x, y)
    ds = Dataset(x)
    object.__setattr__(ds, "labels", y)  # past Dataset's own label check, to reach the function's
    return {"full_loss": full_loss, "accuracy": accuracy}[name](model, theta, ds)


BAD_INPUTS = {
    "short_theta": lambda theta, x, y: (theta[:-1], x, y),
    "narrow_features": lambda theta, x, y: (theta, x[:, :2], y),
    "wide_features": lambda theta, x, y: (theta, np.hstack([x, x[:, :1]]), y),
    "no_labels": lambda theta, x, y: (theta, x, None),
    "short_labels": lambda theta, x, y: (theta, x, y[:-1]),
}


# a wrong feature width once raised numpy's ValueError in batch_losses and
# full_loss, and unlabeled classifier data made full_loss return nan and
# accuracy 0.0
@pytest.mark.parametrize("kind, name, case", [
    (kind, name, case)
    for kind in ("quadratic", "logistic", "mlp1")
    for name in ("batch_grads", "batch_losses", "full_loss", "accuracy")
    for case in BAD_INPUTS
    if not (kind == "quadratic" and (name == "accuracy" or case.endswith("labels")))])
def test_input_contract(kind, name, case):
    model, ds = contract_model(kind)
    theta = np.full(model.dim, 0.1)
    evaluate_on(name, model, theta, ds.features, ds.labels)
    with pytest.raises(ContractViolationError):
        evaluate_on(name, model, *BAD_INPUTS[case](theta, ds.features, ds.labels))


def test_accuracy_needs_a_classifier():
    model, ds = contract_model("quadratic")
    with pytest.raises(ContractViolationError, match="classification"):
        accuracy(model, np.zeros(3), ds)


# -------------------------------------------------------------- full_grad

def test_full_grad_single_point_equals_point_grad():
    model = logistic_model(3)
    ds = Dataset(np.array([[1.0, -2.0, 0.5]]), np.array([1.0]))
    theta = np.array([0.3, -0.1, 0.2])
    assert np.array_equal(full_grad(model, theta, ds),
                          batch_grads(model, theta, ds.features, ds.labels)[0])


def test_full_grad_zero_at_quadratic_minimizer():
    model = quadratic_model(np.diag([2.0, 1.0, 3.0]))
    ds = regression_targets(5, 25, 3)
    theta_star = quadratic_minimizer(model, ds)
    assert np.linalg.norm(full_grad(model, theta_star, ds)) < 1e-12


def test_full_grad_matches_finite_differences():
    ds = gaussian_blobs(2, 20, 5)
    model = logistic_model(5, lam=1e-3)
    rng = np.random.default_rng(11)
    theta = rng.normal(0, 0.5, 5)
    g = full_grad(model, theta, ds)
    oracle = fd_full_grad(model, theta, ds)
    assert np.linalg.norm(g - oracle) <= 1e-5 * max(1.0, np.linalg.norm(oracle))


# ------------------------------------------------------------- row blocks

@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 300), unit=st.integers(1, 130), d=st.integers(1, 800),
       budget=st.sampled_from([1, 7, 64, 1000, 1 << 16]))
def test_row_blocks_cut_whole_groups_of_about_the_budget(count, unit, d, budget):
    original = byzdp.model._BLOCK_FLOATS
    byzdp.model._BLOCK_FLOATS = budget
    try:
        blocks = list(byzdp.model.row_blocks(count, d, unit))
    finally:
        byzdp.model._BLOCK_FLOATS = original
    assert blocks[0][0] == 0 and blocks[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    # every block but the last holds the most groups whose floats fit the
    # budget, and at least one; the last holds the rest
    sizes = [hi - lo for lo, hi in blocks]
    per = sizes[0]
    assert all(size == per for size in sizes[:-1]) and 1 <= sizes[-1] <= per
    assert per == 1 or per * unit * d <= budget
    assert len(blocks) == 1 or (per + 1) * unit * d > budget


@st.composite
def row_products(draw):
    """A model, theta and a seeded (lead + k + trail, p) block with labels."""
    kind = draw(st.sampled_from(["quadratic", "logistic", "mlp1"]))
    width = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "quadratic":
        # a dense matrix: every entry of (theta - x) H is a sum of width products
        a = rng.standard_normal((width, width))
        model = quadratic_model(a @ a.T / width, lam=1e-3)
    elif kind == "logistic":
        model = logistic_model(width, lam=1e-3)
    else:
        model = mlp1_model(width, draw(st.integers(1, 32)), lam=1e-3)
    k, lead, trail = draw(st.integers(1, 40)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    x = rng.standard_normal((lead + k + trail, width))
    y = np.where(rng.random(len(x)) < 0.5, 1.0, -1.0)
    return model, rng.normal(0.0, 0.5, model.dim), x, y, lead, k


def _forward_rows(model, theta, x, y):
    return [part for part in byzdp.model._forward(model, theta, x) if part is not None]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_products())
def test_a_rows_bits_do_not_depend_on_the_other_rows(case):
    # a point's products, loss and gradient are the same bits alone, in a
    # block of k rows and inside a larger block that starts before it
    model, theta, x, y, lead, k = case
    for f in (batch_grads, batch_losses, _forward_rows):
        def parts(lo, hi):
            got = f(model, theta, x[lo:hi], y[lo:hi])
            return got if isinstance(got, list) else [got]
        larger, block = parts(0, len(x)), parts(lead, lead + k)
        for i in range(k):
            alone = parts(lead + i, lead + i + 1)
            for whole, part, one in zip(larger, block, alone):
                assert np.array_equal(part[i], one[0]), (f.__name__, i)
                assert np.array_equal(part[i], whole[lead + i]), (f.__name__, i)


def _model_and_data(kind, m):
    if kind == "quadratic":
        return quadratic_model(np.diag(np.linspace(0.5, 2.0, 6)), lam=1e-3), \
            regression_targets(3, m, 6, spread=0.5)
    if kind == "quadratic_d1":
        return quadratic_model(np.array([[1.5]])), regression_targets(3, m, 1)
    if kind == "logistic":
        return logistic_model(6, lam=1e-3), gaussian_blobs(3, m, 6)
    if kind == "logistic_d1":
        return logistic_model(1), gaussian_blobs(3, m, 1)
    if kind == "logistic_d2":
        return logistic_model(2), gaussian_blobs(3, m, 2)
    return mlp1_model(5, 4, lam=1e-3), gaussian_blobs(3, m, 5)


@pytest.mark.parametrize("budget", [1, 1 << 16])
@pytest.mark.parametrize("m", [1, 3, 4001])
@pytest.mark.parametrize("kind", ["quadratic", "quadratic_d1", "logistic", "logistic_d1",
                                  "logistic_d2", "mlp1"])
def test_full_grad_is_the_one_block_mean_bit_for_bit(monkeypatch, kind, m, budget):
    monkeypatch.setattr(byzdp.model, "_BLOCK_FLOATS", budget)
    model, ds = _model_and_data(kind, m)
    theta = np.random.default_rng(m).normal(0.0, 0.5, model.dim)
    want = batch_grads(model, theta, ds.features, ds.labels).mean(axis=0)
    assert np.array_equal(full_grad(model, theta, ds), want)


# --------------------------------------------------------------- sum_rows

# values whose sums round, underflow, overflow or turn to nan
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308,
                           math.inf, -math.inf, math.nan])


def row_stack(seed, lead, k, d, special, spread, finite=False):
    """A C-contiguous (*lead, k, d) float64 array of seeded values.

    Normal values times a common power of ten, or one power per entry when
    ``spread``; a share ``special`` of the entries are SPECIAL_VALUES, or
    only their finite ones when ``finite``.
    """
    rng = np.random.default_rng(seed)
    shape = (*lead, k, d)
    power = rng.integers(-320, 300, size=shape if spread else ())
    with np.errstate(all="ignore"):
        g = rng.standard_normal(shape) * 10.0 ** power
    mask = rng.random(shape) < special
    specials = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)] if finite else SPECIAL_VALUES
    g[mask] = rng.choice(specials, size=int(mask.sum()))
    return g


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


row_stacks = st.builds(row_stack, seed=st.integers(0, 2**32 - 1),
                       lead=st.sampled_from([(), (1,), (3,)]), k=st.integers(1, 300),
                       d=st.integers(1, 64),
                       special=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.5]),
                       spread=st.booleans(), finite=st.booleans())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(row_stacks)
def test_sum_rows_has_the_bits_of_numpys_row_sum(g):
    with np.errstate(all="ignore"):
        assert_same_bits(byzdp.model.sum_rows(g), g.sum(axis=-2))
        # a transposed or strided input is not C-contiguous, and numpy sums it
        for view in (np.swapaxes(g, -1, -2), g[..., ::2, :], g[..., ::2]):
            assert_same_bits(byzdp.model.sum_rows(view), view.sum(axis=-2))


def test_sum_rows_never_lets_einsum_optimize(monkeypatch):
    # optimize may route a sum through BLAS, whose bits depend on the CPU's kernel
    calls, einsum = [], np.einsum

    def spy(*operands, **kwargs):
        calls.append(kwargs)
        return einsum(*operands, **kwargs)
    monkeypatch.setattr(np, "einsum", spy)
    byzdp.model.sum_rows(row_stack(0, (2,), 9, 5, 0.0, False))
    assert calls == [{}]


# the seeded inputs of the dispatch guard: every width from 1 to 64 at some row count
DISPATCH_CASES = [(seed, lead, k, d, *values)
                  for seed, (lead, k, d) in enumerate(
                      [((), 1, 2), ((), 7, 1), ((), 300, 1), ((3,), 5, 1), ((), 2, 3),
                       ((3,), 33, 20), ((), 4001, 20), ((2,), 512, 20), ((), 40, 705)]
                      + [((), 97, d) for d in range(2, 65)])
                  for values in ((0.0, False), (0.0, True), (0.05, True), (0.05, True, True))]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's X86 dispatch levels exist on x86 only")
def test_sum_rows_keeps_its_bits_under_numpys_x86_v3_dispatch(tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512F"):
        pytest.skip("numpy runs its X86_V3 loops on this host already")
    stacks = [row_stack(*case) for case in DISPATCH_CASES]
    with np.errstate(all="ignore"):
        here = [byzdp.model.sum_rows(g) for g in stacks]
    np.savez(tmp_path / "stacks.npz", *stacks)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from numpy._core._multiarray_umath import __cpu_features__
        from byzdp.model import sum_rows
        assert not __cpu_features__["X86_V4"], "numpy still runs its AVX-512 loops"
        sums = []
        with np.errstate(all="ignore"), np.load(sys.argv[1]) as stacks:
            for name in stacks.files:
                g = stacks[name]
                sums.append(sum_rows(g))
                assert np.array_equal(sums[-1].view(np.int64), g.sum(axis=-2).view(np.int64)), name
        np.savez(sys.argv[2], *sums)
        """)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "stacks.npz"),
                           str(tmp_path / "sums.npz")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each add rounds once at either level, so the sums agree across them
    with np.load(tmp_path / "sums.npz") as there:
        for i, want in enumerate(here):
            assert_same_bits(there[f"arr_{i}"], want)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("k", [1, 3, 4001])
def test_logistic_batch_grads_are_numpys_broadcast_products(k, lam):
    from scipy.special import expit
    ds = gaussian_blobs(7, k, 20)
    model = logistic_model(20, lam=lam)
    theta = np.random.default_rng(k).normal(0.0, 0.5, 20)
    x, y = ds.features, ds.labels
    # the scores as _forward takes them: at k = 3 the product repeats rows up to 4
    scores = byzdp.model._forward(model, theta, x)[1]
    want = (-y * expit(-y * scores))[:, None] * x + lam * theta
    assert_same_bits(batch_grads(model, theta, x, y), want)


# ------------------------------------------------------------------- clip

@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_clip_bound_must_be_positive_and_finite(c):
    with pytest.raises(ConfigurationError, match="clip bound must be positive and finite"):
        ClipParams(c)


def test_clip_examples():
    g = np.array([3.0, 4.0])
    assert np.array_equal(clip(g.copy(), ClipParams(10.0)), g)
    np.testing.assert_allclose(clip(g.copy(), ClipParams(1.0)), [0.6, 0.8], rtol=1e-15)
    assert np.array_equal(clip(np.zeros(3), ClipParams(0.5)), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
       st.floats(0.01, 100.0))
@example([1e200, 1.0], 2.0)  # its squared norm overflows
def test_clip_norm_never_exceeds_cap(coords, c):
    out = clip(np.asarray(coords), ClipParams(c))
    norm = np.linalg.norm(out)
    assert norm <= c * (1 + 1e-12)
    if math.hypot(*coords) > c:  # hypot does not overflow on the way
        assert abs(norm - c) <= 1e-12


def test_clip_overflowing_norm_lands_on_the_ball():
    # the squared norm 1e400 overflows; the row still goes onto the radius-c ball
    out = clip(np.array([[1e200, 1.0]]), ClipParams(2.0))
    np.testing.assert_allclose(out, [[2.0, 2e-200]], rtol=1e-12, atol=0)


def test_clip_rows():
    g = np.array([[3.0, 4.0], [0.3, 0.4]])
    out = clip(g.copy(), ClipParams(1.0))
    np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-15)
    assert np.array_equal(out[1], g[1])


def _clip_every_row(g, c):
    """The oracle: one multiply of every row by its factor, 1 within the bound."""
    rows = np.atleast_2d(np.asarray(g, dtype=np.float64))
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    factors = np.ones_like(norms)
    over = norms > c
    factors[over] = c / norms[over]
    huge = np.isinf(norms)
    if huge.any():
        huge &= np.isfinite(rows).all(axis=1)
        top = np.abs(rows[huge]).max(axis=1)
        unit = rows[huge] / top[:, None]
        factors[huge] = c / top / np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return (rows * factors[:, None]).reshape(np.shape(g))


@pytest.mark.parametrize("shape", [(375, 10), (128, 705), (7,)])
@pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.6, 1.0])
def test_clip_scales_only_the_rows_over_the_bound_bit_for_bit(shape, share):
    g = np.random.default_rng(shape[0]).normal(0.0, 1.0, shape)
    norms = np.sort(np.linalg.norm(np.atleast_2d(g), axis=1))
    k = round(share * len(norms))  # rows over the bound
    c = float(norms[0] / 2 if k == len(norms) else norms[-k - 1])
    assert int((np.linalg.norm(np.atleast_2d(g), axis=1) > c).sum()) == k
    want = _clip_every_row(g, c)
    assert clip(g, ClipParams(c)) is g
    assert np.array_equal(g, want)


@pytest.mark.parametrize("rows", [
    [[1e200, 1.0], [0.3, 0.4], [0.1, 0.1]],  # an overflowing squared norm
    [[math.inf, 1.0], [0.3, 0.4], [0.1, 0.1]],  # a row that holds inf gets factor 0
    [[math.nan, 1.0], [3.0, 4.0], [0.1, 0.1]],  # a nan norm is never over the bound
    [[1e200, 1.0], [3.0, 4.0], [-1e300, 1e300]],
])
def test_clip_overflow_rows_match_the_oracle(rows):
    g = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _clip_every_row(g, 2.0)
        assert clip(g, ClipParams(2.0)) is g
    assert np.array_equal(g, want, equal_nan=True)


def test_clip_rejects_anything_but_a_float64_array():
    # clip works in place, so it cannot convert its input
    for h in (np.array([[3.0, 4.0]], dtype=np.float32), np.array([[3, 4]]), [[3.0, 4.0]]):
        with pytest.raises(ContractViolationError, match="float64"):
            clip(h, ClipParams(1.0))


def test_clipped_point_grads_bounded():
    ds = gaussian_blobs(4, 50, 6)
    model = logistic_model(6, lam=0.1)
    rng = np.random.default_rng(0)
    cap = ClipParams(0.7)
    for _ in range(20):
        theta = rng.normal(0, 3, 6)
        grads = clip(batch_grads(model, theta, ds.features, ds.labels), cap)
        norms = np.linalg.norm(grads, axis=1)
        assert np.all(norms <= 0.7 * (1 + 1e-12))


# ----------------------------------------------------------- sample_batch

def _streams(seed, round_no):
    return lambda w: worker_stream(seed, w, round_no, 0)


def _undrawn(w):
    raise AssertionError(f"stream {w} drawn at b == m")


def test_sample_batch_full_and_deterministic():
    ds = regression_targets(0, 12, 2)
    idx = sample_batch(ds, 12, 3, _undrawn)
    assert np.array_equal(idx, np.tile(np.arange(12), (3, 1)))
    a = sample_batch(ds, 5, 4, _streams(9, 7))
    b = sample_batch(ds, 5, 4, _streams(9, 7))
    assert a.shape == (4, 5) and np.array_equal(a, b)
    assert all(len(set(row.tolist())) == 5 for row in a)


def test_sample_batch_uniform_frequencies():
    ds = regression_targets(0, 4, 1)
    counts = np.zeros(4)
    for t in range(1000):
        np.add.at(counts, sample_batch(ds, 1, 40, _streams(1, t + 1)).ravel(), 1)
    freqs = counts / 40_000
    assert np.all(np.abs(freqs - 0.25) <= 0.01)


# m around numpy's cutoffs for choice without replacement: Floyd's algorithm up
# to m = 10000, and above it up to b = m // 50 with shuffle but m // 20
# without; a draw that skipped the shuffle would pick other sets past them
@pytest.mark.parametrize("m", [1, 25, 1000, 4000, 10000, 10001, 20000, 50000])
def test_sample_batch_matches_the_plain_draw(m):
    ds = Dataset(np.zeros((m, 1)))
    sizes = sorted({min(max(b, 1), m) for b in (1, m // 50, m // 50 + 1, m // 20,
                                                  m // 20 + 1, m)})
    for b in sizes:
        got = sample_batch(ds, b, 3, _streams(4, m))
        for key in range(3):
            rng = worker_stream(4, key, m, 0)
            plain = worker_stream(4, key, m, 0)
            want = np.sort(plain.choice(m, b, replace=False))
            assert np.array_equal(got[key], want), (m, b, key)
            assert np.array_equal(_sorted_choice(m, b, rng), want), (m, b, key)
            # and the one-stream draw leaves its generator where choice does
            assert np.array_equal(rng.integers(0, 2**62, 4), plain.integers(0, 2**62, 4))


@st.composite
def batch_sizes(draw):
    m = draw(st.integers(1, 20000))
    return m, draw(st.integers(1, m))


@settings(max_examples=300, deadline=None)
@given(sizes=batch_sizes(), count=st.integers(1, 6), seed=st.integers(0, 2**64 - 1),
       round_no=st.integers(1, 2**32 - 1))
@example(sizes=(30, 29), count=6, seed=7, round_no=1)  # long Floyd chains at b = m - 1
def test_sample_batch_rows_equal_the_one_stream_draw(sizes, count, seed, round_no):
    m, b = sizes
    got = sample_batch(Dataset(np.zeros((m, 1))), b, count, _streams(seed, round_no))
    assert got.shape == (count, b) and got.dtype == np.int64
    for w in range(count):
        assert np.array_equal(got[w], _sorted_choice(m, b, worker_stream(seed, w, round_no, 0)))


def test_sample_batch_redraws_a_row_with_a_lemire_rejection():
    # worker 3's batch stream in round 1589 at seed 0: its 209th 32-bit draw,
    # for j = m - b + 208, is rejected and redrawn by numpy's bounded draw
    m, b = 4000, 512
    words = [int(x) for x in worker_stream(0, 3, 1589, 0).bit_generator.random_raw(b // 2)]
    draws = [half for x in words for half in (x & 0xFFFFFFFF, x >> 32)]

    def rejected(k):
        span = m - b + k + 1
        return draws[k] * span % 2**32 < 2**32 % span

    assert [k for k in range(b) if rejected(k)] == [208]
    calls = []

    def stream(w):
        calls.append(w)
        return worker_stream(0, w, 1589, 0)

    got = sample_batch(Dataset(np.zeros((m, 1))), b, 5, stream)
    assert sorted(calls) == [0, 1, 2, 3, 3, 4]  # the rejected row drawn again
    for w in range(5):
        assert np.array_equal(got[w], _sorted_choice(m, b, worker_stream(0, w, 1589, 0)))


def test_sample_batch_rows_span_rounds_as_per_round_calls():
    # the engine's block of rounds 1588-1590 for 5 workers: row r is worker
    # r % 5 in round 1588 + r // 5, and row 8 (worker 3, round 1589) holds the
    # Lemire rejection above, drawn again from its own stream
    m, b, ds = 4000, 512, Dataset(np.zeros((4000, 1)))
    calls = []

    def stream(r):
        calls.append(r)
        return worker_stream(0, r % 5, 1588 + r // 5, 0)

    got = sample_batch(ds, b, 15, stream)
    assert sorted(calls) == sorted([*range(15), 8])
    want = np.concatenate([sample_batch(ds, b, 5, _streams(0, t)) for t in (1588, 1589, 1590)])
    assert np.array_equal(got, want)


def test_sample_batch_rejects_oversized():
    ds = regression_targets(0, 5, 1)
    # sample_batch checks b for _sorted_choice, its only caller
    for b, count, message in ((6, 1, "need 1 <= b <= 5, got 6"), (0, 1, "need 1 <= b <= 5, got 0"),
                              (3, 0, "need count >= 1, got 0")):
        with pytest.raises(ContractViolationError, match=message):
            sample_batch(ds, b, count, _streams(0, 1))


@pytest.mark.parametrize("b,count", [(True, 1), (3.0, 1), (3, True), (3, 2.0)])
def test_sample_batch_rejects_a_bool_or_float_size(b, count):
    # b=True once drew one-point batches, as operator.index lets bools through
    ds = regression_targets(0, 5, 1)
    with pytest.raises(ContractViolationError, match="must be an integer"):
        sample_batch(ds, b, count, _streams(0, 1))
    assert sample_batch(ds, np.int64(3), np.int32(2), _streams(0, 1)).shape == (2, 3)


# ---------------------------------------------------- population variance

def population_variance_oracle(model, theta, dataset):
    """The whole-matrix definition: every per-point gradient around their mean."""
    g = batch_grads(model, theta, dataset.features, dataset.labels)
    diff = g - g.mean(axis=0)[None, :]
    return float(np.einsum("ij,ij->i", diff, diff).mean())


@pytest.mark.parametrize("m", [1, 3, 4000, 4001])
@pytest.mark.parametrize("kind", ["quadratic", "quadratic_d1", "logistic", "mlp1"])
def test_population_variance_is_the_whole_matrix_value_bit_for_bit(kind, m):
    model, ds = _model_and_data(kind, m)
    for seed in (m, m + 1, m + 2):
        theta = np.random.default_rng(seed).normal(0.0, 0.5, model.dim)
        assert population_variance(model, theta, ds) == \
            population_variance_oracle(model, theta, ds)


def test_population_variance_stays_in_row_blocks():
    # the whole-matrix value at mlp1, m = 4000, d = 705 peaks at about 45 MB
    model, ds = mlp1_model(20, 32, lam=1e-3), gaussian_blobs(3, 4000, 20)
    assert model.dim == 705
    theta = np.random.default_rng(0).normal(0.0, 0.1, model.dim)
    tracemalloc.start()
    try:
        got = population_variance(model, theta, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert got == population_variance_oracle(model, theta, ds)


def test_population_variance_identical_points():
    model = quadratic_model(np.eye(2))
    ds = Dataset(np.tile([1.5, -0.5], (8, 1)))
    assert population_variance(model, np.array([0.2, 0.9]), ds) == pytest.approx(0.0, abs=1e-28)


def test_population_variance_two_point_hand_value():
    # gradients theta+1 and theta-1, mean theta, variance 1 for any theta
    model = quadratic_model(np.eye(1))
    ds = Dataset(np.array([[-1.0], [1.0]]))
    for theta in (0.0, 2.5, -3.25):
        assert population_variance(model, np.array([theta]), ds) == pytest.approx(1.0, abs=1e-14)


def test_population_variance_permutation_invariant():
    model = logistic_model(3)
    ds = gaussian_blobs(8, 30, 3)
    perm = np.random.default_rng(1).permutation(30)
    ds_perm = Dataset(ds.features[perm], ds.labels[perm])
    theta = np.array([0.4, -0.2, 0.1])
    assert population_variance(model, theta, ds) == pytest.approx(
        population_variance(model, theta, ds_perm), rel=1e-12)


# ------------------------------------------------------------- smoothness

def test_smoothness_closed_forms():
    assert smoothness_constant(quadratic_model(np.eye(3))) == pytest.approx(1.0)
    assert smoothness_constant(quadratic_model(np.diag([1.0, 5.0]))) == pytest.approx(5.0)
    assert smoothness_constant(quadratic_model(np.diag([1.0, 5.0]), lam=0.1)) == pytest.approx(5.1)
    ds = Dataset(np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
    assert smoothness_constant(logistic_model(2, lam=0.2), ds) == pytest.approx(0.25 * 25 + 0.2)
    with pytest.raises(ConfigurationError):
        smoothness_constant(mlp1_model(2, 3))
    with pytest.raises(ContractViolationError, match="logistic smoothness needs the dataset"):
        smoothness_constant(logistic_model(2, lam=0.2))


def test_estimate_min_loss_descent_step():
    # mlp1 has no minimum-loss estimate
    with pytest.raises(ConfigurationError):
        estimate_min_loss(mlp1_model(2, 3), gaussian_blobs(0, 10, 2))
    # all-zero features and no regularizer: the gradient vanishes at zero and
    # the Hessian is the zero matrix, so the estimate is the constant loss ln 2
    ds = Dataset(np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
    assert estimate_min_loss(logistic_model(2), ds) == pytest.approx(np.log(2.0))


def descent_min_loss(model, dataset, max_iters=20000, tol=1e-10):
    """Full-batch gradient descent from zero with step 1/L; the Newton oracle."""
    lips = smoothness_constant(model, dataset)
    theta = np.zeros(model.dim)
    for _ in range(max_iters):
        g = full_grad(model, theta, dataset)
        if float(np.linalg.norm(g)) < tol:
            break
        theta = theta - (1.0 / lips) * g
    return full_loss(model, theta, dataset)


def test_estimate_min_loss_matches_descent_oracle():
    ds = gaussian_blobs(7, 500, 5)
    model = logistic_model(5, lam=1e-3)
    assert estimate_min_loss(model, ds) == pytest.approx(descent_min_loss(model, ds), rel=1e-12)


@pytest.mark.parametrize("ds", [gaussian_blobs(3, 200, 4, half_sep=5.0), gaussian_blobs(4, 6, 10)],
                         ids=["separable", "m_below_d"])
def test_estimate_min_loss_unattained_minimum(ds):
    """lam = 0 with separable data (m < d is always separable): H is singular
    or nearly so and the infimum 0 is not attained."""
    model = logistic_model(ds.n_features)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = estimate_min_loss(model, ds)
    assert np.isfinite(q)
    assert 0.0 <= q <= descent_min_loss(model, ds)


def _count_min_loss_calls(monkeypatch):
    """Route estimate_min_loss's full_grad and full_loss through recorders.

    Returns the list of gradient norms it saw and the list of its loss calls.
    """
    norms, losses = [], []

    def recording_full_grad(model, theta, dataset):
        g = full_grad(model, theta, dataset)
        norms.append(float(np.linalg.norm(g)))
        return g

    def recording_full_loss(model, theta, dataset):
        losses.append(1)
        return full_loss(model, theta, dataset)

    monkeypatch.setattr(byzdp.model, "full_grad", recording_full_grad)
    monkeypatch.setattr(byzdp.model, "full_loss", recording_full_loss)
    return norms, losses


def test_estimate_min_loss_halves_a_step_that_raises_the_loss(monkeypatch):
    ds = gaussian_blobs(4, 13, 2)
    model = logistic_model(2, lam=0.01)
    oracle = descent_min_loss(model, ds)
    norms, losses = _count_min_loss_calls(monkeypatch)
    q = estimate_min_loss(model, ds)
    # one loss at zero, one per step and one per halving; one gradient per step and
    # the last one, under the tolerance
    assert len(losses) - len(norms) >= 1
    assert norms[-1] < byzdp.model.MIN_LOSS_TOL
    assert q <= math.log(2.0)  # the loss at theta = 0
    assert q == pytest.approx(oracle, rel=1e-12)


def test_estimate_min_loss_stops_when_a_step_no_longer_moves_theta(monkeypatch):
    # the gradient stalls just above the tolerance, where every step that moves
    # theta raises the loss; the loop once repeated the unmoving step 20,000 times
    ds = gaussian_blobs(89, 13, 2, half_sep=0.1)
    model = logistic_model(2, lam=0.01)
    oracle = descent_min_loss(model, ds)
    norms, losses = _count_min_loss_calls(monkeypatch)
    q = estimate_min_loss(model, ds)
    assert norms[-1] >= byzdp.model.MIN_LOSS_TOL
    assert len(norms) < 100
    assert q <= math.log(2.0)
    assert q == pytest.approx(oracle, rel=1e-12)


def test_estimate_min_loss_steps_use_module_full_grad(monkeypatch):
    norms, _ = _count_min_loss_calls(monkeypatch)
    ds = gaussian_blobs(2, 4000, 20, half_sep=0.16, axis_std=0.088, cross_std=0.16)
    estimate_min_loss(logistic_model(20, lam=1e-4), ds)
    assert 1 <= len(norms) < 20


def test_quadratic_minimizer_of_a_singular_matrix_has_minimum_norm():
    # H = diag(2, 0) at lam = 0: every theta with theta_0 = mean x_0 is a minimizer
    # and the pseudo-inverse picks the one with theta_1 = 0
    model = quadratic_model(np.diag([2.0, 0.0]))
    ds = regression_targets(5, 20, 2)
    theta = quadratic_minimizer(model, ds)
    assert theta[0] == pytest.approx(ds.features[:, 0].mean(), rel=1e-12)
    assert abs(theta[1]) < 1e-12
    assert np.linalg.norm(full_grad(model, theta, ds)) < 1e-12


def test_quadratic_minimizer_needs_a_quadratic_model():
    with pytest.raises(ContractViolationError, match="quadratic kind only"):
        quadratic_minimizer(logistic_model(2), gaussian_blobs(0, 10, 2))


def test_quadratic_gradient_is_lipschitz_with_exact_constant():
    model = quadratic_model(np.diag([0.5, 2.0, 4.0]), lam=0.3)
    ds = regression_targets(6, 30, 3)
    lips = smoothness_constant(model)
    rng = np.random.default_rng(123)
    for _ in range(1000):
        a = rng.normal(0, 5, 3)
        b = rng.normal(0, 5, 3)
        lhs = np.linalg.norm(full_grad(model, a, ds) - full_grad(model, b, ds))
        assert lhs <= lips * np.linalg.norm(a - b) * (1 + 1e-9) + 1e-12


# ----------------------------------------------------------------- datasets

def test_dataset_immutable():
    ds = gaussian_blobs(0, 10, 3)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.labels[0] = -1.0
    # the dataset holds copies: it once froze its caller's array, and followed
    # an edit to the base of a view it was given
    x = np.ones((4, 2))
    Dataset(x)
    assert x.flags.writeable
    big = np.zeros((10, 2))
    ds = Dataset(big[:4])
    big[0, 0] = 5.0
    assert ds.features[0, 0] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_features_must_be_finite(bad):
    x = np.ones((3, 2))
    x[1, 0] = bad
    with pytest.raises(ContractViolationError, match="dataset features must be finite"):
        Dataset(x)


@pytest.mark.parametrize("features, labels, message", [
    (np.ones(3), None, "at least one point with shape"),
    (np.ones((0, 2)), None, "at least one point with shape"),
    (np.ones((3, 2, 1)), None, "at least one point with shape"),
    (np.ones((3, 2)), np.ones(2), "labels must be a vector of length m"),
    (np.ones((3, 2)), np.ones((3, 1)), "labels must be a vector of length m"),
    (np.ones((3, 2)), np.array([1.0, 0.0, -1.0]), "labels must be \\+1 or -1"),
], ids=["vector", "no_points", "3d", "short_labels", "column_labels", "zero_label"])
def test_dataset_rejects_bad_shapes_and_labels(features, labels, message):
    with pytest.raises(ContractViolationError, match=message):
        Dataset(features, labels)


@pytest.mark.parametrize("make", [gaussian_blobs, regression_targets])
@pytest.mark.parametrize("m, dim", [(0, 2), (3, 0)])
def test_generators_need_a_point_and_a_dimension(make, m, dim):
    with pytest.raises(ContractViolationError, match="need m >= 1, got 0" if m == 0
                       else "need dim >= 1, got 0"):
        make(0, m, dim)


@pytest.mark.parametrize("make", [gaussian_blobs, regression_targets])
def test_generators_refuse_a_negative_seed(make):
    # it once reached numpy's SeedSequence, whose ValueError names no seed
    with pytest.raises(ContractViolationError, match="need seed >= 0, got -1"):
        make(-1, 3, 2)


def test_blobs_reproducible_and_balanced():
    a = gaussian_blobs(5, 100, 4)
    b = gaussian_blobs(5, 100, 4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert abs(float(a.labels.sum())) <= 1


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2,label\n1.0,2.0,1\n3.0,-1.0,-1\n")
    ds = load_csv(str(path), classification=True)
    assert ds.m == 2 and ds.n_features == 2
    assert np.array_equal(ds.labels, [1.0, -1.0])
    plain = tmp_path / "targets.csv"
    plain.write_text("0.5,1.5\n-0.25,0.75\n")
    ds2 = load_csv(str(plain), classification=False)
    assert ds2.labels is None and ds2.m == 2


def test_csv_drops_a_byte_order_mark(tmp_path):
    # with the mark, the first row once read as a header and was skipped
    rows = "1.0,2.0\n3.0,4.0\n5.0,6.0\n"
    marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
    plain.write_text(rows)
    ds = load_csv(str(marked), classification=False)
    assert ds.m == 3
    assert np.array_equal(ds.features, load_csv(str(plain), classification=False).features)


def test_csv_malformed_row_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,1\n3.0,oops,-1\n")
    with pytest.raises(Exception, match="row 2"):
        load_csv(str(path), classification=True)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,1\n3.0,-1\n")
    with pytest.raises(Exception, match="row 2"):
        load_csv(str(ragged), classification=True)


def test_csv_rejects_non_finite_values(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0,1\n3.0,{bad},-1\n")
        with pytest.raises(DataLoadError, match="row 2"):
            load_csv(str(path), classification=True)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1.0,2.0,1\n\n   \n3.0,-1.0,-1\n")
    ds = load_csv(str(path), classification=True)
    assert ds.m == 2
    assert np.array_equal(ds.labels, [1.0, -1.0])


def test_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataLoadError, match="no data rows found"):
        load_csv(str(path), classification=False)


@pytest.mark.parametrize("label", ["0", "2", "0.5", "-0"])
def test_csv_refuses_a_label_other_than_plus_or_minus_one(tmp_path, label):
    # 0 is refused, not mapped to -1: a 0/1 file is a different labelling
    path = tmp_path / "labels.csv"
    path.write_text(f"1.0,2.0,1\n3.0,4.0,{label}\n")
    with pytest.raises(DataLoadError, match=f"row 2: label {float(label)!r} is not \\+1 or -1"):
        load_csv(str(path), classification=True)
    assert load_csv(str(path), classification=False).m == 2


def test_csv_classification_needs_a_feature_and_a_label(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1\n-1\n")
    with pytest.raises(DataLoadError, match="at least one feature and a label column"):
        load_csv(str(path), classification=True)
