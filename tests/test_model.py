"""Losses, gradients, clipping, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from byzdp import (ClipParams, ContractViolationError, ConfigurationError, DataLoadError,
                   Dataset, accuracy, batch_grads, clip, full_grad, full_loss,
                   gaussian_blobs, load_csv,
                   logistic_model, mlp1_model, point_grad, population_variance,
                   quadratic_minimizer, quadratic_model, regression_targets,
                   sample_batch, smoothness_constant, worker_stream)
import byzdp.model
from byzdp.model import batch_losses, estimate_min_loss


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


# ------------------------------------------------------------- point_grad

def test_point_grad_scalar_quadratic():
    model = quadratic_model(np.eye(1))
    assert point_grad(model, np.array([3.0]), np.array([1.0])) == pytest.approx([2.0])


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
        g = point_grad(model, theta, ds.features[i], ds.labels[i])
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
        point_grad(model, np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ContractViolationError):
        point_grad(model, np.zeros(4), np.zeros(5), 1.0)


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
    ds.labels = y  # past Dataset's own label check, to reach the function's
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
                          point_grad(model, theta, ds.features[0], 1.0))


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
def test_row_blocks_cover_whole_groups_in_aligned_blocks(count, unit, d, budget):
    original = byzdp.model._BLOCK_FLOATS
    byzdp.model._BLOCK_FLOATS = budget
    try:
        blocks = list(byzdp.model.row_blocks(count, d, unit))
    finally:
        byzdp.model._BLOCK_FLOATS = original
    assert blocks[0][0] == 0 and blocks[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    step = math.lcm(unit, 4)
    for lo, hi in blocks[:-1]:
        rows = (hi - lo) * unit
        assert rows % 4 == 0
        assert rows * d <= max(budget, step * d)
    lo, hi = blocks[-1]
    assert len(blocks) == 1 or (hi - lo) * unit >= 4


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


# ------------------------------------------------------------------- clip

def test_clip_examples():
    g = np.array([3.0, 4.0])
    assert np.array_equal(clip(g, ClipParams(10.0)), g)
    np.testing.assert_allclose(clip(g, ClipParams(1.0)), [0.6, 0.8], rtol=1e-15)
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
    out = clip(g, ClipParams(1.0))
    np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-15)
    assert np.array_equal(out[1], g[1])


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

def test_sample_batch_full_and_deterministic():
    ds = regression_targets(0, 12, 2)
    idx = sample_batch(ds, 12, worker_stream(9, 0, 1, 0))
    assert np.array_equal(idx, np.arange(12))
    a = sample_batch(ds, 5, worker_stream(9, 3, 7, 0))
    b = sample_batch(ds, 5, worker_stream(9, 3, 7, 0))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 5


def test_sample_batch_uniform_frequencies():
    ds = regression_targets(0, 4, 1)
    counts = np.zeros(4)
    for t in range(40_000):
        counts[sample_batch(ds, 1, worker_stream(1, 0, t + 1, 0))[0]] += 1
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
        for key in range(3):
            rng = worker_stream(4, key, m, 0)
            plain = worker_stream(4, key, m, 0)
            want = np.sort(plain.choice(m, b, replace=False))
            assert np.array_equal(sample_batch(ds, b, rng), want), (m, b, key)
            # and the generator ends where the plain draw leaves it
            assert np.array_equal(rng.integers(0, 2**62, 4), plain.integers(0, 2**62, 4))


def test_sample_batch_rejects_oversized():
    ds = regression_targets(0, 5, 1)
    with pytest.raises(ContractViolationError):
        sample_batch(ds, 6, worker_stream(0, 0, 1, 0))
    with pytest.raises(ContractViolationError):
        sample_batch(ds, 0, worker_stream(0, 0, 1, 0))


# ---------------------------------------------------- population variance

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


def test_estimate_min_loss_steps_use_module_full_grad(monkeypatch):
    calls = []

    def counting_full_grad(model, theta, dataset):
        calls.append(1)
        return full_grad(model, theta, dataset)

    monkeypatch.setattr(byzdp.model, "full_grad", counting_full_grad)
    ds = gaussian_blobs(2, 4000, 20, half_sep=0.16, axis_std=0.088, cross_std=0.16)
    estimate_min_loss(logistic_model(20, lam=1e-4), ds)
    assert 1 <= len(calls) < 20


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
