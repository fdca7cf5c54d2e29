"""Losses, gradients, clipping, batch sampling and the synthetic datasets.

Three model kinds are supported:

* ``quadratic``  - q(theta, x) = 1/2 (theta - x)' H (theta - x) + lam/2 |theta|^2
  with a symmetric PSD matrix H; the data points are the regression targets.
* ``logistic``   - binary logistic regression on labels in {-1, +1} with an
  l2 term, q = log(1 + exp(-y theta'x)) + lam/2 |theta|^2.
* ``mlp1``       - one hidden tanh layer feeding a binary logistic output.
  No closed-form smoothness constant exists for this kind.

The empirical loss is the plain average of q over the dataset, so the l2
regularizer is folded into every per-point gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, ContractViolationError, DataLoadError

MODEL_KINDS = ("quadratic", "logistic", "mlp1")


# ---------------------------------------------------------------- datasets

@dataclass
class Dataset:
    """An immutable in-memory dataset of m points.

    ``features`` has shape (m, p). ``labels`` is None for regression-style
    data and a vector in {-1, +1} for classification.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractViolationError("dataset needs at least one point with shape (m, p)")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.float64))
            if self.labels.shape != (self.features.shape[0],):
                raise ContractViolationError("labels must be a vector of length m")
            if not np.all(np.abs(self.labels) == 1.0):
                raise ContractViolationError("classification labels must be +1 or -1")
            self.labels.flags.writeable = False
        self.features.flags.writeable = False

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def gaussian_blobs(seed: int, m: int, dim: int, half_sep: float = 1.5,
                   axis_std: float = 1.0, cross_std: float = 1.0) -> Dataset:
    """Two Gaussian classes at +-half_sep * u for a seeded random unit u.

    ``axis_std`` is the within-class deviation along u, ``cross_std`` the
    deviation in the directions orthogonal to u; axis_std < cross_std gives
    elongated clusters whose accuracy is sensitive to the angle between the
    parameter vector and u. Labels alternate +1/-1 with the point index, so
    classes are balanced. Regenerating with the same arguments is bit-for-bit
    reproducible.
    """
    if m < 1 or dim < 1:
        raise ContractViolationError("need m >= 1 and dim >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    labels = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    z = rng.standard_normal((m, dim))
    z_par = z @ u
    x = (labels[:, None] * (half_sep * u)[None, :]
         + cross_std * (z - z_par[:, None] * u[None, :])
         + axis_std * z_par[:, None] * u[None, :])
    return Dataset(x, labels)


def regression_targets(seed: int, m: int, dim: int, spread: float = 1.0) -> Dataset:
    """Seeded Gaussian target points for the quadratic model."""
    if m < 1 or dim < 1:
        raise ContractViolationError("need m >= 1 and dim >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    x = spread * rng.standard_normal((m, dim))
    return Dataset(x, None)


def load_csv(path: str, classification: bool) -> Dataset:
    """Load one point per row of comma-separated floats.

    The last column is the label when ``classification`` is true. A header
    row is skipped if its first field is not a number. Malformed rows and
    non-finite values (``nan``, ``inf``) raise DataLoadError naming the row.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    start = 0
    if lines:
        first = lines[0].strip().split(",")
        try:
            float(first[0])
        except (ValueError, IndexError):
            start = 1
    width = None
    for i, line in enumerate(lines[start:], start=start + 1):
        line = line.strip()
        if not line:
            continue
        try:
            vals = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DataLoadError(f"row {i}: cannot parse '{line}': {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise DataLoadError(f"row {i}: non-finite value in '{line}'")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DataLoadError(f"row {i}: expected {width} columns, got {len(vals)}")
        rows.append(vals)
    if not rows:
        raise DataLoadError("no data rows found")
    data = np.asarray(rows, dtype=np.float64)
    if classification:
        if data.shape[1] < 2:
            raise DataLoadError("classification data needs at least one feature and a label column")
        return Dataset(data[:, :-1], data[:, -1])
    return Dataset(data, None)


# ---------------------------------------------------------------- models

@dataclass
class Model:
    """A differentiable point-wise loss family; see the module docstring."""

    kind: str
    dim: int
    lam: float = 0.0
    hessian: np.ndarray | None = None
    n_features: int | None = None
    hidden: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind '{self.kind}'")
        if self.dim < 1:
            raise ConfigurationError("model dimension must be >= 1")
        if self.lam < 0:
            raise ConfigurationError("regularization must be nonnegative")
        if self.kind == "quadratic":
            h = np.asarray(self.hessian, dtype=np.float64)
            if h.shape != (self.dim, self.dim):
                raise ConfigurationError("quadratic model needs a (d, d) matrix")
            if not np.allclose(h, h.T, atol=1e-12):
                raise ConfigurationError("quadratic matrix must be symmetric")
            eigs = np.linalg.eigvalsh(h)
            if eigs[0] < -1e-10:
                raise ConfigurationError("quadratic matrix must be positive semidefinite")
            self.hessian = h
            self.n_features = self.dim
        elif self.kind == "logistic":
            self.n_features = self.dim
        else:
            if not self.hidden or self.hidden < 1 or not self.n_features:
                raise ConfigurationError("mlp1 needs n_features and a positive hidden width")
            expected = self.n_features * self.hidden + 2 * self.hidden + 1
            if self.dim != expected:
                raise ConfigurationError(f"mlp1 dimension must be {expected} for these sizes")

    @property
    def is_classifier(self) -> bool:
        return self.kind in ("logistic", "mlp1")


def quadratic_model(hessian: np.ndarray, lam: float = 0.0) -> Model:
    hessian = np.asarray(hessian, dtype=np.float64)
    return Model("quadratic", hessian.shape[0], lam, hessian=hessian)


def logistic_model(n_features: int, lam: float = 0.0) -> Model:
    return Model("logistic", n_features, lam)


def mlp1_model(n_features: int, hidden: int, lam: float = 0.0) -> Model:
    dim = n_features * hidden + 2 * hidden + 1
    return Model("mlp1", dim, lam, n_features=n_features, hidden=hidden)


def _unpack_mlp(model: Model, theta: np.ndarray):
    p, h = model.n_features, model.hidden
    w1 = theta[: h * p].reshape(h, p)
    b1 = theta[h * p: h * p + h]
    w2 = theta[h * p + h: h * p + 2 * h]
    b2 = theta[-1]
    return w1, b1, w2, b2


def _check_theta(model: Model, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.dim,):
        raise ContractViolationError(
            f"parameter vector has shape {theta.shape}, model dimension is {model.dim}")
    return theta


# ------------------------------------------------------- losses & gradients

def batch_grads(model: Model, theta: np.ndarray, features: np.ndarray,
                labels: np.ndarray | None = None) -> np.ndarray:
    """Per-point gradients of q as a (k, d) matrix, regularizer included."""
    theta = _check_theta(model, theta)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if model.kind == "quadratic":
        if x.shape[1] != model.dim:
            raise ContractViolationError("target dimension does not match the model")
        grads = (theta[None, :] - x) @ model.hessian
        grads += model.lam * theta
        return grads
    if labels is None:
        raise ContractViolationError(f"{model.kind} gradients need labels")
    y = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if x.shape[1] != model.n_features or y.shape[0] != x.shape[0]:
        raise ContractViolationError("feature/label shapes do not match the model")
    if model.kind == "logistic":
        margin = y * (x @ theta)
        w = expit(-margin)
        grads = (-y * w)[:, None] * x
        grads += model.lam * theta
        return grads
    # mlp1 backprop
    w1, b1, w2, b2 = _unpack_mlp(model, theta)
    z1 = x @ w1.T + b1[None, :]
    a = np.tanh(z1)
    score = a @ w2 + b2
    dscore = -y * expit(-y * score)
    g_w2 = dscore[:, None] * a
    g_b2 = dscore[:, None]
    da = dscore[:, None] * w2[None, :]
    dz1 = da * (1.0 - a * a)
    g_w1 = np.einsum("kh,kp->khp", dz1, x).reshape(x.shape[0], -1)
    g_b1 = dz1
    grads = np.concatenate([g_w1, g_b1, g_w2, g_b2], axis=1)
    grads += model.lam * theta
    return grads


def point_grad(model: Model, theta: np.ndarray, x: np.ndarray,
               label: float | None = None) -> np.ndarray:
    """Gradient of the point-wise loss q at one data point."""
    labels = None if label is None else np.asarray([label], dtype=np.float64)
    return batch_grads(model, theta, np.atleast_2d(x), labels)[0]


def full_grad(model: Model, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Exact gradient of the empirical loss, the mean of per-point gradients."""
    return batch_grads(model, theta, dataset.features, dataset.labels).mean(axis=0)


def batch_losses(model: Model, theta: np.ndarray, features: np.ndarray,
                 labels: np.ndarray | None = None) -> np.ndarray:
    theta = _check_theta(model, theta)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    reg = 0.5 * model.lam * float(theta @ theta)
    if model.kind == "quadratic":
        diff = theta[None, :] - x
        return 0.5 * np.einsum("ij,ij->i", diff @ model.hessian, diff) + reg
    y = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    return np.logaddexp(0.0, -y * scores(model, theta, x)) + reg


def full_loss(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    return float(batch_losses(model, theta, dataset.features, dataset.labels).mean())


def scores(model: Model, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Raw classification scores; sign(score) is the predicted label."""
    theta = _check_theta(model, theta)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if model.kind == "logistic":
        return x @ theta
    if model.kind == "mlp1":
        w1, b1, w2, b2 = _unpack_mlp(model, theta)
        return np.tanh(x @ w1.T + b1[None, :]) @ w2 + b2
    raise ContractViolationError("scores are defined for classification kinds only")


def accuracy(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    s = scores(model, theta, dataset.features)
    pred = np.where(s > 0, 1.0, -1.0)
    return float(np.mean(pred == dataset.labels))


# ---------------------------------------------------------------- clipping

@dataclass(frozen=True)
class ClipParams:
    """Per-point gradient norm cap."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigurationError("clip bound must be positive")


def clip(g: np.ndarray, clip_params: ClipParams) -> np.ndarray:
    """Rescale g onto the ball of radius c when its norm exceeds c.

    Accepts a single vector or a (k, d) matrix of row vectors; rows are
    clipped independently. The zero vector is a fixed point.
    """
    g = np.asarray(g, dtype=np.float64)
    c = clip_params.c
    rows = np.atleast_2d(g)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    factors = np.ones_like(norms)
    over = norms > c
    factors[over] = c / norms[over]
    huge = np.isinf(norms)
    if huge.any():
        # the squares overflowed: scale each row by its top entry and never form
        # the norm, which may overflow too; a row that holds inf keeps factor 0
        huge &= np.isfinite(rows).all(axis=1)
        top = np.abs(rows[huge]).max(axis=1)
        unit = rows[huge] / top[:, None]
        factors[huge] = c / top / np.sqrt(np.einsum("ij,ij->i", unit, unit))
    return (rows * factors[:, None]).reshape(g.shape)


# --------------------------------------------------------- sampling & stats

def sample_batch(dataset: Dataset, b: int, rng: np.random.Generator) -> np.ndarray:
    """Draw b distinct indices uniformly over all size-b subsets of [0, m).

    The returned index set is sorted, which fixes a canonical representation
    of the subset; with b = m this is simply 0..m-1. The fresh result of
    ``choice`` is sorted in place, saving the copy ``np.sort`` would make.
    """
    m = dataset.m
    if not 1 <= b <= m:
        raise ContractViolationError(f"batch size must satisfy 1 <= b <= m, got b={b}, m={m}")
    idx = rng.choice(m, size=b, replace=False)
    idx.sort()
    return idx


def population_variance(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    """Mean squared deviation of per-point gradients around the full gradient.

    This is the per-theta realization of the bounded-variance constant.
    """
    g = batch_grads(model, theta, dataset.features, dataset.labels)
    mean = g.mean(axis=0)
    diff = g - mean[None, :]
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def smoothness_constant(model: Model, dataset: Dataset | None = None) -> float:
    """Global Lipschitz constant of the full gradient where a closed form exists.

    quadratic: largest eigenvalue of the matrix plus lam (exact).
    logistic:  1/4 max_i |x_i|^2 plus lam (standard upper bound; needs data).
    mlp1:      unsupported, no global constant.
    """
    if model.kind == "quadratic":
        return float(np.linalg.eigvalsh(model.hessian)[-1]) + model.lam
    if model.kind == "logistic":
        if dataset is None:
            raise ContractViolationError("logistic smoothness needs the dataset")
        max_sq = float(np.einsum("ij,ij->i", dataset.features, dataset.features).max())
        return 0.25 * max_sq + model.lam
    raise ConfigurationError("no global smoothness constant for mlp1")


# ------------------------------------------------- minimizers for the theory

def quadratic_minimizer(model: Model, dataset: Dataset) -> np.ndarray:
    """Exact minimizer of the regularized quadratic empirical loss."""
    if model.kind != "quadratic":
        raise ContractViolationError("closed-form minimizer exists for the quadratic kind only")
    h = model.hessian
    xbar = dataset.features.mean(axis=0)
    if model.lam == 0.0:
        eigs = np.linalg.eigvalsh(h)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            # singular direction: pinv picks the minimum-norm critical point
            return np.linalg.pinv(h) @ (h @ xbar)
        return np.linalg.solve(h, h @ xbar)
    return np.linalg.solve(h + model.lam * np.eye(model.dim), h @ xbar)


MIN_LOSS_MAX_STEPS = 20000  # Newton steps of estimate_min_loss
MIN_LOSS_TOL = 1e-10  # gradient norm at which estimate_min_loss stops


def estimate_min_loss(model: Model, dataset: Dataset) -> float:
    """Minimum empirical loss, exact for the quadratic kind, an upper bound otherwise.

    quadratic: the loss at the closed-form minimizer.
    logistic:  damped Newton from zero. Each step solves H p = g in the
               least-squares sense, with H = X' diag(w (1 - w)) X / m + lam I
               and w = expit(y X theta), so a singular H (lam = 0 with
               rank-deficient features) still gives a step. The step is halved
               until the loss does not increase; the loop ends when the
               gradient norm drops below ``MIN_LOSS_TOL``, when no step above
               1e-10 helps, or after ``MIN_LOSS_MAX_STEPS`` steps. Every
               iterate's loss is an upper bound on the minimum, and the
               estimate is exact to the gradient tolerance when the minimum
               is attained.
    mlp1:      raises ConfigurationError.
    """
    if model.kind == "quadratic":
        return full_loss(model, quadratic_minimizer(model, dataset), dataset)
    if model.kind != "logistic":
        raise ConfigurationError(f"no minimum-loss estimate for the {model.kind} kind")
    x, y = dataset.features, dataset.labels
    theta = np.zeros(model.dim)
    loss = full_loss(model, theta, dataset)
    for _ in range(MIN_LOSS_MAX_STEPS):
        g = full_grad(model, theta, dataset)
        if float(np.linalg.norm(g)) < MIN_LOSS_TOL:
            break
        w = expit(y * (x @ theta))
        hess = (x.T * (w * (1.0 - w))) @ x / dataset.m + model.lam * np.eye(model.dim)
        step = np.linalg.lstsq(hess, g, rcond=None)[0]
        t = 1.0
        while t > 1e-10:
            trial = theta - t * step
            trial_loss = full_loss(model, trial, dataset)
            if trial_loss <= loss:
                break
            t *= 0.5
        else:
            break
        theta, loss = trial, trial_loss
    return loss
