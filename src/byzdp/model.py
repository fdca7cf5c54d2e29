"""Losses, gradients, clipping, batch sampling and the synthetic datasets.

Three model kinds are supported:

* ``quadratic``  - q(theta, x) = 1/2 (theta - x)' H (theta - x) + lam/2 |theta|^2
  with a symmetric PSD matrix H; the data points are the regression targets.
* ``logistic``   - binary logistic regression on labels in {-1, +1} with an
  l2 term, q = log(1 + exp(-y theta'x)) + lam/2 |theta|^2.
* ``mlp1``       - one hidden tanh layer feeding a binary logistic output.
  No closed-form smoothness constant exists for this kind.

The empirical loss is the plain average of q over the dataset, so the l2
regularizer is folded into every per-point gradient. ``_forward`` is the one
place where data meets the parameters: per-point losses and gradients,
accuracy and the Newton weights of ``estimate_min_loss`` are tails on it.

Each row-wise product of ``_forward`` goes through ``_rows_times``, which
gives every row the bits it gets inside an aligned group of 4 rows. So a
point's loss and gradient have the same bits alone, among any neighbours and
anywhere in a block, as long as the products stay below about 10**6
multiply-adds, past which BLAS may switch to a kernel that rounds differently.

Per-point gradient matrices are built in row blocks of about
``_BLOCK_FLOATS`` float64s (512 KB), which stay in a 2 MB L2 cache, rather than
as one (k, d) matrix of many megabytes; ``row_blocks`` cuts them. A run whose
round batches hold at least every data point builds one (m, d) matrix of all
per-point gradients per round, filled in such blocks, when it takes at most
``SHARED_PASS_FLOATS`` = 4 ``_BLOCK_FLOATS`` float64s (2 MB, the L2 size
above); a larger one stays in blocks (see ``engine.run``).

``sum_rows(g)`` is every sum over the rows of a per-point gradient matrix,
with the bits of ``g.sum(axis=-2)``. At width d >= 2 numpy adds the rows one
after another, and ``sum_rows`` adds them in that order with einsum, one
vector add per row; at d = 1 numpy sums pairwise, and ``sum_rows`` leaves that
sum, like one that holds a nan, to numpy. ``row_sum(block_rows, count, d)`` cuts ``count`` rows into such
blocks (one block at d = 1), asks ``block_rows(lo, hi)`` for each and adds
them with ``sum_rows`` in the order of ``sum(axis=0)``, for ``full_grad`` and
for a round whose batch is the whole dataset.

``sample_batch`` draws the batches of all honest workers of a round in one
call, each row bit for bit the sorted ``choice`` of its worker's stream.

scipy is loaded only for the classifier kinds: building a logistic or mlp1
``Model`` imports ``scipy.special``, and ``_expit`` looks up its ``expit`` at
call time. ``import byzdp``, ``byzdp --help`` and a quadratic run never load
it, which saves about half of a quadratic run's start-up. Keep it so: any
other scipy function is imported where it is called, not at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, ContractViolationError, DataLoadError, as_integer,
                     as_real)

# the fields each model kind takes; quadratic derives n_features from its matrix
MODEL_KINDS = {"quadratic": ("hessian",), "logistic": ("n_features",),
               "mlp1": ("n_features", "hidden")}


# ---------------------------------------------------------------- datasets

def read_only_copy(values) -> np.ndarray:
    """The read-only, C-contiguous float64 copy a value type stores of an array given."""
    copy = np.array(values, dtype=np.float64, order="C")
    copy.flags.writeable = False
    return copy


class ReadOnlyArrays:
    """A value type whose copies by pickle or copy.deepcopy hold read-only arrays too."""

    def __setstate__(self, state: dict):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class Dataset(ReadOnlyArrays):
    """An immutable in-memory dataset of m points.

    ``features`` has shape (m, p). ``labels`` is None for regression-style
    data and a vector in {-1, +1} for classification. The dataclass is frozen
    and holds read-only float64 copies of the arrays it is given.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", read_only_copy(self.features))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractViolationError("dataset needs at least one point with shape (m, p)")
        if not np.isfinite(self.features).all():
            raise ContractViolationError("dataset features must be finite")
        if self.labels is not None:
            object.__setattr__(self, "labels", read_only_copy(self.labels))
            if self.labels.shape != (self.features.shape[0],):
                raise ContractViolationError("labels must be a vector of length m")
            if not np.all(np.abs(self.labels) == 1.0):
                raise ContractViolationError("classification labels must be +1 or -1")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _dataset_rng(seed: int, m: int, dim: int, stream: int) -> np.random.Generator:
    """The generator of a seeded dataset of m points in dim dimensions."""
    as_integer("m", m, low=1)
    as_integer("dim", dim, low=1)
    as_integer("seed", seed, low=0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


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
    rng = _dataset_rng(seed, m, dim, 1)
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
    rng = _dataset_rng(seed, m, dim, 2)
    x = spread * rng.standard_normal((m, dim))
    return Dataset(x, None)


def read_lines(path: str, error: type[ValueError]) -> list[str]:
    """The lines of a UTF-8 text file, a leading BOM dropped; raise error when it cannot be read.

    The message is the OSError's, which names the path, or the path and then
    the UnicodeDecodeError's, which does not.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except OSError as exc:
        raise error(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def load_csv(path: str, classification: bool) -> Dataset:
    """Load one point per row of comma-separated floats.

    The last column is the label when ``classification`` is true, and must
    be +1 or -1 (a 0/1 label is refused, not mapped). A header row is skipped
    if its first field is not a number. Malformed rows, non-finite values
    (``nan``, ``inf``) and other labels raise DataLoadError naming the row,
    and a file that cannot be read as UTF-8 text raises DataLoadError naming it.
    """
    rows: list[list[float]] = []
    lines = read_lines(path, DataLoadError)
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
            if classification and width < 2:
                raise DataLoadError("classification data needs at least one feature and a "
                                    "label column")
        elif len(vals) != width:
            raise DataLoadError(f"row {i}: expected {width} columns, got {len(vals)}")
        if classification and abs(vals[-1]) != 1.0:
            raise DataLoadError(f"row {i}: label {vals[-1]} is not +1 or -1")
        rows.append(vals)
    if not rows:
        raise DataLoadError("no data rows found")
    data = np.asarray(rows, dtype=np.float64)
    if classification:
        return Dataset(data[:, :-1], data[:, -1])
    return Dataset(data, None)


# ---------------------------------------------------------------- models

@dataclass(frozen=True, eq=False)
class Model(ReadOnlyArrays):
    """A differentiable point-wise loss family; see the module docstring.

    The parameter count ``dim`` is derived from the other fields, and the
    dataclass is frozen, so ``dim`` cannot fall out of step with them. A kind
    rejects the fields it does not take (see ``MODEL_KINDS``), and its counts
    must be integers >= 1, so ``dim`` is too. A quadratic model's
    ``n_features`` is its matrix size: one given must equal it, so that
    ``dataclasses.replace`` keeps working.
    """

    kind: str
    lam: float = 0.0
    hessian: np.ndarray | None = None
    n_features: int | None = None
    hidden: int | None = None
    dim: int = field(init=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind '{self.kind}'")
        takes = MODEL_KINDS[self.kind]
        for name in ("hessian", "hidden"):
            if name not in takes and getattr(self, name) is not None:
                raise ConfigurationError(f"the {self.kind} model takes no {name}")
        if self.kind == "quadratic":
            h = read_only_copy(self.hessian)
            if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
                raise ConfigurationError("quadratic model needs a (d, d) matrix, d >= 1")
            if not np.allclose(h, h.T, atol=1e-12):
                raise ConfigurationError("quadratic matrix must be symmetric")
            if np.linalg.eigvalsh(h)[0] < -1e-10:
                raise ConfigurationError("quadratic matrix must be positive semidefinite")
            if self.n_features is not None and as_integer(
                    "n_features", self.n_features, ConfigurationError, low=1) != h.shape[0]:
                raise ConfigurationError(f"the quadratic model's n_features is its matrix size "
                                         f"{h.shape[0]}, got {self.n_features!r}")
            object.__setattr__(self, "hessian", h)
            object.__setattr__(self, "n_features", h.shape[0])
            dim = h.shape[0]
        else:
            for name in takes:
                object.__setattr__(self, name, as_integer(name, getattr(self, name),
                                                          ConfigurationError, low=1))
            dim = (self.n_features if self.kind == "logistic"
                   else self.n_features * self.hidden + 2 * self.hidden + 1)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "lam", as_real("regularization", self.lam, ConfigurationError,
                                                low=0))
        if self.is_classifier:
            # loaded with the model that needs it, so a quadratic run never pays
            # for it and forked sweep workers inherit it; see _expit
            import scipy.special  # noqa: F401

    @property
    def is_classifier(self) -> bool:
        return self.kind in ("logistic", "mlp1")


def quadratic_model(hessian: np.ndarray, lam: float = 0.0) -> Model:
    return Model("quadratic", lam, hessian=hessian)


def logistic_model(n_features: int, lam: float = 0.0) -> Model:
    return Model("logistic", lam, n_features=n_features)


def mlp1_model(n_features: int, hidden: int, lam: float = 0.0) -> Model:
    return Model("mlp1", lam, n_features=n_features, hidden=hidden)


def _expit(x: np.ndarray) -> np.ndarray:
    """scipy's logistic sigmoid, looked up at call time.

    A Model that was unpickled never ran ``__post_init__``, so the module may
    not be loaded yet; once it is, the lookup costs well under a microsecond.
    """
    from scipy.special import expit
    return expit(x)


def _unpack_mlp(model: Model, theta: np.ndarray):
    p, h = model.n_features, model.hidden
    w1 = theta[: h * p].reshape(h, p)
    b1 = theta[h * p: h * p + h]
    w2 = theta[h * p + h: h * p + 2 * h]
    b2 = theta[-1]
    return w1, b1, w2, b2


def _inputs(model: Model, theta: np.ndarray, features: np.ndarray,
            labels: np.ndarray | None):
    """Float64 theta, features and labels that fit the model; only classifiers need labels."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.dim,):
        raise ContractViolationError(
            f"parameter vector has shape {theta.shape}, model dimension is {model.dim}")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ContractViolationError(f"features of shape {x.shape} do not fit the model")
    y = None if labels is None else np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if model.is_classifier and (y is None or y.shape != (x.shape[0],)):
        raise ContractViolationError(f"the {model.kind} model needs one label per feature row")
    return theta, x, y


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w``, each row with the bits it gets inside an aligned group of 4 rows.

    The k % 4 rows past the last whole group are taken from the product of
    the last 4 rows; an input of fewer than 4 rows is repeated up to 4.
    """
    out = x @ w
    k = x.shape[0]
    tail = k % 4
    if tail:
        last = x[k - 4:] if k > 4 else x.take(np.arange(k - 4, k) % k, axis=0)
        out[k - tail:] = (last @ w)[4 - tail:]
    return out


def _forward(model: Model, theta: np.ndarray, x: np.ndarray):
    """The per-point products that a loss and its gradient share, as a pair.

    quadratic: (theta - x, (theta - x) H)
    logistic:  (None, the scores x theta)
    mlp1:      (the hidden layer a = tanh(x W1' + b1), the scores a w2 + b2)
    """
    if model.kind == "quadratic":
        diff = theta[None, :] - x
        return diff, _rows_times(diff, model.hessian)
    if model.kind == "logistic":
        return None, _rows_times(x, theta)
    w1, b1, w2, b2 = _unpack_mlp(model, theta)
    a = np.tanh(_rows_times(x, w1.T) + b1[None, :])
    return a, _rows_times(a, w2) + b2


# ------------------------------------------------------- losses & gradients

_BLOCK_FLOATS = 1 << 16  # float64s per row block: 512 KB
SHARED_PASS_FLOATS = 4 * _BLOCK_FLOATS  # float64s in a round's shared gradient matrix: 2 MB


def row_blocks(count: int, d: int, unit: int = 1):
    """Half-open ranges [lo, hi) that cover ``count`` groups of ``unit`` rows.

    Each block holds whole groups, at least one, and about ``_BLOCK_FLOATS``
    floats of width d.
    """
    per = max(1, _BLOCK_FLOATS // (unit * d))
    for lo in range(0, count, per):
        yield lo, min(lo + per, count)


def batch_grads(model: Model, theta: np.ndarray, features: np.ndarray,
                labels: np.ndarray | None = None) -> np.ndarray:
    """Per-point gradients of q as a (k, d) matrix, regularizer included."""
    theta, x, y = _inputs(model, theta, features, labels)
    a, out = _forward(model, theta, x)
    if model.kind == "quadratic":
        grads = out
    elif model.kind == "logistic":
        # each point's coefficient repeated along its row, then scaled by x in
        # place: the products of coef[:, None] * x without a narrow-row broadcast
        grads = np.repeat(-y * _expit(-(y * out)), x.shape[1]).reshape(x.shape)
        grads *= x
    else:
        # mlp1 backprop, each parameter block written into its columns of grads
        w2 = _unpack_mlp(model, theta)[2]
        k, h, p = x.shape[0], model.hidden, model.n_features
        dscore = -y * _expit(-y * out)
        dz1 = dscore[:, None] * w2[None, :] * (1.0 - a * a)
        grads = np.empty((k, model.dim))
        np.einsum("kh,kp->khp", dz1, x, out=grads[:, : h * p].reshape(k, h, p))
        grads[:, h * p: h * p + h] = dz1
        np.multiply(dscore[:, None], a, out=grads[:, h * p + h: h * p + 2 * h])
        grads[:, -1] = dscore
    grads += model.lam * theta
    return grads


def sum_rows(g: np.ndarray) -> np.ndarray:
    """The bits of ``g.sum(axis=-2)``: the sum over the rows of each (k, d) matrix in g.

    numpy sums the rows of a C-contiguous array of width d >= 2 one after
    another, with one call of its add loop per row. einsum's one-operand sum
    adds the rows in that same order, one vector add per row, without the
    per-row call cost. It is never given ``optimize``, which may route the sum
    through BLAS. At width 1 numpy sums the contiguous column pairwise, which
    einsum does not, so a width-1 input, like any input that is not
    C-contiguous, is summed by numpy itself. So is a sum that holds a nan:
    when two nans meet, the add keeps one of them, and numpy's SIMD lanes and
    einsum do not agree on which, so the nan's sign bit could differ.
    """
    if g.shape[-1] < 2 or not g.flags.c_contiguous:
        return g.sum(axis=-2)
    total = np.einsum("...kd->...d", g)
    return g.sum(axis=-2) if np.isnan(total).any() else total


def row_sum(block_rows, count: int, d: int) -> np.ndarray:
    """The bits of ``sum(axis=0)`` of a (count, d) matrix that is never built whole.

    ``block_rows(lo, hi)`` returns the fresh (hi - lo, d) block of rows
    [lo, hi). ``sum_rows`` adds the rows of a block of width d >= 2 one after
    another, so the rows are cut by ``row_blocks`` and each block's first row
    carries the sum so far, which adds in that order. At d = 1 the sum is
    numpy's pairwise one, so one block is used.
    """
    total = None
    for lo, hi in row_blocks(count, d) if d > 1 else [(0, count)]:
        g = block_rows(lo, hi)
        if total is not None:
            g[0] += total
        total = sum_rows(g)
    return total


def full_grad(model: Model, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Exact gradient of the empirical loss, the mean of per-point gradients.

    ``row_sum`` gives the bits of ``mean(axis=0)`` without building the whole
    (m, d) matrix.
    """
    x, y = dataset.features, dataset.labels
    return row_sum(lambda lo, hi: batch_grads(model, theta, x[lo:hi],
                                              None if y is None else y[lo:hi]),
                   dataset.m, model.dim) / dataset.m


def batch_losses(model: Model, theta: np.ndarray, features: np.ndarray,
                 labels: np.ndarray | None = None) -> np.ndarray:
    """Per-point losses q as a vector of length k, regularizer included."""
    theta, x, y = _inputs(model, theta, features, labels)
    diff, out = _forward(model, theta, x)
    if model.kind == "quadratic":
        losses = 0.5 * np.einsum("ij,ij->i", out, diff)
    else:
        losses = np.logaddexp(0.0, -y * out)
    if model.lam:
        # skipped at lam = 0, where 0 * inf would turn an overflowed loss into nan;
        # a diverged theta's |theta|^2 overflows to inf, and so does the loss
        with np.errstate(over="ignore"):
            losses += 0.5 * model.lam * float(theta @ theta)
    return losses


def full_loss(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    return float(batch_losses(model, theta, dataset.features, dataset.labels).mean())


def accuracy(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    """Share of points whose score has the sign of their label."""
    if not model.is_classifier:
        raise ContractViolationError("accuracy is defined for classification kinds only")
    theta, x, y = _inputs(model, theta, dataset.features, dataset.labels)
    return float(np.mean(np.where(_forward(model, theta, x)[1] > 0, 1.0, -1.0) == y))


# ---------------------------------------------------------------- clipping

@dataclass(frozen=True)
class ClipParams:
    """Per-point gradient norm cap, stored as a Python float."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", as_real("clip bound", self.c, ConfigurationError,
                                              low=0, open_low=True))


def clip(g: np.ndarray, clip_params: ClipParams) -> np.ndarray:
    """Rescale g in place onto the ball of radius c when its norm exceeds c; return g.

    g is a float64 array, a single vector or a (k, d) matrix of row vectors;
    rows are clipped independently. Any other g raises ContractViolationError,
    so a caller that needs its input kept passes a copy. The zero vector is a
    fixed point. The result is bit for bit ``rows * factors[:, None]`` with a
    factor of 1 for every row within the bound. Only the rows over the bound
    are scaled (x * 1.0 == x) when they are at most half, which skips numpy's
    slow broadcast multiply; otherwise every row is multiplied.
    """
    if not isinstance(g, np.ndarray) or g.dtype != np.float64:
        raise ContractViolationError("clip works in place on a float64 array")
    c = clip_params.c
    rows = np.atleast_2d(g)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    over = np.flatnonzero(norms > c)
    if not over.size:
        return g
    factors = c / norms[over]
    huge = np.isinf(norms[over])
    if huge.any():
        # the squares overflowed: scale each row by its top entry and never form
        # the norm, which may overflow too; a row that holds inf keeps factor 0
        huge[huge] = np.isfinite(rows[over[huge]]).all(axis=1)
        big = rows[over[huge]]
        top = np.abs(big).max(axis=1)
        unit = big / top[:, None]
        factors[huge] = c / top / np.sqrt(np.einsum("ij,ij->i", unit, unit))
    if 2 * over.size > len(rows):
        scale = np.ones_like(norms)
        scale[over] = factors
        rows *= scale[:, None]
    else:
        sub = rows[over]
        sub *= factors[:, None]  # in place: a second temporary costs page faults at mlp1 width
        rows[over] = sub
    return g


# --------------------------------------------------------- sampling & stats

def _sorted_choice(m: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """One stream's batch, ``np.sort(rng.choice(m, b, replace=False))``.

    The fresh result of ``choice`` is sorted in place, saving the copy
    ``np.sort`` would make; ``rng`` ends where ``choice`` leaves it. The
    caller, ``sample_batch``, has checked b.
    """
    idx = rng.choice(m, size=b, replace=False)
    idx.sort()
    return idx


# numpy's choice without replacement runs Floyd's algorithm unless m exceeds
# this and b exceeds m // _TAIL_SHUFFLE_DIV; then it shuffles the tail of arange(m)
_FLOYD_MAX_M, _TAIL_SHUFFLE_DIV = 10000, 50


def sample_batch(dataset: Dataset, b: int, count: int, stream) -> np.ndarray:
    """One round's batches: a (count, b) matrix of sorted distinct indices of [0, m).

    Row w is drawn from the fresh generator ``stream(w)`` and equals
    ``np.sort(stream(w).choice(m, b, replace=False))`` bit for bit; it is
    uniform over all size-b subsets, and sorting fixes a canonical form of
    the subset. Each generator is discarded after its row. At b == m every
    row is 0..m-1 and no stream is drawn.

    Fast path, the Floyd regime of ``choice``: a fresh generator's
    ``next_uint32`` values are the low then the high halves of its 64-bit
    words, and the draw for j = m-b, ..., m-1 is Lemire's (u (j+1)) >> 32.
    Floyd's set rule then runs on all rows at once: a draw already in the
    row's set is replaced by j. A row in which Lemire would reject a draw,
    and every row outside the Floyd regime, is drawn by ``choice`` itself.
    """
    m = dataset.m
    b, count = as_integer("b", b, low=1, high=m), as_integer("count", count, low=1)
    if b == m:
        return np.tile(np.arange(m), (count, 1))
    if m >= 2 ** 32 or (m > _FLOYD_MAX_M and b > m // _TAIL_SHUFFLE_DIV):
        # past 32-bit draws or outside Floyd's algorithm: choice row by row
        return np.stack([_sorted_choice(m, b, stream(w)) for w in range(count)])

    half = (b + 1) // 2
    words = np.empty((count, half), dtype=np.uint64)
    for w in range(count):
        words[w] = stream(w).bit_generator.random_raw(half)
    # next_uint32 order, by arithmetic so that byte order does not matter
    u = np.empty((count, half, 2), dtype=np.uint64)
    np.bitwise_and(words, 0xFFFFFFFF, out=u[..., 0])
    np.right_shift(words, 32, out=u[..., 1])
    base = m - b
    j = np.arange(base, m, dtype=np.uint64)
    span = j + 1
    scaled = u.reshape(count, 2 * half)[:, :b] * span
    vals = scaled >> 32
    rejected = ((scaled & 0xFFFFFFFF) < 2 ** 32 % span).any(axis=1)

    # Floyd's set before step k is {v_i : i < k} plus the j_i taken for a
    # repeat. So v_k is replaced by j_k when it repeats an earlier draw, or
    # when it equals an earlier j_i that was itself taken.
    shift = b.bit_length()
    keys = (vals << shift) | (j - base)  # (value, step) pairs, below m * 2b < 2**64
    keys.sort(axis=1)
    again = (keys[:, 1:] ^ keys[:, :-1]) < (1 << shift)
    rows = np.arange(0, count * b, b, dtype=np.uint64)[:, None]
    taken = np.zeros(count * b, dtype=bool)
    taken[((keys[:, 1:] & ((1 << shift) - 1)) + rows)[again]] = True
    # each pass settles one more link of a chain v_k = j_i, i < k
    links = np.flatnonzero((vals >= base) & (vals < j) & ~taken.reshape(count, b))
    sources = vals.ravel()[links].astype(np.intp) - base + (links - links % b)
    while True:
        grown = taken[sources]
        if (grown == taken[links]).all():
            break
        taken[links] = grown
    batches = np.where(taken.reshape(count, b), j, vals).astype(np.int64)
    batches.sort(axis=1)
    for w in np.flatnonzero(rejected):
        batches[w] = _sorted_choice(m, b, stream(int(w)))
    return batches


def population_variance(model: Model, theta: np.ndarray, dataset: Dataset) -> float:
    """Mean squared deviation of per-point gradients around the full gradient.

    This is the per-theta realization of the bounded-variance constant. The
    deviations are taken over ``row_blocks``, so no (m, d) matrix is built;
    only the m squared norms are kept, and averaged as one vector.
    """
    mean = full_grad(model, theta, dataset)
    x, y = dataset.features, dataset.labels
    sq = np.empty(dataset.m)
    for lo, hi in row_blocks(dataset.m, model.dim):
        diff = batch_grads(model, theta, x[lo:hi], None if y is None else y[lo:hi])
        diff -= mean
        sq[lo:hi] = np.einsum("ij,ij->i", diff, diff)
    return float(sq.mean())


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
               1e-10 that moves theta helps, or after ``MIN_LOSS_MAX_STEPS``
               steps. A step too small to move theta would repeat itself
               every later step, so it ends the loop at once. Every
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
        w = _expit(y * _forward(model, theta, x)[1])
        hess = (x.T * (w * (1.0 - w))) @ x / dataset.m + model.lam * np.eye(model.dim)
        step = np.linalg.lstsq(hess, g, rcond=None)[0]
        t = 1.0
        while True:
            trial = theta - t * step
            if t <= 1e-10 or np.array_equal(trial, theta):
                return loss  # no step that moves theta lowers the loss
            trial_loss = full_loss(model, trial, dataset)
            if trial_loss <= loss:
                break
            t *= 0.5
        theta, loss = trial, trial_loss
    return loss
