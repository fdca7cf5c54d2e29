"""Synchronous round loop: broadcast, noisy worker gradients, forgery, aggregate, step.

Each round t every honest worker samples a batch without replacement,
averages its clipped per-point gradients, adds Gaussian noise, optionally
folds the result into a momentum buffer, and submits. Forged workers all
submit the attack vector computed from the honest submissions of the same
round. The round builds the n messages in one fresh (n, d) array, honest
rows first and the f forged rows last; the server aggregates it and takes
the step theta <- theta - gamma_t * R_t. At b == m every batch is the whole
dataset in canonical order: no batch stream is drawn, and the one clipped
full-batch mean is computed once and copied to every honest row.

Randomness is drawn from counter-based streams keyed by
(master_seed, worker_id, round, purpose), purpose 0 = batch, 1 = noise,
2 = the theta_1 initializer. Runs are therefore bit-reproducible and
independent of how worker computations are scheduled.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .aggregation import GarSpec, aggregate
from .attack import AttackSpec, forge
from .errors import ConfigurationError, ContractViolationError, check_integers
from .model import (ClipParams, Dataset, Model, accuracy, batch_grads, clip,
                    full_grad, full_loss, row_blocks, sample_batch)
from .privacy import PrivacyParams, gaussian_noise

SCHEDULES = ("inv_sqrt", "constant")

PURPOSE_BATCH, PURPOSE_NOISE, PURPOSE_INIT = 0, 1, 2

_WORKER_BITS, _ROUND_BITS = 30, 32


def _stream_key(master_seed: int, worker_id: int, round_no: int, purpose: int) -> np.ndarray:
    if not 0 <= master_seed < 2 ** 64:
        raise ContractViolationError("master seed must fit in 64 unsigned bits")
    if worker_id >= 2 ** _WORKER_BITS or round_no >= 2 ** _ROUND_BITS:
        raise ContractViolationError("worker id or round exceeds the stream key budget")
    packed = (worker_id << (_ROUND_BITS + 2)) | (round_no << 2) | purpose
    return np.array([master_seed, packed], dtype=np.uint64)


def worker_stream(master_seed: int, worker_id: int, round_no: int,
                  purpose: int) -> np.random.Generator:
    """A fresh generator for one (worker, round, purpose) cell of a run."""
    return np.random.Generator(np.random.Philox(key=_stream_key(
        master_seed, worker_id, round_no, purpose)))


def initial_theta(config: "RunConfig") -> np.ndarray:
    """The deterministic theta_1 of a run: i.i.d. uniform on [-0.5, 0.5]."""
    stream = worker_stream(config.master_seed, 0, 0, PURPOSE_INIT)
    return stream.uniform(-0.5, 0.5, config.model.dim)


class _StreamPool:
    """Reuses one Philox generator by rekeying it; equals worker_stream draws.

    A rekey assigns a fresh state of plain Python ints: key (seed, packed
    cell), counter zero, an exhausted buffer (buffer_pos 4) and no cached
    32-bit half. That is the state ``Philox(key=...)`` starts in, so every
    draw matches ``worker_stream``, whatever the previous key left behind.
    The old state is never read back, which would build numpy arrays per call.
    """

    _ZEROS = (0, 0, 0, 0)

    def __init__(self, master_seed: int):
        self._seed = master_seed
        _stream_key(master_seed, 0, 0, 0)
        self._bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)

    def get(self, worker_id: int, round_no: int, purpose: int) -> np.random.Generator:
        packed = (worker_id << (_ROUND_BITS + 2)) | (round_no << 2) | purpose
        self._bg.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._ZEROS, "key": (self._seed, packed)},
            "buffer": self._ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._gen


# -------------------------------------------------------------------- types

@dataclass(frozen=True)
class MetricsRecord:
    """Exact full-dataset measurements at the start of round t."""

    round_no: int
    loss: float
    grad_norm: float
    min_sq_grad_norm: float
    accuracy: float | None
    s: float
    gamma: float


@dataclass
class RunConfig:
    """Everything a run depends on; bit-identical runs follow from equal configs."""

    model: Model
    dataset: Dataset
    gar: GarSpec
    b: int
    steps: int
    attack: AttackSpec = field(default_factory=lambda: AttackSpec("none"))
    privacy: PrivacyParams | None = None
    clip: ClipParams | None = None
    schedule: str = "inv_sqrt"
    gamma: float | None = None
    momentum: float = 0.0
    master_seed: int = 1
    eval_every: int = 1

    @property
    def n(self) -> int:
        return self.gar.n

    @property
    def f(self) -> int:
        return self.gar.f

    @property
    def s(self) -> float:
        return self.privacy.s if self.privacy is not None else 0.0

    def __post_init__(self):
        check_integers(self, "b", "steps", "eval_every", "master_seed")
        if not 1 <= self.b <= self.dataset.m:
            raise ConfigurationError(f"need 1 <= b <= m, got b={self.b}, m={self.dataset.m}")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be >= 1")
        if self.eval_every > self.steps:
            raise ConfigurationError("eval_every cannot exceed steps")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(f"unknown schedule '{self.schedule}'")
        if self.schedule == "constant":
            if self.gamma is None or not self.gamma > 0:
                raise ConfigurationError("constant schedule needs a positive gamma")
        elif self.gamma is not None:
            raise ConfigurationError("inv_sqrt uses gamma_t = 1/sqrt(t); do not set gamma")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigurationError("master_seed must fit in 64 unsigned bits")
        if self.model.is_classifier:
            if self.dataset.labels is None:
                raise ConfigurationError(f"{self.model.kind} model needs labeled data")
            if self.dataset.n_features != self.model.n_features:
                raise ConfigurationError("dataset feature count does not match the model")
        else:
            if self.dataset.n_features != self.model.dim:
                raise ConfigurationError("quadratic targets must have the model dimension")
        if self.privacy is not None:
            if self.privacy.b != self.b:
                raise ConfigurationError(
                    f"privacy calibrated for b={self.privacy.b}, run uses b={self.b}")
            if self.privacy.m != self.dataset.m:
                raise ConfigurationError(
                    f"privacy calibrated for m={self.privacy.m}, dataset has m={self.dataset.m}")
            if self.clip is None:
                self.clip = ClipParams(self.privacy.c)
            elif self.clip.c != self.privacy.c:
                raise ConfigurationError("clip bound differs from the privacy calibration")

    def learning_rate(self, t: int) -> float:
        if self.schedule == "constant":
            return self.gamma
        return 1.0 / math.sqrt(t)


@dataclass
class RunResult:
    records: list[MetricsRecord]
    theta: np.ndarray

    @property
    def max_accuracy(self) -> float | None:
        accs = [r.accuracy for r in self.records if r.accuracy is not None]
        return max(accs) if accs else None

    @property
    def min_sq_grad_norm(self) -> float:
        return self.records[-1].min_sq_grad_norm

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss


# ---------------------------------------------------------------------- run

def run(config: RunConfig) -> RunResult:
    """Execute the configured number of rounds; see the module docstring.

    Metrics are taken at theta_t (before the update) on every round divisible
    by eval_every, using the exact full-dataset gradient and loss.

    Each round hands a fresh (n, d) message array, the f forged rows last, to
    this module's ``aggregate`` binding; wrapping that binding observes them.
    At b == m the single full batch is not drawn from the batch streams.
    """
    model, dataset = config.model, config.dataset
    n, f, b, d = config.n, config.f, config.b, model.dim
    n_honest = n - f
    m = dataset.m
    s = config.s
    x, labels = dataset.features, dataset.labels
    pool = _StreamPool(config.master_seed)

    theta = initial_theta(config)
    momenta = np.zeros((n_honest, d)) if config.momentum > 0.0 else None
    records: list[MetricsRecord] = []
    min_sq = math.inf
    # at b == m the one batch is the whole dataset: a view, drawn from no stream
    full = b == m
    idx = None if full else np.empty((n_honest, b), dtype=np.intp)

    for t in range(1, config.steps + 1):
        gamma_t = config.learning_rate(t)

        if t % config.eval_every == 0:
            loss = full_loss(model, theta, dataset)
            grad = full_grad(model, theta, dataset)
            with np.errstate(over="ignore"):
                gnorm = float(np.linalg.norm(grad))
            if math.isinf(gnorm) and np.isfinite(grad).all():
                # the squares overflowed: scale by the top entry, as clip does
                top = float(np.abs(grad).max())
                gnorm = top * float(np.linalg.norm(grad / top))
            min_sq = min(min_sq, gnorm * gnorm)
            acc = accuracy(model, theta, dataset) if model.is_classifier else None
            records.append(MetricsRecord(t, loss, gnorm, min_sq, acc, s, gamma_t))

        messages = np.empty((n, d))
        honest = messages[:n_honest]
        if not full:
            for w in range(n_honest):
                idx[w] = sample_batch(dataset, b, pool.get(w, t, PURPOSE_BATCH))
        # cache-sized blocks of whole workers; see model.row_blocks
        for lo, hi in row_blocks(1 if full else n_honest, d, b):
            rows = slice(None) if full else idx[lo:hi].ravel()
            grads = batch_grads(model, theta, x[rows],
                                None if labels is None else labels[rows])
            if config.clip is not None:
                grads = clip(grads, config.clip)
            honest[lo:hi] = grads.reshape(-1, b, d).mean(axis=1)
        if full:
            honest[1:] = honest[0]
        if s > 0.0:
            for w in range(n_honest):
                honest[w] += gaussian_noise(d, s, pool.get(w, t, PURPOSE_NOISE))
        if momenta is not None:
            momenta *= config.momentum
            momenta += honest
            honest[:] = momenta
        if f > 0:
            messages[n_honest:] = forge(config.attack, honest)

        r_t = aggregate(config.gar, messages)
        theta = theta - gamma_t * r_t

    return RunResult(records, theta)


# -------------------------------------------------------------------- sweep

SWEEP_AXES = ("b", "epsilon", "gar", "attack", "f", "seed")


@dataclass
class CellResult:
    cell_id: str
    params: dict
    status: str
    reason: str | None = None
    max_accuracy: float | None = None
    min_sq_grad_norm: float | None = None
    final_loss: float | None = None
    records: list[MetricsRecord] | None = None
    # the resolved configuration; None when the cell's overrides did not resolve
    config: RunConfig | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def cell_digest(params: dict) -> str:
    """Stable short id from the resolved cell parameters."""
    canon = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _cell_params(base: RunConfig, overrides: dict) -> dict:
    """Every axis of a cell: its override, else the base value; "none" is no epsilon."""
    params = {
        "b": base.b,
        "epsilon": None if base.privacy is None else base.privacy.epsilon,
        "gar": base.gar.rule,
        "attack": base.attack.kind,
        "f": base.f,
        "seed": base.master_seed,
    }
    params.update(overrides)
    if params["epsilon"] == "none":
        params["epsilon"] = None
    return params


def _resolve_cell(base: RunConfig, params: dict) -> RunConfig:
    gar = GarSpec(params["gar"], base.n, params["f"])
    kind = params["attack"]
    # a new kind takes its default zeta; AttackSpec rejects unknown kinds
    atk = AttackSpec(kind, base.attack.zeta if kind == base.attack.kind else None)
    if params["epsilon"] is None:
        privacy = None
    elif base.privacy is None:
        raise ConfigurationError(
            "an epsilon grid needs a privacy-calibrated base configuration")
    else:
        privacy = PrivacyParams(params["epsilon"], base.privacy.delta, base.privacy.c,
                                params["b"], base.privacy.m)
    # base.clip equals base.privacy.c whenever privacy is set, and so fits every recalibration
    return replace(base, gar=gar, attack=atk, privacy=privacy, b=params["b"],
                   master_seed=params["seed"])


def _run_cell(args) -> CellResult:
    base, overrides = args
    params = _cell_params(base, overrides)
    cell_id = cell_digest(params)
    config = None
    try:
        config = _resolve_cell(base, params)
        result = run(config)
    except (ConfigurationError, ContractViolationError) as exc:
        return CellResult(cell_id, params, "failed", reason=str(exc), config=config)
    return CellResult(cell_id, params, "ok", None, result.max_accuracy,
                      result.min_sq_grad_norm, result.final_loss, result.records, config)


def sweep(base: RunConfig, grid: dict, jobs: int = 1) -> list[CellResult]:
    """Run the Cartesian product of the grid axes over the base configuration.

    Recognized axes: b, epsilon, gar, attack, f, seed. Changing b or epsilon
    recalibrates the noise scale from the base privacy budget; the string
    "none" on the epsilon axis disables privacy for that cell. Invalid cells
    are reported as failed and do not stop the sweep. Results are returned in
    deterministic product order regardless of the job count, each with the
    RunConfig its cell resolved to.
    """
    if not grid:
        raise ContractViolationError("sweep grid must not be empty")
    unknown = set(grid) - set(SWEEP_AXES)
    if unknown:
        raise ConfigurationError(f"unknown sweep axes: {sorted(unknown)}")
    axes = [axis for axis in SWEEP_AXES if axis in grid]
    for axis in axes:
        if not grid[axis]:
            raise ContractViolationError(f"sweep axis '{axis}' has no values")
    cells = [dict(zip(axes, combo)) for combo in product(*(grid[a] for a in axes))]
    tasks = [(base, overrides) for overrides in cells]
    if jobs > 1:
        results = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for res in pool.map(_run_cell, tasks):
                # an unpickled config carries its own copy of the dataset; share one
                if res.config is not None:
                    res.config.dataset = base.dataset
                results.append(res)
        return results
    return [_run_cell(task) for task in tasks]
