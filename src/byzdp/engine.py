"""Synchronous round loop: broadcast, noisy worker gradients, forgery, aggregate, step.

Each round t every honest worker samples a batch without replacement,
averages its clipped per-point gradients, adds Gaussian noise, optionally
folds the result into a momentum buffer, and submits. One ``sample_batch``
call draws the batches of all honest workers for a block of rounds, worker
w's batch of round t from its own (w, t) batch stream; a batch never depends
on theta, so drawing it ahead changes no bit. The batch rows are gathered
with ``take`` and their per-point gradients clipped in place. One
``gaussian_noise`` call draws the noise of all honest workers of a round,
worker w's row from its own (w, t) noise stream. Forged workers all submit the
attack vector computed from the honest submissions of the same round. The
round builds the n messages in one fresh (n, d) array, honest rows first and
the f forged rows last; the server aggregates it and takes the step
theta <- theta - gamma_t * R_t. At b == m every batch is the whole dataset
in canonical order: no batch stream is drawn, and the one clipped
full-batch mean is summed over row blocks, as ``full_grad`` sums, and
copied to every honest row.

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
                    full_grad, full_loss, row_blocks, row_sum, sample_batch)
from .privacy import PrivacyParams, gaussian_noise

SCHEDULES = ("inv_sqrt", "constant")

PURPOSE_BATCH, PURPOSE_NOISE, PURPOSE_INIT = 0, 1, 2

_WORKER_BITS, _ROUND_BITS = 30, 32

_DRAW_ENTRIES = 1 << 14  # batch indices per sample_batch call: 128 KB


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
    The old state is never read back, which would build numpy arrays per call,
    and the state dict is built once: a rekey only replaces its key.
    """

    _ZEROS = (0, 0, 0, 0)

    def __init__(self, master_seed: int):
        self._seed = master_seed
        self._bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._cell = {"counter": self._ZEROS, "key": (master_seed, 0)}
        self._state = {"bit_generator": "Philox", "state": self._cell, "buffer": self._ZEROS,
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def get(self, worker_id: int, round_no: int, purpose: int) -> np.random.Generator:
        packed = (worker_id << (_ROUND_BITS + 2)) | (round_no << 2) | purpose
        self._cell["key"] = (self._seed, packed)
        self._bg.state = self._state
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


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; bit-identical runs follow from equal configs.

    Frozen, so a config keeps the checks its constructor ran, the privacy
    calibration's b, m and C among them; ``dataclasses.replace`` builds a
    checked variant.
    """

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
        # _StreamPool packs stream keys unchecked: every round and worker must fit
        if self.steps >= 2 ** _ROUND_BITS:
            raise ConfigurationError(f"steps must be below 2**{_ROUND_BITS}, the stream key's "
                                     f"round budget, got {self.steps}")
        if self.n >= 2 ** _WORKER_BITS:
            raise ConfigurationError(f"n must be below 2**{_WORKER_BITS}, the stream key's "
                                     f"worker budget, got {self.n}")
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be >= 1")
        if self.eval_every > self.steps:
            raise ConfigurationError("eval_every cannot exceed steps")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(f"unknown schedule '{self.schedule}'")
        if self.schedule == "constant":
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ConfigurationError("constant schedule needs a positive, finite gamma")
        elif self.gamma is not None:
            raise ConfigurationError("inv_sqrt uses gamma_t = 1/sqrt(t); do not set gamma")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigurationError("master_seed must fit in 64 unsigned bits")
        if self.model.is_classifier and self.dataset.labels is None:
            raise ConfigurationError(f"{self.model.kind} model needs labeled data")
        if self.dataset.n_features != self.model.n_features:
            raise ConfigurationError(f"dataset has {self.dataset.n_features} features, "
                                     f"the {self.model.kind} model takes {self.model.n_features}")
        if self.privacy is not None:
            if self.privacy.b != self.b:
                raise ConfigurationError(
                    f"privacy calibrated for b={self.privacy.b}, run uses b={self.b}")
            if self.privacy.m != self.dataset.m:
                raise ConfigurationError(
                    f"privacy calibrated for m={self.privacy.m}, dataset has m={self.dataset.m}")
            if self.clip is None:
                object.__setattr__(self, "clip", ClipParams(self.privacy.c))
            elif self.clip.c != self.privacy.c:
                raise ConfigurationError("clip bound differs from the privacy calibration")

    def learning_rate(self, t: int) -> float:
        if self.schedule == "constant":
            return self.gamma
        return 1.0 / math.sqrt(t)


@dataclass(frozen=True)
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

def _clipped_grads(config: RunConfig, theta: np.ndarray, features: np.ndarray,
                   labels: np.ndarray | None) -> np.ndarray:
    """The per-point gradients of the given rows, clipped in place when the run clips."""
    grads = batch_grads(config.model, theta, features, labels)
    return grads if config.clip is None else clip(grads, config.clip)


def _batches(config: RunConfig, pool: _StreamPool):
    """Each round's (n_honest, b) batch matrix, in round order, for b < m.

    One ``sample_batch`` call draws a block of rounds, about ``_DRAW_ENTRIES``
    indices: row r of a block starting at round t0 is worker r % n_honest's
    batch of round t0 + r // n_honest, drawn from that cell's batch stream.
    The last block stops at ``config.steps``.
    """
    n_honest, b, steps = config.n - config.f, config.b, config.steps
    rounds = max(1, _DRAW_ENTRIES // (n_honest * b))
    for t0 in range(1, steps + 1, rounds):
        count = min(rounds, steps + 1 - t0)
        idx = sample_batch(config.dataset, b, count * n_honest,
                           lambda r: pool.get(r % n_honest, t0 + r // n_honest, PURPOSE_BATCH))
        yield from idx.reshape(count, n_honest, b)


def run(config: RunConfig) -> RunResult:
    """Execute the configured number of rounds; see the module docstring.

    Metrics are taken at theta_t (before the update) on every round divisible
    by eval_every, using the exact full-dataset gradient and loss.

    Each round hands a fresh (n, d) message array, the f forged rows last, to
    this module's ``aggregate`` binding; wrapping that binding observes them.
    Each block of rounds with b < m makes one call to this module's
    ``sample_batch`` binding (see ``_batches``); at b == m the single full
    batch is not drawn from the batch streams. Each round with s > 0 makes
    one call to this module's ``gaussian_noise`` binding, which rekeys the
    pooled generator once per honest worker.
    """
    model, dataset = config.model, config.dataset
    n, f, b, d = config.n, config.f, config.b, model.dim
    n_honest = n - f
    m, x, labels = dataset.m, dataset.features, dataset.labels
    s = config.s
    pool = _StreamPool(config.master_seed)

    theta = initial_theta(config)
    momenta = np.zeros((n_honest, d)) if config.momentum > 0.0 else None
    records: list[MetricsRecord] = []
    min_sq = math.inf
    # at b == m the one batch is the whole dataset, drawn from no stream
    batches = None if b == m else _batches(config, pool)

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
        if batches is None:
            # one clipped mean over row blocks, summed in order as full_grad does
            honest[:] = row_sum(lambda lo, hi: _clipped_grads(
                config, theta, x[lo:hi], None if labels is None else labels[lo:hi]), m, d) / m
        else:
            idx = next(batches)
            # cache-sized blocks of whole workers; see model.row_blocks
            for lo, hi in row_blocks(n_honest, d, b):
                rows = idx[lo:hi].ravel()
                grads = _clipped_grads(config, theta, x.take(rows, axis=0),
                                       None if labels is None else labels.take(rows))
                honest[lo:hi] = grads.reshape(-1, b, d).mean(axis=1)
        if s > 0.0:
            honest += gaussian_noise(d, s, n_honest, lambda w: pool.get(w, t, PURPOSE_NOISE))
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


@dataclass(frozen=True)
class CellResult:
    params: dict
    # the resolved configuration; None when the cell's overrides did not resolve
    config: RunConfig | None = field(compare=False, repr=False)
    # the run's result; None when the cell failed, for the reason given
    result: RunResult | None = field(compare=False, repr=False)
    reason: str | None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def cell_id(self) -> str:
        return cell_digest(self.params)


def cell_digest(params: dict) -> str:
    """Stable short id from the resolved cell parameters."""
    canon = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _axis_value(axis: str, value):
    """The Python value a grid value names.

    np.int64(9) is 9, "none" on the epsilon axis is no privacy, and None on
    the attack axis is the "none" attack.
    """
    value = value.item() if isinstance(value, np.generic) else value
    if axis == "attack" and value is None:
        return "none"
    return None if axis == "epsilon" and value == "none" else value


def _cell_params(base: RunConfig, overrides: dict) -> dict:
    """Every axis of a cell: its override, else the base value."""
    params = {
        "b": base.b,
        "epsilon": None if base.privacy is None else base.privacy.epsilon,
        "gar": base.gar.rule,
        "attack": base.attack.kind,
        "f": base.f,
        "seed": base.master_seed,
    }
    params.update((axis, _axis_value(axis, value)) for axis, value in overrides.items())
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
        privacy = replace(base.privacy, epsilon=params["epsilon"], b=params["b"])
    # base.clip equals base.privacy.c whenever privacy is set, and so fits every recalibration
    return replace(base, gar=gar, attack=atk, privacy=privacy, b=params["b"],
                   master_seed=params["seed"])


def _run_cell(config: RunConfig) -> tuple[RunResult | None, str | None]:
    try:
        return run(config), None
    except (ConfigurationError, ContractViolationError) as exc:
        return None, str(exc)


def sweep(base: RunConfig, grid: dict, jobs: int = 1) -> list[CellResult]:
    """Run the Cartesian product of the grid axes over the base configuration.

    Recognized axes: b, epsilon, gar, attack, f, seed. Changing b or epsilon
    recalibrates the noise scale from the base privacy budget; the string
    "none" on the epsilon axis disables privacy for that cell, and None on
    the attack axis is the "none" attack. A value named
    twice on one axis, after a numpy scalar becomes its Python value, raises
    ConfigurationError. Invalid cells are reported as failed and do not stop
    the sweep. Every cell resolves to its RunConfig in the caller; only the
    runs go to the ``jobs`` worker processes, at most one per cell that
    resolved. Results are returned in deterministic product order regardless
    of the job count.
    """
    if jobs < 1:
        raise ContractViolationError(f"sweep jobs must be at least 1, got {jobs}")
    if not grid:
        raise ContractViolationError("sweep grid must not be empty")
    unknown = set(grid) - set(SWEEP_AXES)
    if unknown:
        raise ConfigurationError(f"unknown sweep axes: {sorted(unknown)}")
    axes = [axis for axis in SWEEP_AXES if axis in grid]
    for axis in axes:
        if not grid[axis]:
            raise ContractViolationError(f"sweep axis '{axis}' has no values")
        # a repeated value would run one cell twice and count it twice in aggregate.csv
        named = [repr(_axis_value(axis, value)) for value in grid[axis]]
        for i, value in enumerate(named):
            if value in named[:i]:
                raise ConfigurationError(f"sweep axis '{axis}' names the value {value} twice")
    cells = []
    for combo in product(*(grid[a] for a in axes)):
        params = _cell_params(base, dict(zip(axes, combo)))
        try:
            cells.append((params, _resolve_cell(base, params), None))
        except (ConfigurationError, ContractViolationError) as exc:
            cells.append((params, None, str(exc)))
    configs = [config for _, config, _ in cells if config is not None]
    workers = min(jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, configs))
    else:
        outcomes = [_run_cell(config) for config in configs]
    runs = iter(outcomes)
    return [CellResult(params, config,
                       *(next(runs) if config is not None else (None, reason)))
            for params, config, reason in cells]
