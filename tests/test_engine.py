"""Round loop, streams, determinism, sweeps."""

import concurrent.futures
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzdp import (AttackSpec, ClipParams, ConfigurationError, ContractViolationError,
                   Dataset, GarSpec, PrivacyParams, RunConfig, aggregate, clip, forge,
                   full_grad, full_loss, gaussian_blobs, gaussian_noise, initial_theta, logistic_model,
                   mlp1_model, quadratic_model, regression_targets, rounds, run,
                   sweep, worker_stream)
from byzdp.engine import (PURPOSE_BATCH, PURPOSE_INIT, PURPOSE_NOISE, _StreamPool,
                          cell_digest)
from byzdp.cli import summary_csv_text
from byzdp.model import batch_grads
import byzdp.engine
import byzdp.model


def quadratic_config(**overrides):
    ds = regression_targets(0, 40, 4, spread=0.5)
    model = quadratic_model(np.eye(4))
    defaults = dict(model=model, dataset=ds, gar=GarSpec("average", 5, 0),
                    b=40, steps=30, schedule="constant", gamma=0.5)
    defaults.update(overrides)
    return RunConfig(**defaults)


# ----------------------------------------------------------------- streams

def test_worker_streams_are_keyed_and_disjoint():
    a = worker_stream(7, 1, 5, PURPOSE_BATCH).normal(size=4)
    b = worker_stream(7, 1, 5, PURPOSE_BATCH).normal(size=4)
    assert np.array_equal(a, b)
    c = worker_stream(7, 1, 5, PURPOSE_NOISE).normal(size=4)
    d = worker_stream(7, 2, 5, PURPOSE_BATCH).normal(size=4)
    e = worker_stream(8, 1, 5, PURPOSE_BATCH).normal(size=4)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_stream_pool_matches_fresh_streams():
    pool = _StreamPool(99)
    gen = pool.get(0, 1, 0)
    for worker, rno, purpose in ((0, 1, 0), (3, 2, 1), (7, 40, 0), (2, 1, 2)):
        got = pool.get(worker, rno, purpose).normal(size=6)
        want = worker_stream(99, worker, rno, purpose).normal(size=6)
        assert np.array_equal(got, want)
    # interleaved consumption does not leak state between keys
    g1 = pool.get(0, 1, 0)
    x1 = g1.normal(size=3)
    x2 = pool.get(0, 1, 0).normal(size=3)
    assert np.array_equal(x1, x2)
    # a rekey after a draw that caches a 32-bit half (has_uint32 = 1), and
    # after one that leaves the 4-word output buffer partly consumed
    for leftover in (lambda r: r.integers(0, 7, dtype=np.int32),
                     lambda r: r.integers(0, 2**60, size=3)):
        leftover(pool.get(5, 6, 0))
        got = pool.get(5, 6, 1).integers(0, 2**40, size=9)
        assert np.array_equal(got, worker_stream(99, 5, 6, 1).integers(0, 2**40, size=9))
    assert pool.get(1, 1, 1) is gen
    # the largest master seed, worker id and round the key can hold
    seed, worker, rno = 2**64 - 1, 2**30 - 1, 2**32 - 1
    pool = _StreamPool(seed)
    gen = pool.get(0, 1, 0)
    gen.integers(0, 7, dtype=np.int32)
    for purpose in (PURPOSE_BATCH, PURPOSE_NOISE, PURPOSE_INIT):
        got = pool.get(worker, rno, purpose)
        assert got is gen
        want = worker_stream(seed, worker, rno, purpose)
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
        assert np.array_equal(got.integers(0, 2**31, dtype=np.int32),
                              want.integers(0, 2**31, dtype=np.int32))


# per case: calls of batch_grads, clip, full_grad and full_loss per run
SHARED = {"grads": 6, "clip": 6, "full_grad": 0, "full_loss": 3}


@pytest.mark.parametrize("b,entries,calls", [
    pytest.param(10, None, SHARED, id="10"),
    pytest.param(40, None, {"grads": 6, "clip": 6, "full_grad": 3, "full_loss": 3}, id="40"),
    pytest.param(10, 200, SHARED, id="10-blocks_of_4"),
    pytest.param(7, None, {"grads": 6, "clip": 6, "full_grad": 3, "full_loss": 3},
                 id="7-per_worker")])
def test_round_loop_draws_through_module_bindings(monkeypatch, b, entries, calls):
    # the benchmark's tracer wraps these bindings and needs them called; one
    # call draws the batches of a block of rounds and one the noise of a
    # round, one rekey per honest worker and round for each, and at b == m = 40
    # the full batch is drawn from no stream.
    # 200 entries make blocks of 4 rounds of 5 workers, so the second block
    # stops at round 6 of 6.
    # At b = 10 the 50 batch rows hold all 40 points: each round fills the
    # shared matrix in one batch_grads call and clips it in one, and the
    # metrics sum that matrix, so full_grad is never called. At b = 7 the 35
    # rows take one block per round, and the metrics call full_grad
    if entries is not None:
        monkeypatch.setattr(byzdp.engine, "_DRAW_ENTRIES", entries)
    counts = {"batch": 0, "noise": 0, "rekey": 0, "grads": 0, "clip": 0, "full_grad": 0,
              "full_loss": 0}
    keys = []

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    def keyed(pool, *key, get=_StreamPool.get):
        keys.append(key)
        return get(pool, *key)

    monkeypatch.setattr(byzdp.engine, "sample_batch",
                        counting("batch", byzdp.engine.sample_batch))
    monkeypatch.setattr(byzdp.engine, "gaussian_noise",
                        counting("noise", byzdp.engine.gaussian_noise))
    monkeypatch.setattr(_StreamPool, "get", counting("rekey", keyed))
    for name, key in (("batch_grads", "grads"), ("clip", "clip"), ("full_grad", "full_grad"),
                      ("full_loss", "full_loss")):
        monkeypatch.setattr(byzdp.engine, name, counting(key, getattr(byzdp.engine, name)))
    config = quadratic_config(gar=GarSpec("mda", 7, 2), b=b, steps=6,
                              attack=AttackSpec("little"), eval_every=2,
                              privacy=PrivacyParams(0.5, 1e-4, 1.5, b, 40))
    assert config.s > 0
    run(config)
    n_honest, steps, eval_rounds = 5, 6, 3
    layered = {key: counts.pop(key) for key in ("grads", "clip", "full_grad", "full_loss")}
    drawn = b < 40
    rounds = (entries or byzdp.engine._DRAW_ENTRIES) // (n_honest * b)
    assert counts == {"batch": math.ceil(steps / rounds) * drawn, "noise": steps,
                      "rekey": n_honest * steps * drawn + n_honest * steps}
    # every (worker, round, purpose) cell is keyed once, and none past the last round
    cells = [(w, t, p) for t in range(1, steps + 1) for w in range(n_honest)
             for p in (PURPOSE_BATCH, PURPOSE_NOISE) if drawn or p == PURPOSE_NOISE]
    assert sorted(keys) == sorted(cells)
    # per-point gradients and clipping may run in several blocks per round
    assert layered["grads"] >= steps and layered["clip"] >= steps
    # one loss pass per eval round on every path
    assert layered["full_loss"] == eval_rounds
    assert layered == calls


def test_stream_pool_choice_matches():
    pool = _StreamPool(5)
    got = pool.get(4, 9, 0).choice(100, 10, replace=False)
    want = worker_stream(5, 4, 9, 0).choice(100, 10, replace=False)
    assert np.array_equal(got, want)


# ------------------------------------------------------------- row blocks

def _blocked_run_config(kind, b, m, binds):
    """A short attacked run whose clip bound binds none, some or all rows."""
    if kind == "quadratic":
        model = quadratic_model(np.diag(np.linspace(0.5, 2.0, 6)), lam=1e-3)
        ds = regression_targets(3, m, 6, spread=0.5)
    elif kind == "quadratic_d1":
        model = quadratic_model(np.array([[1.5]]), lam=1e-3)
        ds = regression_targets(3, m, 1, spread=0.5)
    elif kind == "logistic":
        model, ds = logistic_model(6, lam=1e-3), gaussian_blobs(3, m, 6)
    else:
        model, ds = mlp1_model(5, 4, lam=1e-3), gaussian_blobs(3, m, 5)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("median", 11, 2), b=b,
                       steps=3, attack=AttackSpec("little"), schedule="constant",
                       gamma=0.5, momentum=0.5)
    grads = batch_grads(model, initial_theta(config), ds.features, ds.labels)
    norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    c = {"none": 2.0 * norms.max(), "some": float(np.median(norms)),
         "all": 0.5 * norms.min()}[binds]
    return replace(config, clip=ClipParams(c))


@pytest.mark.parametrize("binds", ["none", "some", "all"])
@pytest.mark.parametrize("m", [4000, 4001])
@pytest.mark.parametrize("b", [1, 3, 25, 128])
@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp1"])
def test_blocked_round_matches_one_block(monkeypatch, kind, b, m, binds):
    # nine honest workers: at the smallest budget every block is one worker
    config = _blocked_run_config(kind, b, m, binds)
    monkeypatch.setattr(byzdp.model, "_BLOCK_FLOATS", 1 << 62)
    whole = run(config)
    monkeypatch.setattr(byzdp.model, "_BLOCK_FLOATS", 1)
    blocked = run(config)
    assert np.array_equal(blocked.theta, whole.theta)
    assert blocked.records == whole.records


@pytest.mark.parametrize("budget", [1, 1 << 16])
@pytest.mark.parametrize("binds", ["none", "some", "all"])
@pytest.mark.parametrize("kind", ["quadratic", "quadratic_d1", "logistic", "mlp1"])
def test_full_batch_round_is_the_one_block_mean(monkeypatch, kind, binds, budget):
    # at b == m the clipped rows are summed block by block, each block's first
    # row carrying the sum so far; every honest row is the one-block mean
    monkeypatch.setattr(byzdp.model, "_BLOCK_FLOATS", budget)
    config = replace(_blocked_run_config(kind, 4001, 4001, binds), steps=1)
    model, ds = config.model, config.dataset
    grads = batch_grads(model, initial_theta(config), ds.features, ds.labels)
    want = clip(grads, config.clip).mean(axis=0)
    _, _, messages, _, _, _ = next(rounds(config))
    honest = messages[:config.n - config.f]
    assert all(np.array_equal(row, want) for row in honest)


@pytest.mark.parametrize("b,m", [(1, 4000), (1, 4001), (25, 4000), (25, 4001),
                                 (128, 4000), (128, 4001), (500, 20000), (4001, 4001)])
@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp1"])
def test_block_of_rounds_keeps_every_bit(monkeypatch, kind, b, m):
    # one round per sample_batch call draws as a round-by-round loop does;
    # blocks of 3 rounds end mid-run at 7 steps; 1 << 62 draws the run in one
    # call. m = 20000, b = 500 is outside Floyd's regime, drawn row by row
    config = replace(_blocked_run_config(kind, b, m, "some"), steps=7)
    default = run(config)
    for entries in (1, 3 * 9 * b, 1 << 62):
        monkeypatch.setattr(byzdp.engine, "_DRAW_ENTRIES", entries)
        got = run(config)
        assert np.array_equal(got.theta, default.theta), entries
        assert got.records == default.records, entries


def test_long_run_holds_one_block_of_batches():
    # the whole run's batches would take 10,000 rounds x 3 workers x 25 indices,
    # 6 MB; one block takes 16,384 indices, 128 KB
    config = RunConfig(model=quadratic_model(np.eye(2)), dataset=regression_targets(0, 200, 2),
                       gar=GarSpec("average", 3, 0), b=25, steps=10_000, schedule="constant",
                       gamma=0.1, eval_every=10_000)
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_full_batch_round_stays_in_row_blocks():
    # one (m, d) matrix of mlp1 gradients at m = 4000, d = 705 takes 22.5 MB
    model, ds = mlp1_model(20, 32, lam=1e-3), gaussian_blobs(3, 4000, 20)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 5, 0), b=4000,
                       steps=2, schedule="constant", gamma=0.1, clip=ClipParams(0.5),
                       eval_every=2)
    assert model.dim == 705
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ------------------------------------------------------------- shared pass

@st.composite
def shared_pass_configs(draw):
    """A short run whose batches hold every point: b < m <= n_honest * b, m <= 64."""
    kind = draw(st.sampled_from(["quadratic", "logistic", "mlp1"]))
    m = draw(st.integers(2, 64))
    n_honest = draw(st.integers(2, 8))
    b = draw(st.integers(-(-m // n_honest), m - 1))
    seed = draw(st.integers(0, 1000))
    width = draw(st.integers(1, 20))
    if kind == "quadratic":
        model = quadratic_model(np.diag(np.linspace(0.5, 2.0, width)), lam=1e-3)
        ds = regression_targets(seed, m, width, spread=0.5)
    elif kind == "logistic":
        model, ds = logistic_model(width, lam=1e-3), gaussian_blobs(seed, m, width)
    else:
        model = mlp1_model(width, draw(st.integers(1, 32)), lam=1e-3)
        ds = gaussian_blobs(seed, m, width)
    f = draw(st.integers(1, min(3, n_honest - 1))) if draw(st.booleans()) else 0
    gar = GarSpec("mda", n_honest + f, f) if f else GarSpec("average", n_honest, 0)
    config = RunConfig(model=model, dataset=ds, gar=gar, b=b, steps=3,
                       attack=AttackSpec("little"), schedule="constant", gamma=0.5,
                       momentum=draw(st.sampled_from([0.0, 0.5])),
                       eval_every=draw(st.integers(1, 3)), master_seed=seed)
    binds = draw(st.sampled_from(["off", "none", "some", "all"]))
    if binds == "off":
        return config
    grads = batch_grads(model, initial_theta(config), ds.features, ds.labels)
    norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    c = {"none": 2.0 * norms.max(), "some": float(np.median(norms)),
         "all": 0.5 * norms.min()}[binds]
    return replace(config, clip=ClipParams(c))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config=shared_pass_configs(), one_row_blocks=st.booleans())
def test_shared_pass_keeps_every_bit(config, one_row_blocks):
    # the shared pass computes every point's gradient once per round and
    # gathers the batches from it; the per-worker path computes each block of
    # batches itself. A row-block budget of one float cuts blocks of one row
    # and of one worker, so a round has several of each
    cap, budget = byzdp.engine.SHARED_PASS_FLOATS, byzdp.model._BLOCK_FLOATS
    assert config.dataset.m * config.model.dim <= cap
    byzdp.model._BLOCK_FLOATS = 1 if one_row_blocks else budget
    try:
        shared = run(config)
        byzdp.engine.SHARED_PASS_FLOATS = 0
        per_worker = run(config)
    finally:
        byzdp.engine.SHARED_PASS_FLOATS, byzdp.model._BLOCK_FLOATS = cap, budget
    assert np.array_equal(shared.theta, per_worker.theta)
    assert shared.records == per_worker.records


def test_shared_pass_keeps_every_bit_past_the_small_matrix_size(monkeypatch):
    # a dense 20 x 20 H over 4,000 points: the shared pass fills blocks of
    # 3,276 and 724 rows, the per-worker path blocks of 3,072 and 1,024, and
    # (k x 20) @ (20 x 20) passes OpenBLAS's small-matrix size at k = 2,501.
    # Unchunked, the honest messages differed in 16, 25 and 18 entries
    a = np.random.default_rng(0).standard_normal((20, 20))
    config = RunConfig(model=quadratic_model(a @ a.T / 20, 1e-3),
                       dataset=regression_targets(0, 4000, 20), gar=GarSpec("average", 8, 0),
                       b=512, steps=3, clip=ClipParams(5.0), schedule="constant", gamma=0.01)
    shared = [step[2] for step in rounds(config)]
    monkeypatch.setattr(byzdp.engine, "SHARED_PASS_FLOATS", 0)
    per_worker = [step[2] for step in rounds(config)]
    assert [int(np.sum(s != p)) for s, p in zip(shared, per_worker)] == [0, 0, 0]


@pytest.mark.parametrize("rule, f", [("mda", 3), ("average", 0)])
def test_criterion_7_at_b_512_takes_the_shared_pass(monkeypatch, rule, f):
    # 12 or 15 honest workers at b = 512 draw 6,144 or 7,680 rows of 4,000
    # points: each round computes every point's gradient once, and the metrics
    # sum those rows instead of calling full_grad. The config is criterion 7's
    # (demos/configs/run_little_mda.cfg at b = 512), cut to 3 rounds
    blobs = gaussian_blobs(2, 4000, 20, half_sep=0.16, axis_std=0.088, cross_std=0.16)
    config = RunConfig(model=logistic_model(20, lam=1e-4), dataset=blobs,
                       gar=GarSpec(rule, 15, f), attack=AttackSpec("little" if f else "none"),
                       b=512, steps=3, privacy=PrivacyParams(0.2, 1e-5, 2.0, 512, blobs.m),
                       schedule="constant", gamma=0.5, momentum=0.99)
    rows, full = [], []

    def counting(model, theta, features, labels=None):
        rows.append(len(features))
        return batch_grads(model, theta, features, labels)

    monkeypatch.setattr(byzdp.engine, "batch_grads", counting)
    monkeypatch.setattr(byzdp.engine, "full_grad", lambda *args: full.append(args))
    result = run(config)
    assert full == [] and len(result.records) == 3
    assert sum(rows) == 3 * config.dataset.m


def test_a_shared_matrix_over_the_cap_stays_in_row_blocks():
    # 15 workers at b = 512 draw every point, but the (4000, 705) mlp1 matrix
    # would take 22.5 MB: the round stays on the per-worker path
    model, ds = mlp1_model(20, 32, lam=1e-3), gaussian_blobs(3, 4000, 20)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 15, 0), b=512,
                       steps=2, schedule="constant", gamma=0.1, clip=ClipParams(0.5),
                       eval_every=2)
    assert ds.m <= 15 * 512 and ds.m * model.dim > byzdp.engine.SHARED_PASS_FLOATS
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ------------------------------------------------------------- single steps

def test_one_step_is_exact_gradient_descent():
    config = quadratic_config(steps=1, gamma=1.0)
    theta1 = initial_theta(config)
    expected = theta1 - full_grad(config.model, theta1, config.dataset)
    result = run(config)
    assert np.array_equal(result.theta, expected)


def test_grad_norm_of_a_finite_gradient_with_overflowing_squares():
    # targets near 1e200 give a finite gradient whose squared norm overflows
    ds = Dataset(regression_targets(0, 40, 4, spread=0.5).features * 1e200)
    config = quadratic_config(dataset=ds, steps=1)
    grad = full_grad(config.model, initial_theta(config), ds)
    norm = math.hypot(*grad)
    assert np.isfinite(grad).all() and norm > 1e155  # above sqrt(max float)
    record = run(config).records[0]
    assert record.grad_norm == pytest.approx(norm, rel=1e-15)
    assert record.min_sq_grad_norm == math.inf


def test_full_batch_descent_converges_monotonically():
    config = quadratic_config(steps=500, gamma=0.5)
    result = run(config)
    norms = [r.grad_norm for r in result.records]
    # strict geometric decrease until the norm hits the rounding floor
    assert all(b <= a * (1 + 1e-12) or a < 1e-12
               for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-8
    assert norms[120] < 1e-12


def hand_rolled_case(kind):
    """A model and its 60-point dataset; each engine path of the worker mean is hit by one."""
    if kind == "quadratic_d1":  # width 1: numpy's own pairwise sum
        return quadratic_model(np.array([[1.5]]), lam=1e-4), regression_targets(3, 60, 1)
    if kind == "mlp1":  # width 705: einsum over wide rows
        return mlp1_model(20, 32, lam=1e-4), gaussian_blobs(3, 60, 20)
    return logistic_model(4, lam=1e-4), gaussian_blobs(3, 60, 4)


@pytest.mark.parametrize("kind, b", [pytest.param("logistic", 10, id="10"),
                                     pytest.param("logistic", 60, id="60"),
                                     pytest.param("quadratic_d1", 20, id="quadratic_d1"),
                                     pytest.param("mlp1", 12, id="mlp1"),
                                     # a worker's rows start mid-group in the engine's block
                                     pytest.param("mlp1", 10, id="mlp1_b10"),
                                     pytest.param("mlp1", 7, id="mlp1_b7"),
                                     pytest.param("quadratic_d1", 12,
                                                  id="quadratic_d1_per_worker"),
                                     pytest.param("logistic", 15, id="logistic_shared"),
                                     pytest.param("mlp1", 20, id="mlp1_shared")])
def test_hand_rolled_round_matches_engine(kind, b):
    # at b == m = 60 the one batch is the whole dataset in canonical order; the
    # 4 workers' batches hold all 60 points at b >= 15, so the engine computes
    # each point's gradient once, in the shared pass, and gathers the batches
    # from it; at b = 7, 10 and 12 it computes each block of batches itself
    model, ds = hand_rolled_case(kind)
    d, y = model.dim, ds.labels
    theta1 = initial_theta(RunConfig(model=model, dataset=ds, gar=GarSpec("average", 4, 0),
                                     b=b, steps=1, master_seed=21))
    every = batch_grads(model, theta1, ds.features, y)
    norms = np.linalg.norm(every, axis=1)
    c = float(np.median(norms))  # binds about half the rows
    privacy = PrivacyParams(0.5, 1e-4, c, b, 60)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 4, 0),
                       b=b, steps=1, schedule="constant", gamma=0.3,
                       privacy=privacy, master_seed=21)
    subs, clipped = [], []
    for w in range(4):
        idx = (np.arange(60) if b == 60 else
               np.sort(worker_stream(21, w, 1, PURPOSE_BATCH).choice(60, b, replace=False)))
        clipped.append(norms[idx] > c)
        grads = clip(batch_grads(model, theta1, ds.features[idx], None if y is None else y[idx]),
                     ClipParams(c))
        g = grads.mean(axis=0)
        g = g + worker_stream(21, w, 1, PURPOSE_NOISE).normal(0.0, privacy.s, d)
        subs.append(g)
    assert 0 < np.count_nonzero(clipped) < np.size(clipped)
    expected = theta1 - 0.3 * np.asarray(subs).mean(axis=0)
    result = run(config)
    assert np.array_equal(result.theta, expected)
    # the metrics take the mean of the unclipped rows
    assert result.records[0].grad_norm == float(np.linalg.norm(every.mean(axis=0)))


def test_momentum_buffer_matches_manual_recursion():
    ds = regression_targets(5, 30, 3)
    model = quadratic_model(np.eye(3))
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 3, 0),
                       b=30, steps=2, schedule="constant", gamma=0.1,
                       momentum=0.9, master_seed=2)
    messages = np.array([step[2] for step in rounds(config)])
    assert messages.shape == (2, 3, 3)  # (steps, n, d)
    theta1 = initial_theta(config)
    g1 = batch_grads(model, theta1, ds.features).mean(axis=0)
    v1 = g1  # buffer starts at zero
    assert np.allclose(messages[0, 0], v1, rtol=0, atol=0)
    theta2 = theta1 - 0.1 * v1
    g2 = batch_grads(model, theta2, ds.features).mean(axis=0)
    v2 = 0.9 * v1 + g2
    assert np.array_equal(messages[1, 0], v2)


# ------------------------------------------------------------------ rounds

def _rounds_config(path):
    # 9 honest workers over m = 40 points: b = 40 is the full batch, b = 5
    # takes the shared pass (45 rows), b = 3 the per-worker path (27 rows)
    kind, b, momentum, private = {"full_batch": ("quadratic", 40, 0.5, False),
                                  "shared_pass": ("logistic", 5, 0.0, False),
                                  "per_worker": ("mlp1", 3, 0.0, True)}[path]
    config = replace(_blocked_run_config(kind, b, 40, "some"), steps=6, eval_every=2,
                     momentum=momentum)
    if private:
        privacy = PrivacyParams(0.5, 1e-4, config.clip.c, b, 40)
        config = replace(config, clip=None, privacy=privacy)
    return config


@pytest.mark.parametrize("path", ["full_batch", "shared_pass", "per_worker"])
def test_run_is_the_fold_of_rounds(path):
    config = _rounds_config(path)
    want = run(config)
    records, theta_t = [], initial_theta(config)
    for t, theta, messages, r_t, theta_next, record in rounds(config):
        assert theta.tobytes() == theta_t.tobytes()
        assert messages.shape == (config.n, config.model.dim)
        assert theta_next.tobytes() == (theta - config.learning_rate(t) * r_t).tobytes()
        assert (record is not None) == (t % config.eval_every == 0)
        records += [record] if record is not None else []
        theta_t = theta_next
    assert t == config.steps
    assert theta_t.tobytes() == want.theta.tobytes()
    assert tuple(records) == want.records


@pytest.mark.parametrize("path", ["full_batch", "shared_pass", "per_worker"])
def test_rounds_yields_fresh_read_only_arrays(path):
    # a consumer that tries to write into a round's arrays is refused, and
    # the run goes on with the same bits
    config = _rounds_config(path)
    seen = []
    for _, theta, messages, r_t, theta_next, _ in rounds(config):
        assert not any(np.shares_memory(messages, earlier) for earlier in seen)
        seen.append(messages)
        for array in (theta, messages, messages[-1], r_t, theta_next):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    assert theta_next.tobytes() == run(config).theta.tobytes()


def test_next_of_rounds_takes_round_one_only(monkeypatch):
    counts = {"noise": 0, "full_loss": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, key in (("gaussian_noise", "noise"), ("full_loss", "full_loss")):
        monkeypatch.setattr(byzdp.engine, name, counting(key, getattr(byzdp.engine, name)))
    steps = rounds(_rounds_config("per_worker"))
    assert counts == {"noise": 0, "full_loss": 0}  # making the generator takes no round
    t, *_ = next(steps)
    assert t == 1 and counts == {"noise": 1, "full_loss": 0}  # round 1 takes no metrics
    next(steps)
    assert counts == {"noise": 2, "full_loss": 1}


# ----------------------------------------------------- forged-worker rounds

def test_two_cluster_mda_run_matches_byzantine_free_run():
    ds = regression_targets(1, 50, 6, spread=0.4)
    model = quadratic_model(np.eye(6))
    shared = dict(model=model, dataset=ds, b=50, steps=100,
                  schedule="constant", gamma=0.5, master_seed=7)
    attacked = RunConfig(gar=GarSpec("mda", 15, 3),
                         attack=AttackSpec("empire", 1.1), **shared)
    clean = RunConfig(gar=GarSpec("average", 15, 0), **shared)
    res_a, res_c = run(attacked), run(clean)
    assert np.array_equal(res_a.theta, res_c.theta)
    assert res_a.records == res_c.records


def test_audit_flags_do_not_influence_aggregation():
    ds = gaussian_blobs(2, 40, 3)
    model = logistic_model(3)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("median", 7, 2),
                       attack=AttackSpec("little"), b=8, steps=3,
                       schedule="constant", gamma=0.2, master_seed=4,
                       privacy=PrivacyParams(0.5, 1e-4, 1.0, 8, 40))
    messages = np.array([step[2] for step in rounds(config)])
    assert messages.shape == (3, 7, 3)
    for round_msgs in messages:
        r_original = aggregate(config.gar, round_msgs)
        r_flipped = aggregate(config.gar, round_msgs[::-1])  # forged rows moved first
        np.testing.assert_allclose(r_original, r_flipped, rtol=1e-12, atol=1e-15)
        # the last f = 2 rows, and only those, carry the vector forged from the others
        forged = forge(config.attack, round_msgs[:5])
        assert [np.array_equal(row, forged) for row in round_msgs] == [False] * 5 + [True] * 2


def test_honest_message_norm_bounded_without_momentum():
    ds = gaussian_blobs(6, 50, 5)
    model = logistic_model(5)
    privacy = PrivacyParams(0.4, 1e-4, 0.8, 10, 50)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 5, 0),
                       b=10, steps=4, privacy=privacy, schedule="constant",
                       gamma=0.5, master_seed=11)
    messages = np.array([step[2] for step in rounds(config)])
    assert messages.shape == (4, 5, 5)
    for t, round_msgs in enumerate(messages, start=1):
        for worker_id, vector in enumerate(round_msgs):
            noise = gaussian_noise(5, privacy.s, 1,
                                   lambda _: worker_stream(11, worker_id, t, PURPOSE_NOISE))[0]
            assert np.linalg.norm(vector - noise) <= 0.8 * (1 + 1e-12)


# ------------------------------------------------------------- determinism

def test_runs_are_bit_reproducible():
    config_kwargs = dict(b=12, steps=25, schedule="inv_sqrt", gamma=None,
                         momentum=0.5, master_seed=123)
    ds = gaussian_blobs(9, 60, 4)
    model = logistic_model(4, lam=1e-4)
    privacy = PrivacyParams(0.3, 1e-5, 2.0, 12, 60)
    a = run(RunConfig(model=model, dataset=ds, gar=GarSpec("krum", 9, 2),
                      attack=AttackSpec("little"), privacy=privacy, **config_kwargs))
    b = run(RunConfig(model=model, dataset=ds, gar=GarSpec("krum", 9, 2),
                      attack=AttackSpec("little"), privacy=privacy, **config_kwargs))
    assert np.array_equal(a.theta, b.theta)
    assert a.records == b.records


def test_min_sq_grad_norm_nonincreasing():
    config = quadratic_config(steps=60, gamma=0.8, master_seed=3,
                              gar=GarSpec("median", 5, 1), attack=AttackSpec("little"))
    mins = [r.min_sq_grad_norm for r in run(config).records]
    assert all(b <= a for a, b in zip(mins, mins[1:]))


def test_metrics_row_count_and_schedule():
    config = quadratic_config(steps=30, eval_every=5, schedule="inv_sqrt", gamma=None)
    records = run(config).records
    assert len(records) == 6
    assert [r.round_no for r in records] == [5, 10, 15, 20, 25, 30]
    assert records[0].gamma == pytest.approx(1 / np.sqrt(5))


# ------------------------------------------------------------------ config

def test_config_fail_fast():
    ds = regression_targets(0, 20, 3)
    model = quadratic_model(np.eye(3))
    good = dict(model=model, dataset=ds, gar=GarSpec("average", 5, 0),
                b=20, steps=5, schedule="constant", gamma=0.5)
    RunConfig(**good)
    with pytest.raises(ConfigurationError):
        RunConfig(**{**good, "b": 21})
    with pytest.raises(ConfigurationError):
        RunConfig(**{**good, "momentum": 1.0})
    # gamma = inf once ran, and stopped on non-finite submissions in round 2
    with pytest.raises(ConfigurationError, match="needs a positive, finite gamma"):
        RunConfig(**{**good, "schedule": "constant", "gamma": None})
    for gamma in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="gamma must be positive and finite"):
            RunConfig(**{**good, "schedule": "constant", "gamma": gamma})
    with pytest.raises(ConfigurationError):
        RunConfig(**{**good, "schedule": "inv_sqrt"})  # gamma set but unused
    with pytest.raises(ConfigurationError, match="4f\\+3"):
        GarSpec("bulyan", 15, 6)
    with pytest.raises(ConfigurationError):
        RunConfig(**{**good, "privacy": PrivacyParams(0.5, 1e-4, 1.0, 10, 20)})  # b mismatch
    with pytest.raises(ConfigurationError):
        RunConfig(**{**good, "eval_every": 6})
    with pytest.raises(ConfigurationError, match="need 1 <= steps <= 4294967295, got 0"):
        RunConfig(**{**good, "steps": 0})
    with pytest.raises(ConfigurationError, match="need 1 <= eval_every <= 5, got 0"):
        RunConfig(**{**good, "eval_every": 0})
    with pytest.raises(ConfigurationError, match="unknown schedule 'cosine'"):
        RunConfig(**{**good, "schedule": "cosine"})
    for seed in (-1, 2**64):
        with pytest.raises(ConfigurationError,
                           match=f"need 0 <= master_seed <= {2**64 - 1}, got {seed}"):
            RunConfig(**{**good, "master_seed": seed})
    with pytest.raises(ConfigurationError, match="calibrated for m=40, dataset has m=20"):
        RunConfig(**{**good, "privacy": PrivacyParams(0.5, 1e-4, 1.0, 20, 40)})
    with pytest.raises(ConfigurationError, match="clip bound differs"):
        RunConfig(**{**good, "privacy": PrivacyParams(0.5, 1e-4, 1.0, 20, 20),
                     "clip": ClipParams(2.0)})
    # counts and the seed are integers: master_seed=9.5 once ran as seed 9,
    # eval_every=2.0 ran, and b=10.0, steps=4.0 and b=True raised a bare TypeError
    for name in ("b", "steps", "eval_every", "master_seed"):
        for value in (4.0, 9.5, True):
            with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
                RunConfig(**{**good, name: value})


def test_config_rejects_runs_past_the_stream_key_budget():
    # the pooled stream packs keys unchecked: round 2**32 of worker 0 would
    # be round 0 of worker 1, a key that worker_stream refuses to build
    alias = _StreamPool(3).get(0, 2**32, PURPOSE_BATCH).integers(0, 2**62, 4)
    assert np.array_equal(alias, worker_stream(3, 1, 0, PURPOSE_BATCH).integers(0, 2**62, 4))
    with pytest.raises(ContractViolationError):
        worker_stream(3, 0, 2**32, PURPOSE_BATCH)
    for seed in (-1, 2**64):
        with pytest.raises(ContractViolationError,
                           match=f"need 0 <= master_seed <= {2**64 - 1}, got {seed}"):
            worker_stream(seed, 0, 0, PURPOSE_BATCH)
    ds = regression_targets(0, 20, 3)
    good = dict(model=quadratic_model(np.eye(3)), dataset=ds, gar=GarSpec("average", 5, 0),
                b=20, steps=5, schedule="constant", gamma=0.5)
    RunConfig(**{**good, "steps": 2**32 - 1})
    RunConfig(**{**good, "gar": GarSpec("average", 2**30 - 1, 0)})
    with pytest.raises(ConfigurationError, match=f"need 1 <= steps <= {2**32 - 1}, got {2**32}"):
        RunConfig(**{**good, "steps": 2**32})
    with pytest.raises(ConfigurationError, match=f"need n <= {2**30 - 1}, got {2**30}"):
        RunConfig(**{**good, "gar": GarSpec("average", 2**30, 0)})


def test_a_checked_value_cannot_drift_from_its_checks():
    # these types were mutable: b = 5 on a config calibrated for b = 20 ran
    # 5-point batches under the noise of 20, eval_every = 0 stopped the run
    # with ZeroDivisionError, and n_features = 5 left a model's dim at 20
    config = quadratic_config(b=20, steps=4, privacy=PrivacyParams(0.5, 1e-4, 1.0, 20, 40))
    result = run(config)
    assignments = [(config, "b", 5), (config, "eval_every", 0), (config, "privacy", None),
                   (logistic_model(20), "n_features", 5),
                   (gaussian_blobs(0, 6, 3), "labels", None),
                   (result, "theta", np.zeros(4))]
    for owner, name, value in assignments:
        with pytest.raises(FrozenInstanceError):
            setattr(owner, name, value)
        assert getattr(owner, name) is not value
    # a variant is built through the checks
    with pytest.raises(ConfigurationError, match="privacy calibrated for b=20, run uses b=5"):
        replace(config, b=5)
    # nor can an array reach a checked value: the caller's Hessian edit once
    # made the model asymmetric with no check run again, and theta was writable
    h, ds = np.eye(3), regression_targets(0, 5, 3)
    model = quadratic_model(h)
    loss = full_loss(model, np.ones(3), ds)
    h[0, 0], h[0, 1] = 50.0, 7.0
    assert np.array_equal(model.hessian, model.hessian.T)
    assert full_loss(model, np.ones(3), ds) == loss
    with pytest.raises(ValueError):
        result.theta[0] = 0.0
    assert isinstance(result.records, tuple)


def test_integer_fields_accept_numpy_integers():
    plain = quadratic_config(b=10, steps=6, eval_every=2, master_seed=9,
                             gar=GarSpec("median", 5, 1), attack=AttackSpec("little"))
    typed = replace(plain, b=np.int64(10), steps=np.int32(6), eval_every=np.int64(2),
                    master_seed=np.uint64(9), gar=GarSpec("median", np.int64(5), np.int64(1)))
    a, b = run(plain), run(typed)
    assert np.array_equal(a.theta, b.theta)
    assert a.records == b.records


def test_classifier_needs_labels():
    ds = regression_targets(0, 20, 3)
    with pytest.raises(ConfigurationError):
        RunConfig(model=logistic_model(3), dataset=ds, gar=GarSpec("average", 3, 0),
                  b=20, steps=2, schedule="constant", gamma=0.1)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_dataset_width_must_match_the_model(kind):
    if kind == "quadratic":
        model, ds = quadratic_model(np.eye(4)), regression_targets(0, 20, 3)
    else:
        model, ds = logistic_model(4), gaussian_blobs(0, 20, 3)
    with pytest.raises(ConfigurationError,
                       match=f"dataset has 3 features, the {kind} model takes 4"):
        RunConfig(model=model, dataset=ds, gar=GarSpec("average", 3, 0),
                  b=20, steps=2, schedule="constant", gamma=0.1)


def test_mlp1_trains_end_to_end():
    from byzdp import mlp1_model
    ds = gaussian_blobs(1, 120, 4, half_sep=2.0)
    model = mlp1_model(4, hidden=6)
    config = RunConfig(model=model, dataset=ds, gar=GarSpec("median", 5, 1),
                       attack=AttackSpec("little"), b=30, steps=40,
                       clip=ClipParams(5.0), schedule="constant", gamma=0.5,
                       momentum=0.5, master_seed=6)
    result = run(config)
    assert result.max_accuracy is not None
    assert result.max_accuracy > 0.8
    assert result.theta.shape == (model.dim,)


# ------------------------------------------------------------------- sweep

def small_sweep_base():
    ds = gaussian_blobs(4, 40, 3)
    model = logistic_model(3, lam=1e-4)
    return RunConfig(model=model, dataset=ds, gar=GarSpec("median", 5, 1),
                     attack=AttackSpec("little"), b=8, steps=6,
                     privacy=PrivacyParams(0.5, 1e-4, 1.5, 8, 40),
                     schedule="constant", gamma=0.4, master_seed=1)


def test_sweep_product_counts_and_single_cell():
    base = small_sweep_base()
    results = sweep(base, {"b": [8, 20], "seed": [1, 2, 3, 4, 5]})
    assert len(results) == 10
    assert all(r.ok for r in results)
    single = sweep(base, {"seed": [1]})
    assert len(single) == 1
    direct = run(base)
    assert single[0].result.max_accuracy == direct.max_accuracy
    assert single[0].result.min_sq_grad_norm == direct.min_sq_grad_norm


def test_sweep_isolates_invalid_cells():
    base = small_sweep_base()
    results = sweep(base, {"gar": ["median", "bulyan"], "f": [1]})
    by_rule = {r.params["gar"]: r for r in results}
    assert by_rule["median"].ok
    assert not by_rule["bulyan"].ok  # needs n >= 4f+3 = 7 > 5
    assert "4f+3" in by_rule["bulyan"].reason
    # an unknown attack kind fails its cell instead of the sweep
    results = sweep(base, {"attack": ["bogus", "empire"]})
    assert [r.ok for r in results] == [False, True]
    assert "unknown attack kind 'bogus'" in results[0].reason
    assert results[0].params["attack"] == "bogus"
    assert results[0].config is None
    assert results[1].config.attack == AttackSpec("empire")  # the default zeta


def test_sweep_fails_cells_with_non_integer_values():
    # f=1.5 once aborted the whole sweep with a TypeError, and seed 9.5 ran
    # as a second ok cell with the records of seed 9
    base = small_sweep_base()
    results = sweep(base, {"f": [1, 1.5]})
    assert [r.ok for r in results] == [True, False]
    assert results[0].result.records == run(base).records
    assert "f must be an integer, got 1.5" in results[1].reason
    results = sweep(base, {"seed": [9, 9.5]})
    assert [r.ok for r in results] == [True, False]
    assert "master_seed must be an integer, got 9.5" in results[1].reason


def test_sweep_numpy_scalars_name_the_python_cell():
    # np.int64(9) once gave a second ok cell, with its own id, of seed 9
    base = small_sweep_base()
    for axis, value, twin in (("seed", 9, np.int64(9)), ("epsilon", 0.5, np.float64(0.5))):
        [plain] = sweep(base, {axis: [value]})
        [typed] = sweep(base, {axis: [twin]})
        assert plain.ok and typed.ok
        assert typed.cell_id == plain.cell_id
        assert typed.params == plain.params
        assert type(typed.params[axis]) is type(value)
        # in one grid the two name one cell twice
        with pytest.raises(ConfigurationError, match=f"sweep axis '{axis}' names the value"):
            sweep(base, {axis: [value, twin]})
    results = sweep(base, {"epsilon": list(np.linspace(0.5, 0.9, 3))})
    assert [type(r.params["epsilon"]) for r in results] == [float] * 3
    [res] = sweep(base, {"seed": [np.float64(9.5)]})
    assert not res.ok
    assert "master_seed must be an integer, got 9.5" in res.reason


def test_a_base_of_numpy_integers_names_the_python_cell():
    # a base with b = np.int64(8) once gave its cell the id 10926502b9a1, and
    # one with f = np.int64(1) the id 5df6bc7caeb2, for the run of b = 8, f = 1
    base = small_sweep_base()
    [plain] = sweep(base, {"seed": [1]})
    assert plain.cell_id == "fe5c4deb3fbf"
    for typed in (replace(base, b=np.int64(8)),
                  replace(base, gar=GarSpec("median", np.int64(5), np.int64(1)))):
        [cell] = sweep(typed, {"seed": [1]})
        assert (cell.cell_id, cell.params) == (plain.cell_id, plain.params)
        assert np.array_equal(cell.result.theta, plain.result.theta)
    config = replace(base, b=np.int64(8), steps=np.int32(6), eval_every=np.int64(2),
                     master_seed=np.uint64(9), gar=GarSpec("median", np.int64(5), np.int64(1)))
    for name in ("b", "steps", "eval_every", "master_seed", "n", "f"):
        assert type(getattr(config, name)) is int


def test_sweep_rejects_a_grid_that_names_one_cell_twice():
    # a repeated seed once ran one cell twice under one id and counted it as
    # two runs in aggregate.csv
    base = small_sweep_base()
    for grid, axis, value in (({"seed": [1, 1]}, "seed", "1"),
                              ({"b": [8, 20], "epsilon": ["none", None]}, "epsilon", "None"),
                              ({"gar": ["median", "krum", "median"]}, "gar", "'median'")):
        with pytest.raises(ConfigurationError,
                           match=f"sweep axis '{axis}' names the value {value} twice"):
            sweep(base, grid)


@pytest.mark.parametrize("axis, value", [("gar", "median"), ("b", 8), ("f", 1), ("seed", 1)])
def test_sweep_refuses_none_on_an_axis_that_needs_a_value(axis, value):
    # None on gar once ran a failed cell ("unknown aggregation rule 'None'"),
    # while the same grid in a config exited 2
    with pytest.raises(ConfigurationError,
                       match=f"sweep axis '{axis}' cannot list none: every cell needs a value"):
        sweep(small_sweep_base(), {axis: [value, None]})


def test_a_cell_id_is_fixed_when_the_cell_is_made():
    # the id was once digested on every read, so an edit of params moved it
    [cell] = sweep(small_sweep_base(), {"seed": [1]})
    made = cell.cell_id
    cell.params["b"] = 3
    assert cell.cell_id == made


def test_sweep_parallel_matches_serial():
    base = small_sweep_base()
    grid = {"b": [8, 20], "seed": [1, 2]}
    serial = sweep(base, grid, jobs=1)
    parallel = sweep(base, grid, jobs=4)
    assert [r.cell_id for r in serial] == [r.cell_id for r in parallel]
    for a, b in zip(serial, parallel):
        assert a.params == b.params
        assert a.result.max_accuracy == b.result.max_accuracy
        assert a.result.min_sq_grad_norm == b.result.min_sq_grad_norm
        assert a.config.dataset is b.config.dataset is base.dataset  # no copy per cell
        # a worker's result comes back by pickle, which keeps its arrays read-only
        assert a.result.records == b.result.records
        assert np.array_equal(a.result.theta, b.result.theta)
        for result in (a.result, b.result):
            assert isinstance(result.records, tuple) and not result.theta.flags.writeable


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_fails_a_cell_whose_run_fails(monkeypatch, jobs):
    # the seed-2 cell resolves, and its run raises; a forked worker inherits the patch
    real_run = byzdp.engine.run

    def refusing_run(config):
        if config.master_seed == 2:
            raise ContractViolationError("run refused seed 2")
        return real_run(config)

    monkeypatch.setattr(byzdp.engine, "run", refusing_run)
    base = small_sweep_base()
    ok, failed = sweep(base, {"seed": [1, 2]}, jobs=jobs)
    assert ok.ok and ok.reason is None
    assert ok.result.records == run(base).records
    assert not failed.ok
    assert failed.reason == "run refused seed 2"
    assert failed.result is None
    assert failed.config.master_seed == 2
    for cell in (ok, failed):
        assert cell.config.dataset is base.dataset  # resolved in this process
    row = summary_csv_text([ok, failed]).splitlines()[2].split(",")
    assert row[1] == "failed"
    assert row[8:11] == ["", "", ""]  # max_accuracy, min_sq_grad_norm, final_loss
    assert row[11] == "run refused seed 2"


def test_sweep_starts_at_most_one_worker_per_runnable_cell(monkeypatch):
    # sweep imports the pool when it starts one, so it reads the patched name
    real_executor = concurrent.futures.ProcessPoolExecutor
    started = []

    def executor(max_workers):
        started.append(max_workers)
        return real_executor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    base = small_sweep_base()
    # bulyan needs n >= 4f+3 = 7 > 5, so its cell never reaches a worker
    results = sweep(base, {"gar": ["median", "mda", "bulyan"]}, jobs=64)
    assert [r.ok for r in results] == [True, True, False]
    assert started == [2]
    results = sweep(base, {"gar": ["median", "bulyan"]}, jobs=8)
    assert [r.ok for r in results] == [True, False]
    assert started == [2]  # one runnable cell runs here, without a pool
    for jobs in (0, -1):
        with pytest.raises(ContractViolationError, match=f"need jobs >= 1, got {jobs}"):
            sweep(base, {"seed": [1]}, jobs=jobs)


def test_sweep_epsilon_axis_recalibrates():
    base = small_sweep_base()
    results = sweep(base, {"epsilon": [0.5, 0.9, "none"]})
    assert all(r.ok for r in results)
    assert results[2].params["epsilon"] is None
    ids = {r.cell_id for r in results}
    assert len(ids) == 3
    assert cell_digest(results[0].params) == results[0].cell_id


def test_sweep_resolves_every_axis():
    # every axis of a cell resolves to hand-built specs, on a private base and
    # on a clipped base without privacy; the base attack has a non-default zeta
    private = replace(small_sweep_base(), attack=AttackSpec("little", 0.25))
    clipped = replace(private, privacy=None, clip=ClipParams(1.5))
    median = GarSpec("median", 5, 1)
    little = AttackSpec("little", 0.25)

    def calibrated(eps, b):
        return PrivacyParams(eps, 1e-4, 1.5, b, 40)

    for base in (private, clipped):
        keep = base.privacy is not None
        cases = [
            ("b", 8, median, little, calibrated(0.5, 8) if keep else None, 8, 1),
            ("b", 20, median, little, calibrated(0.5, 20) if keep else None, 20, 1),
            ("epsilon", None, median, little, None, 8, 1),
            ("epsilon", "none", median, little, None, 8, 1),
            ("gar", "mda", GarSpec("mda", 5, 1), little, base.privacy, 8, 1),
            ("gar", "krum", GarSpec("krum", 5, 1), little, base.privacy, 8, 1),
            ("f", 0, GarSpec("median", 5, 0), little, base.privacy, 8, 1),
            ("f", 2, GarSpec("median", 5, 2), little, base.privacy, 8, 1),
            ("seed", 7, median, little, base.privacy, 8, 7),
            ("attack", "little", median, little, base.privacy, 8, 1),
            ("attack", "empire", median, AttackSpec("empire", 1.1), base.privacy, 8, 1),
            ("attack", "none", median, AttackSpec("none"), base.privacy, 8, 1),
        ]
        if keep:
            cases.append(("epsilon", 0.9, median, little, calibrated(0.9, 8), 8, 1))
        for axis, value, gar, attack, privacy, b, seed in cases:
            [res] = sweep(base, {axis: [value]})
            assert res.ok, (axis, value, res.reason)
            config = res.config
            assert config.gar == gar, (axis, value)
            assert config.attack == attack, (axis, value)
            assert config.privacy == privacy, (axis, value)
            assert config.s == (0.0 if privacy is None else privacy.s)
            assert config.clip == ClipParams(1.5), (axis, value)
            assert (config.b, config.master_seed) == (b, seed), (axis, value)
    [res] = sweep(clipped, {"epsilon": [0.9]})
    assert not res.ok
    assert "privacy-calibrated base" in res.reason
    assert res.config is None


def test_sweep_rejects_bad_grid():
    base = small_sweep_base()
    with pytest.raises(Exception):
        sweep(base, {})
    with pytest.raises(ConfigurationError):
        sweep(base, {"learning_rate": [0.1]})
    with pytest.raises(ContractViolationError, match="sweep axis 'seed' has no values"):
        sweep(base, {"f": [0], "seed": []})


@pytest.mark.parametrize("values", ["mda", {"median", "mda", "krum"}], ids=["str", "set"])
def test_a_sweep_axis_must_be_a_list_or_tuple(values):
    # a string once ran one failed cell per character ('m', 'd', 'a'), and a
    # set ran its cells in an order set by the hash seed
    with pytest.raises(ContractViolationError,
                       match="sweep axis 'gar' must list its values in a list or tuple"):
        sweep(small_sweep_base(), {"seed": [1], "gar": values})
