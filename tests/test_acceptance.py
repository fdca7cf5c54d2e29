"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 6 and 7 execute full simulations and dominate the runtime (about
30-40 s and 9-13 s respectively on a 2-CPU x86-64 host, Python 3.11,
numpy 2.4).
"""

import csv
import math
import os
import time

import mpmath as mp
import numpy as np
import pytest

from byzdp import (AttackSpec, GarSpec, PrivacyParams, RunConfig, aggregate,
                   batch_mean_variance, convergence_bound, eta_bounds,
                   find_vn_violation, full_loss, gaussian_blobs, gaussian_noise,
                   initial_theta, kappa, logistic_model, noise_scale,
                   population_variance, quadratic_minimizer, quadratic_model,
                   regression_targets, run, sigma_total, submission_variance,
                   worker_stream)
from byzdp.cli import main
from byzdp.privacy import PrivacyRegimeWarning
from oracles import mda_bruteforce

mp.mp.dps = 50

S_REFERENCE = PrivacyParams(0.1, 1e-5, 2.0, 25, 1000).s  # criterion 3 noise scale


def verdict(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_kappa_constants():
    start = time.perf_counter()
    n, f = 15, 3
    krum_ref = math.sqrt(2 * (n - f + (f * (n - f - 2) + f * f * (n - f - 1)) / (n - 2 * f - 2)))
    values = {
        "mda": (kappa(GarSpec("mda", 15, 3)), math.sqrt(8) * 3 / 12),
        "median": (kappa(GarSpec("median", 15, 6)), math.sqrt(9)),
        "krum": (kappa(GarSpec("krum", 15, 3)), krum_ref),
        "bulyan": (kappa(GarSpec("bulyan", 15, 3)), krum_ref),
    }
    ok = (abs(values["mda"][0] - 0.70710678) <= 1e-8
          and values["median"][0] == 3.0
          and abs(values["krum"][0] - 7.80113) <= 1e-4
          and abs(values["bulyan"][0] - 7.80113) <= 1e-4
          and all(abs(got - ref) <= 1e-9 * ref for got, ref in values.values()))
    elapsed = time.perf_counter() - start
    verdict(1, ok and elapsed < 1.0,
            f"kappa mda={values['mda'][0]:.8f} median={values['median'][0]:.1f} "
            f"krum={values['krum'][0]:.5f} ({elapsed:.2f} s)")


def test_criterion_02_gar_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240815)
    exact_matches = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        f = int(rng.integers(1, min(3, (n - 1) // 2) + 1))
        d = int(rng.integers(1, 6))
        g = rng.normal(0, 1, (n, d))
        if np.array_equal(aggregate(GarSpec("mda", n, f), g), mda_bruteforce(g, f)):
            exact_matches += 1
    median_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 16))
        d = int(rng.integers(1, 6))
        g = rng.normal(0, 1, (n, d))
        out = aggregate(GarSpec("median", n, (n - 1) // 2), g)
        for j in range(d):
            col = sorted(g[:, j].tolist())
            mid = (col[(n - 1) // 2] + col[n // 2]) / 2
            if out[j] != pytest.approx(mid, rel=1e-15):
                median_ok = False
    elapsed = time.perf_counter() - start
    verdict(2, exact_matches == 200 and median_ok and elapsed < 30.0,
            f"mda exact on {exact_matches}/200, median coordinate-wise on 200 "
            f"({elapsed:.1f} s)")


def test_criterion_03_privacy_calibration():
    start = time.perf_counter()
    with pytest.warns(PrivacyRegimeWarning):
        s = noise_scale(2.0, 25, 1000, 0.1, 1e-5)
    reference = float((2 * mp.mpf(2) / (25 * mp.log((mp.e ** mp.mpf("0.1") - 1) * 40 + 1)))
                      * mp.sqrt(2 * mp.log(mp.mpf("1.25") * 25 / (1000 * mp.mpf("1e-5")))))
    value_ok = abs(s - 0.38903) <= 1e-4 and abs(s - reference) <= 1e-12 * reference
    c, m, eps, delta = 2.0, 1000, 0.5, 1e-5
    plain = (2 * c / (m * eps)) * math.sqrt(2 * math.log(1.25 / delta))
    reduction_ok = abs(noise_scale(c, m, m, eps, delta) - plain) <= 1e-12 * plain
    rng = worker_stream(7, 0, 1, 1)
    draws = gaussian_noise(100_000, s, 10, lambda _: rng).ravel()
    var_ok = abs(draws.var() - s * s) <= 0.01 * s * s
    elapsed = time.perf_counter() - start
    verdict(3, value_ok and reduction_ok and var_ok and elapsed < 10.0,
            f"s={s:.6f} (ref {reference:.6f}), full-batch reduction exact, "
            f"empirical var {draws.var():.6f} vs {s*s:.6f} ({elapsed:.1f} s)")


def test_criterion_04_violation_witness():
    start = time.perf_counter()
    model = quadratic_model(np.eye(10))
    ds = regression_targets(11, 200, 10, spread=0.3)
    witness = find_vn_violation(model, ds, GarSpec("median", 15, 6), S_REFERENCE, b=ds.m)
    grad_norm_sq = witness.rhs
    lhs = witness.lhs
    ok = (grad_norm_sq <= 3.41 and lhs >= 13.6 and not witness.satisfied
          and grad_norm_sq > 0)
    elapsed = time.perf_counter() - start
    verdict(4, ok and elapsed < 1.0,
            f"|grad Q|^2 = {grad_norm_sq:.4f} <= 3.41, kappa^2 Var = {lhs:.4f} >= 13.6 "
            f"({elapsed:.2f} s)")


def test_criterion_05_eta_bound_consistency():
    start = time.perf_counter()
    bounds = eta_bounds(0.70710678, 2.0, 10, 25, 1000, 0.1, 1e-5, 1.0)
    values_ok = (abs(bounds["eta_sq_necessary"] - 0.2449) <= 1e-3
                 and abs(bounds["eta_sq_sufficient"] - 3.656) <= 1e-2)
    rng = np.random.default_rng(5)
    checked = 0
    ordered = True
    while checked < 1000:
        kap = float(rng.uniform(0.05, 10))
        c = float(rng.uniform(0.1, 5))
        d = int(rng.integers(1, 200))
        m = int(rng.integers(2, 100_000))
        b = int(rng.integers(1, m + 1))
        eps = float(rng.uniform(1e-4, 0.999))
        delta = float(rng.uniform(1e-8, 0.5))
        ups = float(rng.uniform(0, 3))
        if not 1.25 * b / (m * delta) > 1:
            continue
        eb = eta_bounds(kap, c, d, b, m, eps, delta, ups)
        ordered = ordered and eb["eta_sq_necessary"] <= eb["eta_sq_sufficient"]
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(5, values_ok and ordered and elapsed < 5.0,
            f"necessary={bounds['eta_sq_necessary']:.4f} "
            f"sufficient={bounds['eta_sq_sufficient']:.3f}, "
            f"ordering held on {checked} tuples ({elapsed:.1f} s)")


def test_criterion_06_convergence_bound_holds():
    start = time.perf_counter()
    dim, m, b, steps = 10, 1000, 25, 10_000
    ds = regression_targets(123, m, dim, spread=0.3)
    model = quadratic_model(np.eye(dim))
    privacy = PrivacyParams(0.1, 1e-5, 2.0, b, m)
    theta_star = quadratic_minimizer(model, ds)
    q_star = full_loss(model, theta_star, ds)
    upsilon = math.sqrt(population_variance(model, theta_star, ds))
    # plain averaging with f = 0 gives alpha = 0, mu = 1; the tolerated
    # threshold is the submission variance at the minimizer (unit constant)
    eta_sq = submission_variance(model, theta_star, ds, b, privacy.s)
    sigma = sigma_total(upsilon, dim, privacy.s, 2.0)
    realized = []
    worst_q_init = -math.inf
    for seed in range(1, 11):
        config = RunConfig(model=model, dataset=ds, gar=GarSpec("average", 15, 0),
                           b=b, steps=steps, privacy=privacy, schedule="inv_sqrt",
                           master_seed=seed, eval_every=1)
        worst_q_init = max(worst_q_init, full_loss(model, initial_theta(config), ds))
        realized.append(run(config).min_sq_grad_norm)
    bound = convergence_bound(eta_sq, steps, alpha=0.0, mu=1.0, sigma=sigma,
                              smoothness=1.0, q_init=worst_q_init, q_star=q_star)
    mean_min = float(np.mean(realized))
    margin = bound - mean_min
    elapsed = time.perf_counter() - start
    verdict(6, margin >= 0.0 and elapsed < 120.0,
            f"mean min |grad Q|^2 = {mean_min:.3e} <= bound {bound:.4f} "
            f"(eta^2={eta_sq:.4f}, margin {margin:.4f}, {elapsed:.0f} s)")


def _trend_run(blobs, model, rule, f, attack_kind, b, seed):
    privacy = PrivacyParams(0.2, 1e-5, 2.0, b, blobs.m)
    config = RunConfig(model=model, dataset=blobs, gar=GarSpec(rule, 15, f),
                       attack=AttackSpec(attack_kind), b=b, steps=300,
                       privacy=privacy, schedule="constant", gamma=0.5,
                       momentum=0.99, master_seed=seed)
    return run(config).max_accuracy


def test_criterion_07_batch_size_trend():
    start = time.perf_counter()
    blobs = gaussian_blobs(2, 4000, 20, half_sep=0.16, axis_std=0.088, cross_std=0.16)
    model = logistic_model(20, lam=1e-4)
    means = {}
    for rule, f, attack_kind in (("mda", 3, "little"), ("average", 0, "none")):
        for b in (16, 512):
            accs = [_trend_run(blobs, model, rule, f, attack_kind, b, seed)
                    for seed in range(1, 6)]
            means[(rule, b)] = float(np.mean(accs))
    attacked_gap = means[("mda", 512)] - means[("mda", 16)]
    baseline_gap = means[("average", 512)] - means[("average", 16)]
    elapsed = time.perf_counter() - start
    verdict(7, attacked_gap >= 0.05 and baseline_gap <= 0.05 and elapsed < 600.0,
            f"attacked gap {attacked_gap:+.4f} >= 0.05, "
            f"noise-only gap {baseline_gap:+.4f} <= 0.05 ({elapsed:.0f} s)")


def test_criterion_08_two_cluster_exactness():
    start = time.perf_counter()
    ds = regression_targets(1, 200, 10, spread=0.4)
    model = quadratic_model(np.eye(10))
    shared = dict(model=model, dataset=ds, b=200, steps=200,
                  schedule="constant", gamma=0.5, master_seed=7)
    attacked = run(RunConfig(gar=GarSpec("mda", 15, 3),
                             attack=AttackSpec("empire", 1.1), **shared))
    clean = run(RunConfig(gar=GarSpec("average", 15, 0), **shared))
    identical = (np.array_equal(attacked.theta, clean.theta)
                 and attacked.records == clean.records)
    elapsed = time.perf_counter() - start
    verdict(8, identical and elapsed < 5.0,
            f"attacked mda trajectory bit-identical to the forgery-free run "
            f"over 200 rounds ({elapsed:.1f} s)")


def test_criterion_09_determinism(tmp_path):
    start = time.perf_counter()
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("""
model = logistic
dim = 3
reg = 1e-4
dataset = blobs
dataset_seed = 4
dataset_size = 40
n = 5
f = 1
gar = median
attack = little
epsilon = 0.5
delta = 1e-4
clip = 1.5
batch_size = 8
steps = 12
schedule = constant
gamma = 0.4
master_seed = 3
""")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", str(run_cfg), "--out", out_a]) == 0
    assert main(["run", str(run_cfg), "--out", out_b]) == 0
    csv_identical = (open(os.path.join(out_a, "metrics.csv"), "rb").read()
                     == open(os.path.join(out_b, "metrics.csv"), "rb").read())
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(run_cfg.read_text()
                         + "grid_batch_size = [8, 20]\ngrid_seed = [1, 2, 3]\n")
    out_1, out_8 = str(tmp_path / "j1"), str(tmp_path / "j8")
    assert main(["sweep", str(sweep_cfg), "--jobs", "1", "--out", out_1]) == 0
    assert main(["sweep", str(sweep_cfg), "--jobs", "8", "--out", out_8]) == 0
    sweep_identical = all(
        open(os.path.join(out_1, name), "rb").read()
        == open(os.path.join(out_8, name), "rb").read()
        for name in ("summary.csv", "aggregate.csv"))
    with open(os.path.join(out_1, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    elapsed = time.perf_counter() - start
    verdict(9, csv_identical and sweep_identical and len(rows) == 6
            and elapsed < 120.0,
            f"re-run CSV byte-identical, sweep summaries identical across "
            f"--jobs 1/8 ({elapsed:.0f} s)")


def test_criterion_10_batch_variance_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    checked = 0
    holds = True
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 40))
        a = rng.normal(0, 1, (d, d))
        model = quadratic_model(a @ a.T + 0.5 * np.eye(d), lam=float(rng.uniform(0, 0.3)))
        ds = regression_targets(int(rng.integers(0, 10_000)), m, d)
        theta = rng.normal(0, 2, d)
        pop = population_variance(model, theta, ds)
        for b in range(1, m + 1):
            holds = holds and batch_mean_variance(model, theta, ds, b) <= pop
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(10, holds and checked == 50 and elapsed < 10.0,
            f"batch-mean variance <= population variance for all b on "
            f"{checked} random instances ({elapsed:.1f} s)")
