"""Command-line front end: run, sweep, diagnose.

Configs are flat ``key = value`` text files; ``#`` starts a comment and grid
axes take bracketed lists, e.g. ``grid_batch_size = [16, 512]``. Unknown keys
are rejected. Exit codes: 0 success, 2 configuration error, 3 runtime error.
The environment variable BYZDP_SEED overrides master_seed; the --seed flag
overrides both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .aggregation import GarSpec, kappa
from .attack import AttackSpec
from .diagnostics import (EtaBounds, convergence_bound, eta_bounds, find_vn_violation,
                          sigma_total)
from .engine import (CellResult, MetricsRecord, RunConfig, cell_digest, initial_theta,
                     run, sweep)
from .errors import (CalibrationError, ConfigurationError,
                     ContractViolationError, DataLoadError)
from .model import (ClipParams, Dataset, Model, full_loss, gaussian_blobs, load_csv,
                    logistic_model, mlp1_model, estimate_min_loss, population_variance,
                    quadratic_model, regression_targets, smoothness_constant)
from .privacy import PrivacyParams, compose

CONFIG_ERRORS = (ConfigurationError, ContractViolationError, DataLoadError,
                 CalibrationError, FileNotFoundError)

KNOWN_KEYS = (
    "model", "dim", "hidden", "reg", "hessian",
    "dataset", "dataset_seed", "dataset_size", "dataset_path",
    "half_sep", "axis_std", "cross_std", "spread",
    "n", "f", "gar", "attack", "zeta",
    "epsilon", "delta", "clip",
    "batch_size", "steps", "schedule", "gamma", "momentum",
    "master_seed", "eval_every",
    "alpha", "mu", "upsilon", "delta_slack",
    "out",
    "grid_batch_size", "grid_epsilon", "grid_gar", "grid_attack", "grid_f", "grid_seed",
)

CSV_COLUMNS = ("run_id", "round", "loss", "grad_norm", "min_sq_grad_norm", "accuracy",
               "s", "gamma", "gar", "attack", "f", "epsilon", "delta", "b", "seed")


# ------------------------------------------------------------ config parsing

def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.lower() == "none":
        return None
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def _parse_value(tok: str):
    tok = tok.strip()
    if tok.startswith("[") and tok.endswith("]"):
        inner = tok[1:-1].strip()
        return [] if not inner else [_parse_scalar(part) for part in inner.split(",")]
    return _parse_scalar(tok)


def parse_config(path: str) -> dict:
    """Read a flat key = value file, rejecting unknown keys."""
    cfg: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown config key '{key}'")
            if key in cfg:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key '{key}'")
            cfg[key] = _parse_value(value)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigurationError(f"missing required config field '{key}'")
    return cfg[key]


def build_dataset(cfg: dict, classification: bool) -> Dataset:
    kind = _require(cfg, "dataset")
    if kind == "csv":
        return load_csv(_require(cfg, "dataset_path"), classification)
    seed = cfg.get("dataset_seed", 0)
    m = _require(cfg, "dataset_size")
    dim = _require(cfg, "dim")
    if kind == "blobs":
        if not classification:
            raise ConfigurationError("the blobs dataset is for classification models")
        return gaussian_blobs(seed, m, dim,
                              half_sep=cfg.get("half_sep", 1.5),
                              axis_std=cfg.get("axis_std", 1.0),
                              cross_std=cfg.get("cross_std", 1.0))
    if kind == "targets":
        if classification:
            raise ConfigurationError("the targets dataset is for the quadratic model")
        return regression_targets(seed, m, dim, spread=cfg.get("spread", 1.0))
    raise ConfigurationError(f"unknown dataset kind '{kind}'")


def build_model(cfg: dict, dataset: Dataset) -> Model:
    kind = _require(cfg, "model")
    lam = cfg.get("reg", 0.0)
    if kind == "quadratic":
        dim = cfg.get("dim", dataset.n_features)
        hess_kind = cfg.get("hessian", "identity")
        if hess_kind != "identity":
            raise ConfigurationError("config-built quadratic models support hessian = identity")
        return quadratic_model(np.eye(dim), lam)
    if kind == "logistic":
        return logistic_model(dataset.n_features, lam)
    if kind == "mlp1":
        return mlp1_model(dataset.n_features, _require(cfg, "hidden"), lam)
    raise ConfigurationError(f"unknown model kind '{kind}'")


def build_run_config(cfg: dict, seed_override: int | None = None) -> RunConfig:
    kind = _require(cfg, "model")
    dataset = build_dataset(cfg, classification=kind != "quadratic")
    model = build_model(cfg, dataset)
    gar = GarSpec(_require(cfg, "gar"), _require(cfg, "n"), _require(cfg, "f"))
    attack = AttackSpec(cfg.get("attack", "none"), cfg.get("zeta"))
    b = _require(cfg, "batch_size")
    clip_c = cfg.get("clip")
    clip_params = ClipParams(clip_c) if clip_c is not None else None
    epsilon = cfg.get("epsilon")
    if epsilon is not None:
        if clip_c is None:
            raise ConfigurationError("a privacy budget needs the 'clip' field")
        privacy = PrivacyParams(epsilon, cfg.get("delta", 1e-5), clip_c, b, dataset.m)
    else:
        privacy = None
    seed = seed_override if seed_override is not None else cfg.get("master_seed", 1)
    return RunConfig(
        model=model, dataset=dataset, gar=gar, b=b, steps=_require(cfg, "steps"),
        attack=attack, privacy=privacy, clip=clip_params,
        schedule=cfg.get("schedule", "inv_sqrt"), gamma=cfg.get("gamma"),
        momentum=cfg.get("momentum", 0.0), master_seed=seed,
        eval_every=cfg.get("eval_every", 1))


def resolve_seed(cfg: dict, flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("BYZDP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigurationError(f"BYZDP_SEED must be an integer, got '{env}'") from exc
    return None


# ------------------------------------------------------------------- output

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def metrics_csv_text(run_id: str, records: list[MetricsRecord], config: RunConfig) -> str:
    eps = config.privacy.epsilon if config.privacy else None
    delta = config.privacy.delta if config.privacy else None
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join([
            run_id, str(rec.round_no), _fmt(rec.loss), _fmt(rec.grad_norm),
            _fmt(rec.min_sq_grad_norm), _fmt(rec.accuracy), _fmt(rec.s),
            _fmt(rec.gamma), config.gar.rule, config.attack.kind, str(config.f),
            _fmt(eps), _fmt(delta), str(config.b), str(config.master_seed)]))
    return "\n".join(lines) + "\n"


def resolved_config_text(cfg: dict) -> str:
    lines = [f"{key} = {_fmt_config_value(cfg[key])}" for key in KNOWN_KEYS if key in cfg]
    return "\n".join(lines) + "\n"


def _fmt_config_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_config_value(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def theory_report(cfg: dict, config: RunConfig) -> tuple[float, float, EtaBounds | None]:
    """(kappa, upsilon, eta^2 thresholds) of a configuration.

    upsilon is the config value when set, else the standard deviation of the
    per-point gradients at theta_1. The thresholds are None without a privacy
    budget. Raises ConfigurationError for a rule without a kappa (average).
    """
    kap = kappa(config.gar).value
    if cfg.get("upsilon") is not None:
        ups = float(cfg["upsilon"])
    else:
        theta1 = initial_theta(config)
        ups = math.sqrt(population_variance(config.model, theta1, config.dataset))
    if config.privacy is None:
        return kap, ups, None
    privacy = config.privacy
    bounds = eta_bounds(kap, privacy.c, config.model.dim, config.b, config.dataset.m,
                        privacy.epsilon, privacy.delta, ups)
    return kap, ups, bounds


def run_summary(cfg: dict, config: RunConfig, run_id: str, result) -> dict:
    records = result.records
    summary: dict = {
        "run_id": run_id,
        "rounds_recorded": len(records),
        "max_accuracy": result.max_accuracy,
        "final_accuracy": records[-1].accuracy if records else None,
        "min_sq_grad_norm": result.min_sq_grad_norm if records else None,
        "final_loss": result.final_loss if records else None,
        "s": config.s,
    }
    if config.privacy is not None:
        summary["epsilon_inner"] = config.privacy.epsilon_inner
        summary["composition"] = compose(
            config.privacy.epsilon, config.privacy.delta, config.steps,
            cfg.get("delta_slack", 1e-4)).as_dict()
        if config.gar.rule != "average":
            kap, ups, bounds = theory_report(cfg, config)
            summary["eta_bounds"] = {
                "kappa": kap,
                "upsilon": ups,
                "eta_sq_necessary": bounds.eta_sq_necessary,
                "eta_sq_sufficient": bounds.eta_sq_sufficient,
            }
    return summary


# ----------------------------------------------------------------- commands

def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    seed = resolve_seed(cfg, args.seed)
    config = build_run_config(cfg, seed)
    resolved = dict(cfg)
    resolved["master_seed"] = config.master_seed
    run_id = cell_digest({key: str(resolved.get(key)) for key in KNOWN_KEYS})
    out_dir = args.out or cfg.get("out") or f"byzdp-run-{run_id}"
    os.makedirs(out_dir, exist_ok=True)
    result = run(config)
    _atomic_write(os.path.join(out_dir, "metrics.csv"),
                  metrics_csv_text(run_id, result.records, config))
    summary = run_summary(cfg, config, run_id, result)
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _atomic_write(os.path.join(out_dir, "config.resolved"), resolved_config_text(resolved))
    print(f"run {run_id}: {len(result.records)} metric rows -> {out_dir}")
    if result.max_accuracy is not None:
        print(f"max accuracy {result.max_accuracy:.6f}")
    print(f"min squared gradient norm {result.min_sq_grad_norm:.6g}")
    return 0


GRID_KEY_TO_AXIS = {
    "grid_batch_size": "b",
    "grid_epsilon": "epsilon",
    "grid_gar": "gar",
    "grid_attack": "attack",
    "grid_f": "f",
    "grid_seed": "seed",
}


def summary_csv_text(results: list[CellResult]) -> str:
    cols = ("cell_id", "status", "b", "epsilon", "gar", "attack", "f", "seed",
            "max_accuracy", "min_sq_grad_norm", "final_loss", "reason")
    lines = [",".join(cols)]
    for res in results:
        p = res.params
        reason = (res.reason or "").replace(",", ";").replace("\n", " ")
        lines.append(",".join([
            res.cell_id, res.status, _fmt(p["b"]), _fmt(p["epsilon"]), str(p["gar"]),
            str(p["attack"]), _fmt(p["f"]), _fmt(p["seed"]), _fmt(res.max_accuracy),
            _fmt(res.min_sq_grad_norm), _fmt(res.final_loss), reason]))
    return "\n".join(lines) + "\n"


def aggregate_csv_text(results: list[CellResult]) -> str:
    """Group cells over seeds; mean and population std of max accuracy."""
    cols = ("b", "epsilon", "gar", "attack", "f", "runs", "mean_max_accuracy",
            "std_max_accuracy", "mean_min_sq_grad_norm")
    groups: dict[tuple, list[CellResult]] = {}
    order: list[tuple] = []
    for res in results:
        if not res.ok:
            continue
        key = (res.params["b"], res.params["epsilon"], res.params["gar"],
               res.params["attack"], res.params["f"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(res)
    lines = [",".join(cols)]
    for key in order:
        cells = groups[key]
        accs = [c.max_accuracy for c in cells if c.max_accuracy is not None]
        mins = [c.min_sq_grad_norm for c in cells]
        mean_acc = float(np.mean(accs)) if accs else None
        std_acc = float(np.std(accs)) if accs else None
        lines.append(",".join([
            _fmt(key[0]), _fmt(key[1]), str(key[2]), str(key[3]), _fmt(key[4]),
            str(len(cells)), _fmt(mean_acc), _fmt(std_acc),
            _fmt(float(np.mean(mins)))]))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    seed = resolve_seed(cfg, None)
    base = build_run_config(cfg, seed)
    grid = {axis: cfg[key] for key, axis in GRID_KEY_TO_AXIS.items() if key in cfg}
    if not grid:
        raise ConfigurationError("sweep needs at least one grid_* field")
    results = sweep(base, grid, jobs=args.jobs)
    sweep_id = cell_digest({key: str(cfg.get(key)) for key in KNOWN_KEYS})
    out_dir = args.out or cfg.get("out") or f"byzdp-sweep-{sweep_id}"
    os.makedirs(out_dir, exist_ok=True)
    for res in results:
        if res.ok:
            _atomic_write(os.path.join(out_dir, f"metrics-{res.cell_id}.csv"),
                          metrics_csv_text(res.cell_id, res.records, res.config))
    _atomic_write(os.path.join(out_dir, "summary.csv"), summary_csv_text(results))
    _atomic_write(os.path.join(out_dir, "aggregate.csv"), aggregate_csv_text(results))
    _atomic_write(os.path.join(out_dir, "config.resolved"), resolved_config_text(cfg))
    n_ok = sum(res.ok for res in results)
    n_failed = len(results) - n_ok
    print(f"sweep {sweep_id}: {n_ok} cells ok, {n_failed} failed -> {out_dir}")
    for res in results:
        if not res.ok:
            print(f"  failed {res.cell_id} {res.params}: {res.reason}")
    return 0 if n_ok > 0 else 3


def cmd_diagnose(args) -> int:
    cfg = parse_config(args.config)
    seed = resolve_seed(cfg, None)
    config = build_run_config(cfg, seed)
    kap, ups, bounds = theory_report(cfg, config)
    print(f"kappa({config.gar.rule}, n={config.n}, f={config.f}) = {kap:.8g}")
    print(f"s = {config.s:.8g}")
    if config.privacy is not None:
        print(f"epsilon_inner = {config.privacy.epsilon_inner:.8g}")
    print(f"upsilon = {ups:.8g} ({'config' if cfg.get('upsilon') is not None else 'at theta_1'})")
    if bounds is not None:
        print(f"eta_sq_necessary = {bounds.eta_sq_necessary:.8g}")
        print(f"eta_sq_sufficient = {bounds.eta_sq_sufficient:.8g}")
        eta_sq = bounds.eta_sq_sufficient
    else:
        eta_sq = kap * kap * ups * ups
        print("eta bounds: not applicable (no privacy budget)")
    if config.clip is not None:
        sig = sigma_total(ups, config.model.dim, config.s, config.clip.c)
        print(f"sigma = {sig:.8g}")
        if config.model.kind in ("quadratic", "logistic"):
            lips = smoothness_constant(config.model, config.dataset)
            theta1 = initial_theta(config)
            q_init = full_loss(config.model, theta1, config.dataset)
            q_star = estimate_min_loss(config.model, config.dataset)
            bound = convergence_bound(eta_sq, config.steps, cfg.get("alpha", 0.0),
                                      cfg.get("mu", 1.0), sig, lips, q_init, q_star)
            exact = config.model.kind == "quadratic"
            print(f"theorem bound (T={config.steps}, alpha={cfg.get('alpha', 0.0)}, "
                  f"mu={cfg.get('mu', 1.0)}) = {bound.value:.8g}"
                  + ("" if exact else "  [q_star is an upper bound]"))
    else:
        print("sigma, theorem bound: not applicable (no clip bound)")
    if config.model.kind == "quadratic":
        if config.s > 0:
            witness = find_vn_violation(config.model, config.dataset, config.gar,
                                        config.s, b=config.b)
            print("vn violation witness: "
                  f"lhs = {witness.lhs:.8g}, rhs = {witness.rhs:.8g}, "
                  f"satisfied = {witness.satisfied}")
        else:
            print("vn violation: not applicable (s = 0)")
    return 0


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzdp",
        description="Distributed SGD with worker-side privacy noise and a "
                    "Byzantine-resilient server")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_sweep = sub.add_parser("sweep", help="execute a grid of runs")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_diag = sub.add_parser("diagnose", help="print calibration and bound values")
    p_diag.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_diagnose(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
