"""Command-line front end: run, sweep, diagnose.

Configs are flat ``key = value`` text files; ``#`` starts a comment and grid
axes take bracketed lists, e.g. ``grid_batch_size = [16, 512]``. Unknown keys
and values of the wrong type (see ``KNOWN_KEYS``) are rejected. Exit codes:
0 success, 2 configuration error, 3 runtime error, 141 (128 + SIGPIPE) when
the reader closed stdout.
Every command loads its config through ``_load``, where the environment
variable BYZDP_SEED overrides master_seed and ``run --seed`` overrides both;
``theory_report`` is the one report that ``summary.json`` and ``diagnose`` read.
The builders decide what a run depends on: ``_load`` records each key they
read, and the run id digests the master seed and those keys alone.
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
from .diagnostics import convergence_bound, eta_bounds, find_vn_violation, sigma_total
from .engine import (SWEEP_AXES, CellResult, MetricsRecord, RunConfig, RunResult,
                     cell_digest, grid_values, initial_theta, run, sweep)
from .errors import ConfigurationError, ContractViolationError, DataLoadError, as_real
from .model import (ClipParams, Dataset, Model, estimate_min_loss, full_loss, gaussian_blobs,
                    load_csv, population_variance, read_lines, regression_targets,
                    smoothness_constant)
from .privacy import PrivacyParams, compose

CONFIG_ERRORS = (ConfigurationError, ContractViolationError, DataLoadError)

# Every config key and the type of its value: an int key takes an integer, a
# float key any finite number, read as a float, and a str key keeps its raw
# text. A grid_ key takes a bracketed list of such values. none leaves a
# scalar key unset; in a grid list it is the cell without privacy or without
# an attack, and engine.grid_values refuses it on the other axes.
KNOWN_KEYS = {
    "model": str, "dim": int, "hidden": int, "reg": float,
    "dataset": str, "dataset_seed": int, "dataset_size": int, "dataset_path": str,
    "half_sep": float, "axis_std": float, "cross_std": float, "spread": float,
    "n": int, "f": int, "gar": str, "attack": str, "zeta": float,
    "epsilon": float, "delta": float, "clip": float,
    "batch_size": int, "steps": int, "schedule": str, "gamma": float, "momentum": float,
    "master_seed": int, "eval_every": int,
    "alpha": float, "mu": float, "upsilon": float,
    "out": str,
    "grid_batch_size": int, "grid_epsilon": float, "grid_gar": str, "grid_attack": str,
    "grid_f": int, "grid_seed": int,
}

# the keys each dataset kind reads
DATASET_KEYS = {"blobs": ("dataset_seed", "dataset_size", "half_sep", "axis_std", "cross_std"),
                "targets": ("dataset_seed", "dataset_size", "spread"),
                "csv": ("dataset_path",)}

# the sweep axis each grid_ key names
GRID_KEY_TO_AXIS = {"grid_batch_size": "b", "grid_epsilon": "epsilon", "grid_gar": "gar",
                    "grid_attack": "attack", "grid_f": "f", "grid_seed": "seed"}

# the ranges of the keys that only the theory reads: _load checks them for
# every command, so that a config is refused by all commands or by none
THEORY_KEY_RANGES = {"upsilon": dict(low=0),
                     "alpha": dict(low=0, high=math.pi / 2, open_high=True),
                     "mu": dict(low=0)}

CSV_COLUMNS = ("run_id", "round", "loss", "grad_norm", "min_sq_grad_norm", "accuracy",
               "s", "gamma", "gar", "attack", "f", "epsilon", "delta", "b", "seed")


# ------------------------------------------------------------ config parsing

def _parse_scalar(tok: str, kind: type):
    """None for "none", else a value of the key's type; ValueError if it has none.

    A float key takes finite numbers only, so nan, inf and 1e999 raise.
    """
    tok = tok.strip()
    if not tok:
        raise ValueError(tok)
    if tok.lower() == "none":
        return None
    value = kind(tok)
    if kind is float and not math.isfinite(value):
        raise ValueError(tok)
    return value


def _parse_value(tok: str, kind: type, grid: bool):
    tok = tok.strip()
    if not grid:
        return _parse_scalar(tok, kind)
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ValueError(tok)
    inner = tok[1:-1].strip()
    return [] if not inner else [_parse_scalar(part, kind) for part in inner.split(",")]


def parse_config(path: str) -> dict:
    """Read a flat key = value file, rejecting unknown keys and ill-typed values.

    A scalar key set to none is left out, as if its line were absent. A file
    that cannot be read as UTF-8 text is a ConfigurationError too, naming it.
    """
    cfg: dict = {}
    for lineno, raw in enumerate(read_lines(path, ConfigurationError), start=1):
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
        kind, grid = KNOWN_KEYS[key], key.startswith("grid_")
        try:
            cfg[key] = _parse_value(value, kind, grid)
        except ValueError:
            one, many = {int: ("an integer", "integers"),
                         float: ("a finite number", "finite numbers"),
                         str: ("text", "words")}[kind]
            want = f"a bracketed list of {many}" if grid else one
            raise ConfigurationError(f"{path}:{lineno}: config key '{key}' must be "
                                     f"{want}, got '{value.strip()}'") from None
    return {key: value for key, value in cfg.items() if value is not None}


class _ReadKeys(dict):
    """Config keys that record each key looked up by value; ``key in cfg`` reads none."""

    def __init__(self, keys: dict):
        super().__init__(keys)
        self.read: set = set()

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.read.add(key)
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigurationError(f"missing required config field '{key}'")
    return cfg[key]


def _given(cfg: dict, *keys: str) -> dict:
    """The named keys that the config sets; the library supplies the others."""
    return {key: cfg[key] for key in keys if key in cfg}


def build_dataset(cfg: dict, classification: bool) -> Dataset:
    """The configured dataset; a key of another dataset kind is refused."""
    kind = _require(cfg, "dataset")
    if kind not in DATASET_KEYS:
        raise ConfigurationError(f"unknown dataset kind '{kind}'")
    if kind == "blobs" and not classification:
        raise ConfigurationError("the blobs dataset is for classification models")
    if kind == "targets" and classification:
        raise ConfigurationError("the targets dataset is for the quadratic model")
    for keys in DATASET_KEYS.values():
        for key in keys:
            if key in cfg and key not in DATASET_KEYS[kind]:
                raise ConfigurationError(f"the {kind} dataset takes no {key}")
    if kind == "csv":
        return load_csv(_require(cfg, "dataset_path"), classification)
    seed = cfg.get("dataset_seed", 0)
    m = _require(cfg, "dataset_size")
    dim = _require(cfg, "dim")
    if kind == "blobs":
        return gaussian_blobs(seed, m, dim, **_given(cfg, "half_sep", "axis_std", "cross_std"))
    return regression_targets(seed, m, dim, **_given(cfg, "spread"))


def build_model(cfg: dict, dataset: Dataset) -> Model:
    """The configured model; ``Model`` refuses the fields its kind does not take."""
    kind = _require(cfg, "model")
    if kind == "mlp1":
        _require(cfg, "hidden")
    # the model's width is dim, which RunConfig checks against the dataset
    width = cfg.get("dim", dataset.n_features)
    quadratic = kind == "quadratic"
    hessian = np.eye(width) if quadratic else None
    n_features = None if quadratic else width
    return Model(kind, cfg.get("reg", 0.0), hessian, n_features, cfg.get("hidden"))


def build_run_config(cfg: dict) -> RunConfig:
    kind = _require(cfg, "model")
    dataset = build_dataset(cfg, classification=kind != "quadratic")
    model = build_model(cfg, dataset)
    gar = GarSpec(_require(cfg, "gar"), _require(cfg, "n"), _require(cfg, "f"))
    if "zeta" in cfg and "attack" not in cfg:
        raise ConfigurationError("the none attack takes no zeta")
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
    options = _given(cfg, "schedule", "gamma", "momentum", "master_seed", "eval_every")
    return RunConfig(model=model, dataset=dataset, gar=gar, b=b, steps=_require(cfg, "steps"),
                     attack=attack, privacy=privacy, clip=clip_params, **options)


def _load(args) -> tuple[_ReadKeys, RunConfig, dict]:
    """The config keys, their RunConfig and the sweep grid of ``args.config``.

    ``sweep`` needs at least one grid_ key; ``run`` and ``diagnose`` take one
    configuration and reject the first grid_ key of the file. ``grid_values``
    checks the grid before any dataset is built. The master seed
    is ``run --seed``, else BYZDP_SEED, else the config's; the returned keys
    hold it whenever it overrides the config, and record each key read.
    upsilon, alpha and mu are checked against ``THEORY_KEY_RANGES`` and are
    not recorded.
    """
    cfg = _ReadKeys(parse_config(args.config))
    grid_keys = [key for key in cfg if key.startswith("grid_")]
    if args.command == "sweep" and not grid_keys:
        raise ConfigurationError("sweep needs at least one grid_* field")
    if args.command != "sweep" and grid_keys:
        raise ConfigurationError(f"config key '{grid_keys[0]}' is a sweep axis: "
                                 f"'byzdp {args.command}' takes one configuration; "
                                 f"use 'byzdp sweep'")
    grid = grid_values({GRID_KEY_TO_AXIS[key]: cfg[key] for key in grid_keys}) if grid_keys else {}
    seed = getattr(args, "seed", None)
    env = os.environ.get("BYZDP_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigurationError(f"BYZDP_SEED must be an integer, got '{env}'") from None
    if seed is not None:
        cfg["master_seed"] = seed
    config = build_run_config(cfg)
    for key, bounds in THEORY_KEY_RANGES.items():
        if key in cfg:
            # dict.get does not record the key, so a value in range moves no run id
            as_real(key, dict.get(cfg, key), ConfigurationError, **bounds)
    return cfg, config, grid


# ------------------------------------------------------------------- output

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """value with every non-finite float, nested ones too, replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


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


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_csv_text(run_id: str, records: tuple[MetricsRecord, ...], config: RunConfig) -> str:
    eps = config.privacy.epsilon if config.privacy else None
    delta = config.privacy.delta if config.privacy else None
    return _csv_text(CSV_COLUMNS, (
        (run_id, rec.round_no, rec.loss, rec.grad_norm, rec.min_sq_grad_norm,
         rec.accuracy, rec.s, rec.gamma, config.gar.rule, config.attack.kind, config.f,
         eps, delta, config.b, config.master_seed)
        for rec in records))


def resolved_config_text(cfg: dict) -> str:
    lines = [f"{key} = {_fmt_config_value(cfg[key])}" for key in KNOWN_KEYS if key in cfg]
    return "\n".join(lines) + "\n"


def _fmt_config_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_config_value(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def theory_report(cfg: dict, config: RunConfig) -> dict:
    """kappa, upsilon and, under a privacy budget, both eta^2 thresholds.

    upsilon is the config value when set, else the standard deviation of the
    per-point gradients at theta_1. The thresholds, ``eta_sq_necessary`` and
    ``eta_sq_sufficient``, are left out without a privacy budget. Raises
    ConfigurationError for a rule without a kappa (average).
    """
    kap = kappa(config.gar)
    if "upsilon" in cfg:
        ups = cfg["upsilon"]  # in range: _load checked it
    else:
        theta1 = initial_theta(config)
        ups = math.sqrt(population_variance(config.model, theta1, config.dataset))
    report = {"kappa": kap, "upsilon": ups}
    privacy = config.privacy
    if privacy is not None:
        report.update(eta_bounds(kap, privacy.c, config.model.dim, config.b,
                                 config.dataset.m, privacy.epsilon, privacy.delta, ups))
    return report


def run_summary(config: RunConfig, run_id: str, result, report: dict | None) -> dict:
    records = result.records
    summary: dict = {
        "run_id": run_id,
        "rounds_recorded": len(records),
        "max_accuracy": result.max_accuracy,
        "final_accuracy": records[-1].accuracy,
        "min_sq_grad_norm": result.min_sq_grad_norm,
        "final_loss": result.final_loss,
        "s": config.s,
    }
    if config.privacy is not None:
        summary["epsilon_inner"] = config.privacy.epsilon_inner
        summary["composition"] = compose(
            config.privacy.epsilon, config.privacy.delta, config.steps)
    if report is not None:
        summary["eta_bounds"] = report
    return summary


# ----------------------------------------------------------------- commands

def _out_dir(args, cfg: _ReadKeys, config: RunConfig) -> tuple[str, str]:
    """(id, directory) of a run or sweep: make the directory and write its config.resolved.

    The id digests the master seed and the keys read so far, so it is taken
    before ``out`` is read; config.resolved records every key the config sets
    plus the master seed. The directory is --out, else out, else
    byzdp-<command>-<id>.
    """
    ident = cell_digest(dict({key: cfg[key] for key in cfg.read},
                             master_seed=config.master_seed))
    resolved = dict(cfg, master_seed=config.master_seed)
    out_dir = args.out or cfg.get("out") or f"byzdp-{args.command}-{ident}"
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "config.resolved"), resolved_config_text(resolved))
    return ident, out_dir


def cmd_run(args) -> int:
    cfg, config, _ = _load(args)
    # before the directory is made, so that a report that fails leaves none
    report = (theory_report(cfg, config)
              if config.privacy is not None and config.gar.rule != "average" else None)
    run_id, out_dir = _out_dir(args, cfg, config)
    try:
        result = run(config)
    except CONFIG_ERRORS as exc:
        # the config passed its checks, so a run that stops is a runtime failure
        raise RuntimeError(str(exc)) from exc
    _atomic_write(os.path.join(out_dir, "metrics.csv"),
                  metrics_csv_text(run_id, result.records, config))
    summary = run_summary(config, run_id, result, report)
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(_json_value(summary), indent=2, sort_keys=True,
                             allow_nan=False) + "\n")
    print(f"run {run_id}: {len(result.records)} metric rows -> {out_dir}")
    if result.max_accuracy is not None:
        print(f"max accuracy {result.max_accuracy:.6f}")
    print(f"min squared gradient norm {result.min_sq_grad_norm:.6g}")
    return 0


def summary_csv_text(results: list[CellResult]) -> str:
    cols = ("cell_id", "status", *SWEEP_AXES, "max_accuracy", "min_sq_grad_norm",
            "final_loss", "reason")
    rows = []
    for res in results:
        r = res.result
        metrics = (r.max_accuracy, r.min_sq_grad_norm, r.final_loss) if res.ok else (None,) * 3
        reason = (res.reason or "").replace(",", ";").replace("\n", " ")
        rows.append((res.cell_id, "ok" if res.ok else "failed",
                     *(res.params[axis] for axis in SWEEP_AXES), *metrics, reason))
    return _csv_text(cols, rows)


def aggregate_csv_text(results: list[CellResult]) -> str:
    """Group cells over seeds; mean and population std of max accuracy."""
    axes = tuple(axis for axis in SWEEP_AXES if axis != "seed")
    cols = (*axes, "runs", "mean_max_accuracy", "std_max_accuracy", "mean_min_sq_grad_norm")
    groups: dict[tuple, list[RunResult]] = {}
    for res in results:
        if res.ok:
            key = tuple(res.params[axis] for axis in axes)
            groups.setdefault(key, []).append(res.result)
    rows = []
    for key, runs in groups.items():
        accs = [r.max_accuracy for r in runs if r.max_accuracy is not None]
        mean_acc = float(np.mean(accs)) if accs else None
        std_acc = float(np.std(accs)) if accs else None
        mean_min = float(np.mean([r.min_sq_grad_norm for r in runs]))
        rows.append((*key, len(runs), mean_acc, std_acc, mean_min))
    return _csv_text(cols, rows)


def cmd_sweep(args) -> int:
    cfg, base, grid = _load(args)
    results = sweep(base, grid, jobs=args.jobs)
    # after the sweep, so that a grid it rejects leaves no directory
    sweep_id, out_dir = _out_dir(args, cfg, base)
    for res in results:
        if res.ok:
            _atomic_write(os.path.join(out_dir, f"metrics-{res.cell_id}.csv"),
                          metrics_csv_text(res.cell_id, res.result.records, res.config))
    _atomic_write(os.path.join(out_dir, "summary.csv"), summary_csv_text(results))
    _atomic_write(os.path.join(out_dir, "aggregate.csv"), aggregate_csv_text(results))
    n_ok = sum(res.ok for res in results)
    n_failed = len(results) - n_ok
    print(f"sweep {sweep_id}: {n_ok} cells ok, {n_failed} failed -> {out_dir}")
    for res in results:
        if not res.ok:
            print(f"  failed {res.cell_id} {res.params}: {res.reason}")
    return 0 if n_ok > 0 else 3


def cmd_diagnose(args) -> int:
    cfg, config, _ = _load(args)
    report = theory_report(cfg, config)
    kap, ups = report["kappa"], report["upsilon"]
    # every line is computed first, so that a config error exits with none printed
    lines = [f"kappa({config.gar.rule}, n={config.n}, f={config.f}) = {kap:.8g}",
             f"s = {config.s:.8g}"]
    if config.privacy is not None:
        lines.append(f"epsilon_inner = {config.privacy.epsilon_inner:.8g}")
    lines.append(f"upsilon = {ups:.8g} ({'config' if 'upsilon' in cfg else 'at theta_1'})")
    if config.privacy is not None:
        lines.append(f"eta_sq_necessary = {report['eta_sq_necessary']:.8g}")
        lines.append(f"eta_sq_sufficient = {report['eta_sq_sufficient']:.8g}")
        eta_sq = report["eta_sq_sufficient"]
    else:
        eta_sq = kap * kap * ups * ups
        lines.append("eta bounds: not applicable (no privacy budget)")
    if config.clip is not None:
        sig = sigma_total(ups, config.model.dim, config.s, config.clip.c)
        lines.append(f"sigma = {sig:.8g}")
        if config.model.kind in ("quadratic", "logistic"):
            lips = smoothness_constant(config.model, config.dataset)
            theta1 = initial_theta(config)
            q_init = full_loss(config.model, theta1, config.dataset)
            q_star = estimate_min_loss(config.model, config.dataset)
            alpha, mu = cfg.get("alpha", 0.0), cfg.get("mu", 1.0)
            bound = convergence_bound(eta_sq, config.steps, alpha, mu, sig, lips,
                                      q_init, q_star)
            exact = config.model.kind == "quadratic"
            lines.append(f"theorem bound (T={config.steps}, alpha={alpha}, mu={mu}) = "
                         f"{bound:.8g}" + ("" if exact else "  [q_star is an upper bound]"))
        else:
            lines.append(f"theorem bound: not applicable (no smoothness constant for "
                         f"{config.model.kind})")
    else:
        lines.append("sigma, theorem bound: not applicable (no clip bound)")
    if config.model.kind == "quadratic":
        if config.s > 0:
            witness = find_vn_violation(config.model, config.dataset, config.gar,
                                        config.s, b=config.b)
            lines.append("vn violation witness: "
                         f"lhs = {witness.lhs:.8g}, rhs = {witness.rhs:.8g}, "
                         f"satisfied = {witness.satisfied}")
        else:
            lines.append("vn violation: not applicable (s = 0)")
    print("\n".join(lines))
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
    commands = {"run": cmd_run, "sweep": cmd_sweep, "diagnose": cmd_diagnose}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as a SIGPIPE kill would, and point
        # stdout at devnull so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
