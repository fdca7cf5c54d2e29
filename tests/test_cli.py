"""Config parsing, commands, output files, exit codes."""

import csv
import json
import math
import os

import numpy as np
import pytest

from byzdp.cli import build_run_config, main, parse_config
from byzdp.engine import run

QUADRATIC_RUN = """
model = quadratic
dim = 4
dataset = targets
dataset_seed = 3
dataset_size = 30
spread = 0.5
n = 5
f = 0
gar = average
batch_size = 30
steps = 20
schedule = constant
gamma = 0.5
eval_every = 2
master_seed = 9
"""

LOGISTIC_SWEEP = """
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
steps = 6
schedule = constant
gamma = 0.4
master_seed = 1
grid_batch_size = [8, 20]
grid_seed = [1, 2, 3, 4, 5]
"""

DIAGNOSE_MDA = """
model = quadratic
dim = 10
dataset = targets
dataset_seed = 11
dataset_size = 1000
spread = 0.3
n = 15
f = 3
gar = mda
epsilon = 0.1
delta = 1e-5
clip = 2.0
batch_size = 25
steps = 300
schedule = constant
gamma = 0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------- parsing

def test_parse_config_values(tmp_path):
    path = write(tmp_path, "c.cfg", "gar = mda\nbatch_size = 25\ngamma = 0.5\n"
                                    "grid_f = [3, 6]\nepsilon = none\n# comment\n")
    cfg = parse_config(path)
    assert cfg == {"gar": "mda", "batch_size": 25, "gamma": 0.5,
                   "grid_f": [3, 6], "epsilon": None}


def test_unknown_key_rejected(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", "learning_rate = 0.5\n")
    assert main(["run", path]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", "model = quadratic\n")
    assert main(["run", path]) == 2
    assert "dataset" in capsys.readouterr().err


# --------------------------------------------------------------------- run

def test_run_writes_expected_rows(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "metrics.csv"))
    assert len(rows) == 10  # steps / eval_every
    assert rows[0]["round"] == "2" and rows[-1]["round"] == "20"
    assert rows[0]["gar"] == "average"
    assert rows[0]["epsilon"] == ""  # no privacy budget
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["rounds_recorded"] == 10
    assert summary["s"] == 0
    assert os.path.exists(os.path.join(out, "config.resolved"))


def diverging_config(tmp_path):
    """The quadratic demo with gamma = 1e300 and 50 steps: theta runs off to 1e299."""
    demo = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "demos", "configs", "run_quadratic_baseline.cfg")
    text = open(demo).read()
    text = text.replace("schedule = inv_sqrt", "schedule = constant\ngamma = 1e300")
    text = text.replace("steps = 2000", "steps = 50")
    return write(tmp_path, "diverge.cfg", text)


def test_diverged_run_reads_inf_loss_and_finite_gradient_norm(tmp_path):
    # lam = 0 and |theta|^2 overflows: the loss is +inf, not 0 * inf = nan;
    # the gradient stays finite, and so does its norm, about 1e300
    config = build_run_config(parse_config(diverging_config(tmp_path)))
    assert config.model.lam == 0.0
    records = run(config).records
    assert len(records) == 5
    assert all(rec.loss == math.inf for rec in records)
    assert all(1e299 < rec.grad_norm < 1e301 for rec in records)
    assert records[-1].min_sq_grad_norm == math.inf


def test_diverged_run_writes_strict_json(tmp_path):
    # gamma = 1e300 sends theta off; the non-finite summary values become null
    cfg = diverging_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    summary = json.loads(open(os.path.join(out, "summary.json")).read(),
                         parse_constant=reject)
    assert summary["final_loss"] is None
    assert summary["composition"]["steps"] == 50


def test_run_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out_a]) == 0
    assert main(["run", cfg, "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert bytes_a == bytes_b


def test_bulyan_constraint_fails_before_running(tmp_path, capsys):
    text = QUADRATIC_RUN.replace("gar = average", "gar = bulyan").replace(
        "f = 0", "f = 6").replace("n = 5", "n = 15")
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "4f+3" in err
    assert not os.path.exists(tmp_path / "x")


def test_seed_overrides(tmp_path, monkeypatch):
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN)
    out_env = str(tmp_path / "env")
    monkeypatch.setenv("BYZDP_SEED", "77")
    assert main(["run", cfg, "--out", out_env]) == 0
    rows = read_rows(os.path.join(out_env, "metrics.csv"))
    assert rows[0]["seed"] == "77"
    out_flag = str(tmp_path / "flag")
    assert main(["run", cfg, "--seed", "123", "--out", out_flag]) == 0
    rows = read_rows(os.path.join(out_flag, "metrics.csv"))
    assert rows[0]["seed"] == "123"  # the flag beats the environment


def test_run_from_csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(24):
        label = 1.0 if i % 2 == 0 else -1.0
        x = rng.normal(label, 1.0, 2)
        lines.append(f"{x[0]},{x[1]},{label}")
    data = write(tmp_path, "points.csv", "\n".join(lines) + "\n")
    cfg = write(tmp_path, "csv.cfg", f"""
model = logistic
dataset = csv
dataset_path = {data}
n = 3
f = 0
gar = average
batch_size = 24
steps = 5
schedule = constant
gamma = 0.5
""")
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "metrics.csv"))
    assert len(rows) == 5
    assert rows[0]["accuracy"] != ""


# ------------------------------------------------------------------- sweep

def test_sweep_outputs_and_grouping(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "summary.csv"))
    assert len(rows) == 10
    assert all(r["status"] == "ok" for r in rows)
    agg = read_rows(os.path.join(out, "aggregate.csv"))
    assert len(agg) == 2
    # the aggregate mean must equal the arithmetic mean of its cells
    for group in agg:
        members = [float(r["max_accuracy"]) for r in rows
                   if r["b"] == group["b"] and r["status"] == "ok"]
        assert float(group["runs"]) == len(members) == 5
        assert float(group["mean_max_accuracy"]) == pytest.approx(
            sum(members) / len(members), rel=1e-12)
    cells = [f for f in os.listdir(out) if f.startswith("metrics-")]
    assert len(cells) == 10


def test_sweep_marks_invalid_cells(tmp_path, capsys):
    text = LOGISTIC_SWEEP.replace("grid_batch_size = [8, 20]",
                                  "grid_gar = [median, bulyan]")
    cfg = write(tmp_path, "sweep.cfg", text)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "summary.csv"))
    status = {(r["gar"], r["seed"]): r["status"] for r in rows}
    assert all(status[("median", str(s))] == "ok" for s in range(1, 6))
    assert all(status[("bulyan", str(s))] == "failed" for s in range(1, 6))
    # "none" parses to None, which is no rule; the failed row names it
    cfg = write(tmp_path, "none.cfg", text.replace("[median, bulyan]", "[median, none]"))
    out = str(tmp_path / "none")
    assert main(["sweep", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "summary.csv"))
    assert [r["gar"] for r in rows if r["status"] == "failed"] == ["None"] * 5
    assert all(r["gar"] == "median" for r in rows if r["status"] == "ok")


def test_sweep_jobs_do_not_change_results(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP)
    out1, out8 = str(tmp_path / "j1"), str(tmp_path / "j8")
    assert main(["sweep", cfg, "--jobs", "1", "--out", out1]) == 0
    assert main(["sweep", cfg, "--jobs", "8", "--out", out8]) == 0
    # the metrics files are written from configs returned by the pool workers
    cells = sorted(f for f in os.listdir(out1) if f.startswith("metrics-"))
    assert len(cells) == 10
    assert sorted(f for f in os.listdir(out8) if f.startswith("metrics-")) == cells
    for name in ("summary.csv", "aggregate.csv", *cells):
        assert open(os.path.join(out1, name), "rb").read() == \
               open(os.path.join(out8, name), "rb").read()


# ---------------------------------------------------------------- diagnose

def test_diagnose_prints_constants(tmp_path, capsys):
    cfg = write(tmp_path, "diag.cfg", DIAGNOSE_MDA)
    assert main(["diagnose", cfg]) == 0
    out = capsys.readouterr().out
    assert "0.7071" in out
    assert "0.38902" in out or "0.38903" in out
    assert "eta_sq_necessary" in out
    assert "sigma" in out
    assert "vn violation witness" in out
    assert "satisfied = False" in out


def test_diagnose_average_has_no_kappa(tmp_path, capsys):
    text = DIAGNOSE_MDA.replace("gar = mda", "gar = average").replace("f = 3", "f = 0")
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["diagnose", cfg]) == 2
    assert "no kappa" in capsys.readouterr().err


def test_diagnose_reports_inapplicable_violation_without_noise(tmp_path, capsys):
    text = DIAGNOSE_MDA.replace("epsilon = 0.1", "epsilon = none")
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["diagnose", cfg]) == 0
    out = capsys.readouterr().out
    assert "not applicable (s = 0)" in out
