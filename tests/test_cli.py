"""Config parsing, commands, output files, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from byzdp.cli import KNOWN_KEYS, build_run_config, main, parse_config
from byzdp.engine import run

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

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
                                    "grid_f = [3, 6]\nepsilon = none\n# comment\n"
                                    "clip = 2\ngrid_epsilon = [0.5, none]\n"
                                    "dataset_path = 2024\nout = 007\n")
    cfg = parse_config(path)
    # an int key takes an int, a float key reads an integer as a float; a path
    # keeps its raw text; a scalar none is left out, and none inside a grid list stays
    assert cfg == {"gar": "mda", "batch_size": 25, "gamma": 0.5,
                   "grid_f": [3, 6], "clip": 2.0,
                   "grid_epsilon": [0.5, None], "dataset_path": "2024", "out": "007"}
    assert type(cfg["clip"]) is float
    assert type(cfg["batch_size"]) is int


def test_a_none_line_still_counts_as_a_duplicate(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", QUADRATIC_RUN + "epsilon = none\nepsilon = 0.5\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "duplicate key 'epsilon'" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        paragraph = fh.read().split("Recognized keys:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", paragraph)) == sorted(KNOWN_KEYS)


@pytest.mark.parametrize("line", [
    "batch_size = 30.0", "steps = 20.0", "n = 5.0", "master_seed = 9.5", "gamma = fast",
    "spread = abc", "grid_seed = 3", "grid_f = [0, 1.5]", "grid_epsilon = [0.5, fast]",
    # a float key takes finite numbers only
    "clip = inf", "spread = nan", "reg = inf", "gamma = 1e999", "zeta = -inf",
    "grid_epsilon = [0.5, nan]",
])
def test_ill_typed_value_is_a_config_error(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    lines = [kept for kept in QUADRATIC_RUN.strip().splitlines()
             if not kept.startswith(key + " ")] + [line]
    path = write(tmp_path, "c.cfg", "\n".join(lines) + "\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{len(lines)}: config key '{key}'" in err


def test_unknown_key_rejected(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", "learning_rate = 0.5\n")
    assert main(["run", path]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", "model = quadratic\n")
    assert main(["run", path]) == 2
    assert "dataset" in capsys.readouterr().err


# ------------------------------------------------------------ none is unset

# Each scalar key is left out of one copy of a config and set to none in the
# other; the two must run alike. These configs set every key that changes
# their output, with values away from the library defaults.
LOGISTIC_PRIVATE_RUN = """
model = logistic
dim = 3
reg = 1e-3
dataset = blobs
dataset_seed = 4
dataset_size = 40
half_sep = 0.8
axis_std = 0.5
cross_std = 0.7
n = 5
f = 1
gar = mda
attack = little
zeta = 0.5
epsilon = 0.5
delta = 1e-4
clip = 1.5
batch_size = 8
steps = 6
schedule = constant
gamma = 0.4
momentum = 0.5
master_seed = 3
eval_every = 2
"""

QUADRATIC_PRIVATE_RUN = """
model = quadratic
dim = 4
dataset = targets
dataset_seed = 3
dataset_size = 30
spread = 0.5
n = 5
f = 1
gar = median
epsilon = 0.5
delta = 1e-4
clip = 2.0
batch_size = 10
steps = 20
master_seed = 9
eval_every = 2
upsilon = 0.7
"""


def _demo_config(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "demos", "configs", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


NONE_CASES = {
    "run_logistic": ("run", LOGISTIC_PRIVATE_RUN),
    "run_quadratic": ("run", QUADRATIC_PRIVATE_RUN),
    "diagnose_mda": ("diagnose", _demo_config("diagnose_mda.cfg")),
}

SCALAR_KEYS = sorted(key for key in KNOWN_KEYS if not key.startswith("grid_"))


def _cli_outputs(workdir, monkeypatch, capsys, command, text):
    """Exit code, stdout, stderr and every written file of one command in workdir."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    (workdir / "c.cfg").write_text(text)
    code = main([command, "c.cfg"] + (["--out", "out"] if command == "run" else []))
    captured = capsys.readouterr()
    files = {}
    if os.path.isdir("out"):
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name), "rb") as fh:
                files[name] = fh.read()
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("key", SCALAR_KEYS)
@pytest.mark.parametrize("case", sorted(NONE_CASES))
def test_none_runs_as_an_absent_key(tmp_path, monkeypatch, capsys, case, key):
    command, text = NONE_CASES[case]
    absent = "".join(line + "\n" for line in text.strip().splitlines()
                     if line.partition("=")[0].strip() != key)
    unset = absent + f"{key} = none\n"
    assert _cli_outputs(tmp_path / "none", monkeypatch, capsys, command, unset) == \
        _cli_outputs(tmp_path / "absent", monkeypatch, capsys, command, absent)


def test_a_float_key_written_as_an_integer_is_the_same_run(tmp_path, monkeypatch, capsys):
    # clip = 2 once got another run id, and so another directory, than clip = 2.0
    assert "clip = 2.0\n" in QUADRATIC_PRIVATE_RUN
    integer = QUADRATIC_PRIVATE_RUN.replace("clip = 2.0\n", "clip = 2\n")
    outputs = _cli_outputs(tmp_path / "float", monkeypatch, capsys, "run",
                           QUADRATIC_PRIVATE_RUN)
    assert _cli_outputs(tmp_path / "int", monkeypatch, capsys, "run", integer) == outputs
    assert b"clip = 2.0\n" in outputs[3]["config.resolved"]


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


def test_diverged_regularised_run_reads_inf_loss_without_a_warning(tmp_path):
    # lam > 0: |theta|^2 of the diverged theta overflows in the regulariser,
    # which gives the inf loss it should without an overflow warning; the
    # suite turns RuntimeWarning into an error
    demo = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "demos", "configs", "run_little_mda.cfg")
    text = open(demo).read().replace("steps = 300", "steps = 20")
    cfg = write(tmp_path, "diverge.cfg", text.replace("gamma = 0.5", "gamma = 1e300"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "metrics.csv"))
    assert len(rows) == 20 and float(rows[0]["loss"]) < math.inf
    assert all(float(row["loss"]) == math.inf for row in rows[1:])


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


@pytest.mark.parametrize("command, text", [
    ("run", QUADRATIC_RUN), ("sweep", LOGISTIC_SWEEP), ("diagnose", DIAGNOSE_MDA),
])
def test_a_non_integer_seed_variable_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                       command, text):
    cfg = write(tmp_path, "c.cfg", text)
    monkeypatch.setenv("BYZDP_SEED", "abc")
    out = ["--out", str(tmp_path / "out")] if command != "diagnose" else []
    assert main([command, cfg, *out]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: BYZDP_SEED must be an integer, got 'abc'\n"
    assert captured.out == ""
    assert not os.path.exists(tmp_path / "out")
    # run --seed overrides the variable, which is then never read
    if command == "run":
        assert main(["run", cfg, "--seed", "4", *out]) == 0
        assert read_rows(os.path.join(tmp_path, "out", "metrics.csv"))[0]["seed"] == "4"


@pytest.mark.parametrize("old, new, message", [
    ("model = logistic\n", "model = quadratic\n",
     "the blobs dataset is for classification models"),
    ("dataset = blobs\n", "dataset = targets\n",
     "the targets dataset is for the quadratic model"),
    ("dataset = blobs\n", "dataset = spiral\n", "unknown dataset kind 'spiral'"),
    ("model = logistic\n", "model = cubic\n", "unknown model kind 'cubic'"),
], ids=["blobs_for_quadratic", "targets_for_classifier", "unknown_dataset",
        "unknown_model"])
def test_dataset_and_model_kinds_must_fit(tmp_path, capsys, old, new, message):
    text = LOGISTIC_PRIVATE_RUN.replace(old, new)
    assert text != LOGISTIC_PRIVATE_RUN
    cfg = write(tmp_path, "c.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "out")


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
    # "none" parses to None, which is no rule; like an unset epsilon, its field is empty
    cfg = write(tmp_path, "none.cfg", text.replace("[median, bulyan]", "[median, none]"))
    out = str(tmp_path / "none")
    assert main(["sweep", cfg, "--out", out]) == 0
    rows = read_rows(os.path.join(out, "summary.csv"))
    assert [r["gar"] for r in rows if r["status"] == "failed"] == [""] * 5
    assert all(r["gar"] == "median" for r in rows if r["status"] == "ok")


def test_run_rejects_grid_keys(tmp_path, capsys):
    # a grid key once ran the base config under a run id that digested the grid
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN + "grid_seed = [1, 2]\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config key 'grid_seed' is a sweep axis" in err and "byzdp sweep" in err
    assert not os.path.exists(tmp_path / "out")


def test_diagnose_rejects_grid_keys(tmp_path, capsys):
    # diagnose once reported the base batch size of a grid and exited 0
    cfg = write(tmp_path, "sweep.cfg", _demo_config("sweep_batch_size.cfg"))
    assert main(["diagnose", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config key 'grid_batch_size' is a sweep axis" in captured.err
    assert "'byzdp diagnose'" in captured.err and "byzdp sweep" in captured.err


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_an_infinite_noise_scale_is_a_calibration_error(tmp_path, capsys, command):
    # s = inf once passed diagnose (exit 0) and failed run only in round 1
    text = (_demo_config("run_little_mda.cfg").replace("clip = 2.0", "clip = 1e308")
            .replace("batch_size = 512", "batch_size = 1"))
    cfg = write(tmp_path, "run.cfg", text)
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, cfg, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: noise scale s = inf is not positive and finite: "
                                   "the clip bound 1e+308 is out of range")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_in_silence(tmp_path, unbuffered):
    # a reader that closed its end of the pipe is not a runtime error (exit 3),
    # and nothing may print a BrokenPipeError at exit (exit 120)
    cfg = write(tmp_path, "diagnose.cfg", _demo_config("diagnose_mda.cfg"))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, byzdp.cli; sys.exit(byzdp.cli.main(sys.argv[1:]))", "diagnose", cfg],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr.decode()
    assert proc.stderr == b""


def test_sweep_needs_a_grid_key(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN)
    assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sweep needs at least one grid_* field\n"
    assert captured.out == ""
    assert not os.path.exists(tmp_path / "sw")


# zeta is left unset: a grid_attack cell whose kind differs from the config's
# attack takes that kind's default zeta, so it matches no single run that sets zeta
CELL_SWEEP = """
model = logistic
dim = 3
reg = 1e-3
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
momentum = 0.5
eval_every = 2
grid_batch_size = [8, 20]
grid_epsilon = [0.5, none]
grid_gar = [median, krum]
grid_f = [0, 1]
grid_seed = [1, 2]
"""


def _without_run_id(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",", 1)[1] for line in fh.read().splitlines()]


def test_a_sweep_cell_is_the_run_of_its_settings(tmp_path):
    # cells resolve through engine._resolve_cell and runs through
    # cli.build_run_config; a b or epsilon cell recalibrates the noise
    sweep_dir = str(tmp_path / "sw")
    assert main(["sweep", write(tmp_path, "sweep.cfg", CELL_SWEEP), "--out", sweep_dir]) == 0
    cells = read_rows(os.path.join(sweep_dir, "summary.csv"))
    assert len(cells) == 32 and all(cell["status"] == "ok" for cell in cells)
    base = "".join(line + "\n" for line in CELL_SWEEP.strip().splitlines()
                   if not line.startswith(("grid_", "batch_size", "epsilon", "gar", "f ")))
    for cell in cells:
        text = base + (f"batch_size = {cell['b']}\nepsilon = {cell['epsilon'] or 'none'}\n"
                       f"gar = {cell['gar']}\nf = {cell['f']}\nmaster_seed = {cell['seed']}\n")
        out = str(tmp_path / cell["cell_id"])
        assert main(["run", write(tmp_path, "cell.cfg", text), "--out", out]) == 0
        assert _without_run_id(os.path.join(out, "metrics.csv")) == _without_run_id(
            os.path.join(sweep_dir, f"metrics-{cell['cell_id']}.csv")), cell


def test_sweep_rejects_a_repeated_grid_value(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP.replace("[1, 2, 3, 4, 5]", "[1, 1]"))
    assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 2
    assert "sweep axis 'seed' names the value 1 twice" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


def test_sweep_jobs_do_not_change_results(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP)
    out1, out8 = str(tmp_path / "j1"), str(tmp_path / "j8")
    assert main(["sweep", cfg, "--jobs", "1", "--out", out1]) == 0
    assert main(["sweep", cfg, "--jobs", "8", "--out", out8]) == 0
    # the metrics files are written from results returned by the pool workers
    cells = sorted(f for f in os.listdir(out1) if f.startswith("metrics-"))
    assert len(cells) == 10
    assert sorted(f for f in os.listdir(out8) if f.startswith("metrics-")) == cells
    for name in ("summary.csv", "aggregate.csv", *cells):
        assert open(os.path.join(out1, name), "rb").read() == \
               open(os.path.join(out8, name), "rb").read()


def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP)
    assert main(["sweep", cfg, "--jobs", "0", "--out", str(tmp_path / "sw")]) == 2
    assert "jobs must be at least 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


def test_sweep_id_and_resolved_config_carry_the_seed(tmp_path, monkeypatch, capsys):
    # without --out, sweeps under two seeds must not share an output directory
    text = LOGISTIC_SWEEP.replace("master_seed = 1\n", "").replace(
        "grid_seed = [1, 2, 3, 4, 5]\n", "")
    cfg = write(tmp_path, "sweep.cfg", text)
    monkeypatch.chdir(tmp_path)
    out_dirs = []
    for seed in ("5", "6"):
        monkeypatch.setenv("BYZDP_SEED", seed)
        assert main(["sweep", cfg]) == 0
        out_dir = capsys.readouterr().out.splitlines()[0].rsplit(" -> ", 1)[1]
        assert f"master_seed = {seed}\n" in open(os.path.join(out_dir, "config.resolved")).read()
        assert {r["seed"] for r in read_rows(os.path.join(out_dir, "summary.csv"))} == {seed}
        out_dirs.append(out_dir)
    assert out_dirs[0] != out_dirs[1]


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


def test_diagnose_without_a_clip_bound(tmp_path, capsys):
    text = DIAGNOSE_MDA.replace("epsilon = 0.1", "epsilon = none").replace(
        "clip = 2.0", "clip = none")
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["diagnose", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "eta bounds: not applicable (no privacy budget)" in lines
    assert "sigma, theorem bound: not applicable (no clip bound)" in lines
    assert not any(line.startswith("sigma =") for line in lines)


def test_diagnose_says_why_mlp1_has_no_theorem_bound(tmp_path, capsys):
    text = LOGISTIC_PRIVATE_RUN.replace("model = logistic\n", "model = mlp1\nhidden = 4\n")
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["diagnose", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the bound needs a smoothness constant, which mlp1 does not have
    assert lines[-2].startswith("sigma = ")
    assert lines[-1] == "theorem bound: not applicable (no smoothness constant for mlp1)"


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
