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

from byzdp import logistic_model, mlp1_model, quadratic_model
from byzdp.cli import (KNOWN_KEYS, _atomic_write, build_dataset, build_model,
                       build_run_config, main, parse_config)
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


def _without_keys(text, keys):
    return "".join(line + "\n" for line in text.strip().splitlines()
                   if line.partition("=")[0].strip() not in keys)


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
    # an empty value is no value of any type; [median, ] once ran a phantom '' cell
    "gar = ", "grid_gar = [median, ]",
])
def test_ill_typed_value_is_a_config_error(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    lines = [kept for kept in QUADRATIC_RUN.strip().splitlines()
             if not kept.startswith(key + " ")] + [line]
    path = write(tmp_path, "c.cfg", "\n".join(lines) + "\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{len(lines)}: config key '{key}'" in err


def test_a_line_without_an_equals_sign_is_a_config_error(tmp_path, capsys):
    path = write(tmp_path, "c.cfg", QUADRATIC_RUN.strip() + "\nsteps 20\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    lineno = len(QUADRATIC_RUN.strip().splitlines()) + 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: expected 'key = value'\n"
    assert not os.path.exists(tmp_path / "out")


UNREADABLE = {
    "directory": "[Errno 21] Is a directory: '.'",
    "not_utf8": "bad: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
    "missing": "[Errno 2] No such file or directory: 'nowhere'",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("role", ["config", "dataset"])
def test_an_unreadable_input_file_is_a_config_error(tmp_path, monkeypatch, capsys, role, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"model = quad\xffratic\n")
    path = {"directory": ".", "not_utf8": "bad", "missing": "nowhere"}[case]
    if role == "dataset":
        text = "model = logistic\ndataset = csv\ndataset_path = {}\n"
        path = write(tmp_path, "c.cfg", text.format(path))
    assert main(["run", path, "--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: {UNREADABLE[case]}\n"
    assert not os.path.exists("out")


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
    absent = _without_keys(text, (key,))
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


DIVERGING_AVERAGE = """
model = quadratic
dim = 3
dataset = targets
dataset_size = 40
batch_size = 40
schedule = constant
gamma = 3.0
steps = 1200
gar = average
n = 5
f = 0
"""


# numpy warns as the submissions overflow; the suite turns that warning into
# an error, which would stop the run before the aggregator does
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_run_stopped_by_non_finite_submissions_is_a_runtime_error(tmp_path, capsys):
    # theta <- 3 xbar - 2 theta doubles each round; it once exited 2, as a config error
    out = str(tmp_path / "out")
    assert main(["run", write(tmp_path, "run.cfg", DIVERGING_AVERAGE), "--out", out]) == 3
    message = "5 submissions are non-finite, more than f=0"
    assert capsys.readouterr().err == f"runtime error: {message}\n"
    # a sweep marks the cell failed
    cfg = write(tmp_path, "sweep.cfg", DIVERGING_AVERAGE + "grid_seed = [1]\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 3
    [cell] = read_rows(str(tmp_path / "sw" / "summary.csv"))
    assert (cell["status"], cell["reason"]) == ("failed", message.replace(",", ";"))


def test_an_out_path_that_names_a_file_is_a_runtime_error(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", QUADRATIC_RUN)
    taken = write(tmp_path, "taken", "kept\n")
    assert main(["run", cfg, "--out", taken]) == 3
    assert capsys.readouterr().err == f"runtime error: [Errno 17] File exists: '{taken}'\n"
    assert open(taken).read() == "kept\n"


def test_a_failed_atomic_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    target = str(tmp_path / "metrics.csv")
    with pytest.raises(OSError, match="replace refused"):
        _atomic_write(target, "a,b\n")
    assert os.listdir(tmp_path) == []


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
    # a key of another dataset kind would change nothing but the run id
    ("half_sep = 0.8\n", "spread = 0.8\n", "the blobs dataset takes no spread"),
    ("model = logistic\ndim = 3\nreg = 1e-3\ndataset = blobs\n",
     "model = quadratic\ndim = 3\nreg = 1e-3\ndataset = targets\n",
     "the targets dataset takes no half_sep"),
    ("dataset = blobs\n", "dataset = csv\ndataset_path = x.csv\n",
     "the csv dataset takes no dataset_seed"),
    ("dataset = blobs\ndataset_seed = 4\n", "dataset = csv\ndataset_path = x.csv\n",
     "the csv dataset takes no dataset_size"),
], ids=["blobs_for_quadratic", "targets_for_classifier", "unknown_dataset",
        "unknown_model", "spread_for_blobs", "half_sep_for_targets",
        "dataset_seed_for_csv", "dataset_size_for_csv"])
def test_dataset_and_model_kinds_must_fit(tmp_path, capsys, old, new, message):
    text = LOGISTIC_PRIVATE_RUN.replace(old, new)
    assert text != LOGISTIC_PRIVATE_RUN
    cfg = write(tmp_path, "c.cfg", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("kind, text", [
    ("logistic", LOGISTIC_PRIVATE_RUN), ("quadratic", QUADRATIC_PRIVATE_RUN),
    ("logistic", _demo_config("run_little_mda.cfg")),
], ids=["logistic", "quadratic", "run_little_mda"])
def test_hidden_is_refused_unless_the_model_is_mlp1(tmp_path, capsys, kind, text):
    # hidden would change nothing but the run id of such a run
    cfg = write(tmp_path, "c.cfg", text + "hidden = 5\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: the {kind} model takes no hidden\n"
    assert not os.path.exists(tmp_path / "out")


def test_mlp1_needs_hidden(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", LOGISTIC_PRIVATE_RUN.replace("model = logistic\n",
                                                                "model = mlp1\n"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: missing required config field 'hidden'\n"


# Each case drops keys from a base config, adds lines and names the id it
# expects, or the error that refuses it before any directory is made. A key
# that the command does not read leaves the id alone, a key read only for
# summary.json moves the id with it, and a key the run would ignore is
# refused. run_little_mda.cfg cut to 5 steps runs as 9db2877fc861, and as
# 8c0c03b787a8 without its privacy budget.
ONE_ID_BASES = {
    "run": _demo_config("run_little_mda.cfg").replace("steps = 300\n", "steps = 5\n"),
    "sweep": _demo_config("sweep_batch_size.cfg").replace("steps = 300\n", "steps = 5\n")
    .replace("[16, 128, 512]", "[16, 512]").replace("[1, 2, 3, 4, 5]", "[1, 2]"),
}
NO_PRIVACY = ("epsilon", "delta")
NO_ZETA = "error: the none attack takes no zeta\n"
RUN_ID_WITNESSES = {
    "plain": ("run", (), "", "9db2877fc861"),
    "out": ("run", (), "out = {tmp}/a\n", "9db2877fc861"),
    "another_out": ("run", (), "out = {tmp}/b\n", "9db2877fc861"),
    "alpha": ("run", (), "alpha = 0.3\n", "9db2877fc861"),
    "mu": ("run", (), "mu = 2.0\n", "9db2877fc861"),
    "spread": ("run", (), "spread = 7.0\n", "error: the blobs dataset takes no spread\n"),
    "dataset_path": ("run", (), "dataset_path = nowhere.csv\n",
                     "error: the blobs dataset takes no dataset_path\n"),
    "delta_without_epsilon": ("run", NO_PRIVACY, "delta = 1e-5\n", "8c0c03b787a8"),
    "another_delta_without_epsilon": ("run", NO_PRIVACY, "delta = 1e-3\n", "8c0c03b787a8"),
    "upsilon_without_privacy": ("run", NO_PRIVACY, "upsilon = 0.5\n", "8c0c03b787a8"),
    "upsilon_with_privacy": ("run", (), "upsilon = 0.5\n", "b3ad6380d9de"),
    "sweep_upsilon": ("sweep", (), "upsilon = 0.5\n", "5219dbaf3c10"),
    # summary.json's report fails after the run, so it is computed before it
    "negative_upsilon": ("run", (), "upsilon = -1.0\n",
                         "error: need kappa >= 0, C > 0, d >= 1, upsilon >= 0\n"),
    # the run would ignore zeta, and so would every grid_attack cell of a sweep
    "zeta_without_attack": ("run", ("attack", "f"), "f = 0\n", NO_ZETA),
    "zeta_under_attack_none": ("run", ("attack", "f"), "f = 0\nattack = none\n", NO_ZETA),
    "sweep_zeta_without_attack": ("sweep", ("attack",),
                                  "zeta = 3.0\ngrid_attack = [little, empire]\n", NO_ZETA),
}


def _command_id(command, cfg, out, capsys):
    """The id that ``byzdp command cfg --out out`` prints, and every file it wrote
    but config.resolved, each csv without its first (id) column and summary.json
    without its run_id."""
    assert main([command, cfg, "--out", out]) == 0
    ident = capsys.readouterr().out.split()[1].rstrip(":")
    files = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            files[name] = _without_run_id(path)
        elif name == "summary.json":
            files[name] = dict(json.load(open(path)), run_id=None)
    return ident, files


@pytest.mark.parametrize("case", list(RUN_ID_WITNESSES))
def test_one_run_has_one_id(tmp_path, capsys, case):
    command, drop, extra, want = RUN_ID_WITNESSES[case]
    plain = _without_keys(ONE_ID_BASES[command], drop)
    extra = extra.format(tmp=tmp_path)
    cfg = write(tmp_path, "c.cfg", plain + extra)
    out = str(tmp_path / "out")
    if want.startswith("error: "):
        assert main([command, cfg, "--out", out]) == 2
        assert capsys.readouterr().err == want
        assert not os.path.exists(out)
        return
    ident, files = _command_id(command, cfg, out, capsys)
    assert ident == want
    if command == "run":
        rows = read_rows(os.path.join(out, "metrics.csv"))
        assert len(rows) == 5 and {row["run_id"] for row in rows} == {want}
    # config.resolved still lists every key, whether the id digests it or not
    assert parse_config(os.path.join(out, "config.resolved")) == parse_config(cfg)
    if extra:
        reference = str(tmp_path / "plain")
        plain_id, plain_files = _command_id(command, write(tmp_path, "plain.cfg", plain),
                                            reference, capsys)
        # the extra key changes no metric; it moves the id exactly when it
        # changes summary.json
        assert files.get("metrics.csv") == plain_files.get("metrics.csv")
        assert (files == plain_files) == (ident == plain_id)


def _bench_config(name):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                    "bench"))
    try:
        from workloads import DEFAULT_SEED, WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS[name].config_text(DEFAULT_SEED)


@pytest.mark.parametrize("text", [
    *(_demo_config(name) for name in ("diagnose_mda.cfg", "run_little_mda.cfg",
                                      "run_quadratic_baseline.cfg", "sweep_batch_size.cfg")),
    *(_bench_config(name) for name in ("sweep_mlp1", "diagnose_logistic")),
], ids=["diagnose_mda", "run_little_mda", "run_quadratic_baseline", "sweep_batch_size",
        "bench_sweep_mlp1", "bench_diagnose_logistic"])
def test_build_model_is_the_factory_model(tmp_path, text):
    cfg = parse_config(write(tmp_path, "c.cfg", text))
    kind, lam = cfg["model"], cfg.get("reg", 0.0)
    dataset = build_dataset(cfg, classification=kind != "quadratic")
    got = build_model(cfg, dataset)
    want = {"quadratic": lambda: quadratic_model(np.eye(cfg["dim"]), lam),
            "logistic": lambda: logistic_model(dataset.n_features, lam),
            "mlp1": lambda: mlp1_model(dataset.n_features, cfg["hidden"], lam)}[kind]()
    for name in ("kind", "lam", "n_features", "hidden", "dim"):
        assert getattr(got, name) == getattr(want, name), name
    assert (got.hessian is None) == (want.hessian is None)
    assert want.hessian is None or np.array_equal(got.hessian, want.hessian)


@pytest.mark.parametrize("kind, dim", [("quadratic", 4), ("logistic", 999), ("mlp1", 7)])
def test_quadratic_dim_must_fit_a_csv_dataset(tmp_path, capsys, kind, dim):
    # a classifier's csv carries a label column after its 3 features
    rng = np.random.default_rng(0)
    points = rng.normal(0.0, 1.0, (12, 3 if kind == "quadratic" else 4))
    if kind != "quadratic":
        points[:, -1] = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    data = write(tmp_path, "points.csv", "\n".join(
        ",".join(str(v) for v in row) for row in points) + "\n")
    hidden = "hidden = 4\n" if kind == "mlp1" else ""
    cfg = write(tmp_path, "csv.cfg", f"""
model = {kind}
{hidden}dim = {dim}
dataset = csv
dataset_path = {data}
n = 3
f = 0
gar = average
batch_size = 12
steps = 2
""")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: dataset has 3 features, "
                                       f"the {kind} model takes {dim}\n")


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
    # "none" is no rule: it once ran 5 failed cells whose gar field was empty
    cfg = write(tmp_path, "none.cfg", text.replace("[median, bulyan]", "[median, none]"))
    out = str(tmp_path / "none")
    assert main(["sweep", cfg, "--out", out]) == 2
    assert "config key 'grid_gar' cannot list none" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_none_in_grid_attack_is_the_cell_without_an_attack(tmp_path, capsys):
    # it once failed with "unknown attack kind 'None'"
    text = LOGISTIC_SWEEP.replace("grid_batch_size = [8, 20]", "grid_attack = [none, little]")
    out = str(tmp_path / "none")
    assert main(["sweep", write(tmp_path, "none.cfg", text), "--out", out]) == 0
    cells = read_rows(os.path.join(out, "summary.csv"))
    assert [c["attack"] for c in cells] == ["none"] * 5 + ["little"] * 5
    assert all(c["status"] == "ok" for c in cells)
    # the same cells as a sweep whose config sets no attack
    unset = _without_keys(text, ("attack", "grid_attack"))
    out_unset = str(tmp_path / "unset")
    assert main(["sweep", write(tmp_path, "unset.cfg", unset), "--out", out_unset]) == 0
    for cell in read_rows(os.path.join(out_unset, "summary.csv")):
        assert cell in cells
        name = f"metrics-{cell['cell_id']}.csv"
        assert (open(os.path.join(out_unset, name)).read()
                == open(os.path.join(out, name)).read())


@pytest.mark.parametrize("key, values", [("grid_gar", "[median, none]"),
                                         ("grid_batch_size", "[none, 8]"),
                                         ("grid_f", "[none, 0]"),
                                         ("grid_seed", "[none, 2]")])
def test_none_in_a_grid_that_needs_a_value_is_a_config_error(tmp_path, capsys, key, values):
    # each once ran a failed cell; the missing csv file shows that the grid
    # is refused before the dataset is built
    text = _without_keys(LOGISTIC_SWEEP, ("grid_batch_size", "grid_seed", "dataset_seed",
                                          "dataset_size"))
    text = text.replace("dataset = blobs", "dataset = csv\ndataset_path = nowhere.csv")
    cfg = write(tmp_path, "sweep.cfg", text + f"{key} = {values}\n")
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: config key '{key}' cannot list none: "
                                       f"every cell needs a value\n")
    assert not os.path.exists(out)


def test_a_sweep_in_which_every_cell_fails_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", LOGISTIC_SWEEP.replace(
        "grid_batch_size = [8, 20]", "grid_gar = [bulyan]"))
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--out", out]) == 3
    assert "0 cells ok, 5 failed" in capsys.readouterr().out
    rows = read_rows(os.path.join(out, "summary.csv"))
    assert len(rows) == 5 and {r["status"] for r in rows} == {"failed"}


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


def test_diagnose_sigma_does_not_overflow_with_a_huge_clip_bound(tmp_path, capsys):
    # C^2 overflows at C = 1e308, sigma itself does not; the bound squares sigma
    text = (_demo_config("run_little_mda.cfg").replace("clip = 2.0", "clip = 1e308")
            .replace("batch_size = 512", "batch_size = 1")
            .replace("epsilon = 0.2", "epsilon = none"))
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["diagnose", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sigma = 1e+308" in lines
    assert lines[-1].startswith("theorem bound (T=300, alpha=0.0, mu=1.0) = inf")
