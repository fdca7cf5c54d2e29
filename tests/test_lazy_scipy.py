"""scipy.special is loaded only by the classifier models that need its sigmoid,
and the process pool only by a sweep that starts one.

Each check runs in a fresh interpreter, since this test process may have
loaded scipy or the pool already. A scipy function added at module level
anywhere in byzdp fails the first two tests, and a module-level import of
``concurrent.futures`` or ``multiprocessing`` fails the first and the third.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from byzdp import (ClipParams, GarSpec, PrivacyParams, RunConfig, gaussian_blobs,
                   logistic_model, mlp1_model, run)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

QUADRATIC_CFG = """\
model = quadratic
dim = 4
dataset = targets
dataset_size = 30
n = 5
f = 1
gar = median
epsilon = 0.5
clip = 2
batch_size = 10
steps = 6
"""

LOGISTIC_CFG = """\
model = logistic
dim = 3
dataset = blobs
dataset_size = 40
n = 5
f = 1
gar = median
epsilon = 0.5
clip = 2
batch_size = 10
steps = 4
"""

POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def _python(code: str, cwd) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_import_help_and_quadratic_runs_leave_scipy_special_unloaded(tmp_path):
    (tmp_path / "quad.cfg").write_text(QUADRATIC_CFG)
    _python(f"""
        import contextlib, io, sys
        import numpy as np
        import byzdp, byzdp.cli
        assert "scipy.special" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                byzdp.cli.main(["--help"])
            except SystemExit:
                pass
        data = byzdp.regression_targets(1, 30, 4)
        config = byzdp.RunConfig(model=byzdp.quadratic_model(np.eye(4)), dataset=data,
                                 gar=byzdp.GarSpec("average", 5, 0), b=10, steps=5)
        byzdp.run(config)
        assert "scipy.special" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert byzdp.cli.main(["run", "quad.cfg", "--out", "out"]) == 0
            assert byzdp.cli.main(["diagnose", "quad.cfg"]) == 0
        assert "scipy.special" not in sys.modules
        assert not any(name in sys.modules for name in {POOL_MODULES!r})
    """, tmp_path)


@pytest.mark.parametrize("build", ["logistic_model(3)", "mlp1_model(3, 2)"])
def test_building_a_classifier_model_loads_scipy_special(build, tmp_path):
    _python(f"""
        import sys
        from byzdp import logistic_model, mlp1_model
        assert "scipy.special" not in sys.modules
        {build}
        assert "scipy.special" in sys.modules
    """, tmp_path)


def test_only_a_sweep_with_jobs_loads_the_process_pool(tmp_path):
    (tmp_path / "logistic.cfg").write_text(LOGISTIC_CFG)
    (tmp_path / "sweep.cfg").write_text(LOGISTIC_CFG + "grid_seed = [1, 2]\n")
    _python(f"""
        import contextlib, io, sys
        import byzdp.cli
        pool = {POOL_MODULES!r}
        with contextlib.redirect_stdout(io.StringIO()):
            assert byzdp.cli.main(["diagnose", "logistic.cfg"]) == 0
            assert byzdp.cli.main(["sweep", "sweep.cfg", "--jobs", "1", "--out", "one"]) == 0
        assert not any(name in sys.modules for name in pool)
        with contextlib.redirect_stdout(io.StringIO()):
            assert byzdp.cli.main(["sweep", "sweep.cfg", "--jobs", "2", "--out", "two"]) == 0
        assert all(name in sys.modules for name in pool)
    """, tmp_path)


@pytest.mark.parametrize("model", [logistic_model(4, lam=1e-3), mlp1_model(4, 3, lam=1e-3)],
                         ids=["logistic", "mlp1"])
def test_an_unpickled_classifier_config_runs_in_a_fresh_interpreter(model, tmp_path):
    # what a spawn or forkserver pool does: the Model never runs __post_init__ there
    data = gaussian_blobs(5, 60, 4)
    config = RunConfig(model=model, dataset=data, gar=GarSpec("median", 5, 1), b=10, steps=8,
                       privacy=PrivacyParams(0.5, 1e-5, 1.5, 10, data.m),
                       clip=ClipParams(1.5), master_seed=4)
    (tmp_path / "config.pkl").write_bytes(pickle.dumps(config))
    theta = _python("""
        import pickle, sys
        with open("config.pkl", "rb") as fh:
            config = pickle.load(fh)
        assert "scipy.special" not in sys.modules
        from byzdp import run
        sys.stdout.buffer.write(run(config).theta.astype("<f8").tobytes())
    """, tmp_path)
    assert theta == run(config).theta.astype("<f8").tobytes()
    assert np.frombuffer(theta, "<f8").shape == (model.dim,)
