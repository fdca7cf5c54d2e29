"""The four benchmark workloads: inputs built from a seed, one operation, its checks.

Each workload turns ``--seed`` into inputs during set-up and then runs one
operation per call of ``op``. Seed 0 (DEFAULT_SEED) reproduces the
configurations of the acceptance suite and ``demos/configs``; other seeds move
the dataset and master seeds, never the sizes, so every seed costs the same
work. ``diagnose_logistic`` keeps the demo dataset on every seed because the
number of descent steps in ``estimate_min_loss`` depends on the data.

``exercises`` lists the traced layers an operation must call at least once;
the traced run fails when one of them records no call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import astuple, dataclass, field

DEFAULT_SEED = 0
SWEEP_JOBS = 2

ROUND_LAYERS = ("engine.run", "engine.stream_rekeys", "model.sample_batch",
                "model.batch_grads", "model.clip", "model.eval",
                "privacy.gaussian_noise", "aggregation.aggregate")


@dataclass
class Outcome:
    """What one operation produced: an output digest and what went wrong.

    ``failed`` counts failed operations: runs, sweep cells or diagnose calls.
    """

    digest: str
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    output_bytes: int = 0


# ------------------------------------------------------------ library runs

def _run_outcome(result, config) -> Outcome:
    """Digest of the final theta and every MetricsRecord, bit for bit."""
    import numpy as np
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.theta, dtype="<f8").tobytes())
    digest.update(repr([astuple(rec) for rec in result.records]).encode())
    problems = []
    if not np.all(np.isfinite(result.theta)):
        problems.append("final theta is not finite")
    if any(not (math.isfinite(rec.loss) and math.isfinite(rec.grad_norm))
           for rec in result.records):
        problems.append("a metrics record is not finite")
    if len(result.records) != config.steps // config.eval_every:
        problems.append(f"{len(result.records)} metrics records for {config.steps} steps")
    return Outcome(digest.hexdigest(), problems, failed=int(bool(problems)))


class LibraryWorkload:
    """A list of RunConfigs, one ``byzdp.run`` call per operation.

    ``op`` is the timed call; ``check`` digests and checks what it returned.
    """

    attempts = 1

    def __init__(self, byzdp, seed: int, workdir: str):
        self.inputs = self.configs(byzdp, seed)

    def op(self, byzdp, k: int, opdir: str):
        return byzdp.run(self.inputs[k])

    def check(self, output, k: int, opdir: str) -> Outcome:
        return _run_outcome(output, self.inputs[k])


class QuadAvg(LibraryWorkload):
    """Acceptance criterion 6: quadratic, H = I, plain averaging, no forgers."""

    name = "quad_avg"
    exercises = ROUND_LAYERS

    @staticmethod
    def configs(byzdp, seed):
        import numpy as np
        data = byzdp.regression_targets(123 + seed, 1000, 10, spread=0.3)
        model = byzdp.quadratic_model(np.eye(10))
        privacy = byzdp.PrivacyParams(0.1, 1e-5, 2.0, 25, data.m)
        return [byzdp.RunConfig(model=model, dataset=data, gar=byzdp.GarSpec("average", 15, 0),
                                b=25, steps=1000, privacy=privacy, schedule="inv_sqrt",
                                master_seed=3 * seed + k, eval_every=1)
                for k in (1, 2, 3)]


class LogisticMda(LibraryWorkload):
    """The attacked arm of criterion 7 at b = 512 (demos/configs/run_little_mda.cfg)."""

    name = "logistic_mda"
    exercises = ROUND_LAYERS + ("attack.forge",)

    @staticmethod
    def configs(byzdp, seed):
        data = byzdp.gaussian_blobs(2 + seed, 4000, 20, half_sep=0.16, axis_std=0.088,
                                    cross_std=0.16)
        model = byzdp.logistic_model(20, lam=1e-4)
        privacy = byzdp.PrivacyParams(0.2, 1e-5, 2.0, 512, data.m)
        return [byzdp.RunConfig(model=model, dataset=data, gar=byzdp.GarSpec("mda", 15, 3),
                                attack=byzdp.AttackSpec("little", 1.0), b=512, steps=300,
                                privacy=privacy, schedule="constant", gamma=0.5,
                                momentum=0.99, master_seed=2 * seed + k, eval_every=1)
                for k in (1, 2)]


# ---------------------------------------------------------------- CLI runs

_BLOBS_CFG = """\
dataset = blobs
dataset_size = 4000
half_sep = 0.16
axis_std = 0.088
cross_std = 0.16
reg = 1e-4
epsilon = 0.2
delta = 1e-5
clip = 2.0
schedule = constant
gamma = 0.5
momentum = 0.99
attack = little
"""


def _call_cli(byzdp, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = byzdp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """One generated config file, one ``byzdp.cli.main`` call per operation.

    ``op`` is the timed call; ``check`` digests and checks its output.

    Set-up writes the file and builds its RunConfig once through the CLI's
    own parser, which generates the dataset and calibrates the noise.
    """

    def __init__(self, byzdp, seed: int, workdir: str):
        path = os.path.join(workdir, f"{self.name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(seed))
        byzdp.cli.build_run_config(byzdp.cli.parse_config(path))
        self.inputs = [path]


class SweepMlp1(CliWorkload):
    """``byzdp sweep --jobs 2``: mlp1, four robust rules times two attacks."""

    name = "sweep_mlp1"
    exercises = ROUND_LAYERS + ("attack.forge", "engine.sweep", "cli.setup", "cli.output")
    attempts = 8  # sweep cells

    @staticmethod
    def config_text(seed):
        return _BLOBS_CFG + f"""\
model = mlp1
dim = 20
hidden = 32
dataset_seed = {2 + seed}
n = 19
f = 4
gar = mda
batch_size = 128
steps = 30
master_seed = {1 + seed}
eval_every = 10
grid_gar = [krum, median, mda, bulyan]
grid_attack = [little, empire]
"""

    def op(self, byzdp, k: int, opdir: str):
        return _call_cli(byzdp, ["sweep", self.inputs[k], "--jobs", str(SWEEP_JOBS),
                                 "--out", opdir])

    def check(self, output, k: int, opdir: str) -> Outcome:
        code, _, err = output
        if code != 0:
            return Outcome("", [f"sweep exited {code}: {err.strip()}"], failed=self.attempts)
        names = sorted(os.listdir(opdir))
        digest = hashlib.sha256()
        size = 0
        for entry in names:
            with open(os.path.join(opdir, entry), "rb") as fh:
                data = fh.read()
            size += len(data)
            if entry in ("summary.csv", "aggregate.csv") or entry.startswith("metrics-"):
                digest.update(entry.encode() + b"\0" + data)
        with open(os.path.join(opdir, "summary.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        not_ok = sum(1 for row in rows if row[1] != "ok")
        problems = []
        if len(rows) != self.attempts or not_ok:
            problems.append(f"{not_ok} of {len(rows)} sweep cells not ok")
        # max_accuracy, min_sq_grad_norm and final_loss of every ok cell
        if any(not math.isfinite(float(value))
               for row in rows if row[1] == "ok" for value in row[8:11]):
            problems.append("a sweep summary value is not finite")
        if sum(entry.startswith("metrics-") for entry in names) != self.attempts:
            problems.append("a metrics-*.csv file is missing")
        return Outcome(digest.hexdigest(), problems,
                       failed=max(not_ok, int(bool(problems))), output_bytes=size)


class DiagnoseLogistic(CliWorkload):
    """``byzdp diagnose`` on the run_little_mda.cfg configuration."""

    name = "diagnose_logistic"
    attempts = 1
    exercises = ("cli.setup", "model.estimate_min_loss", "model.full_grad",
                 "model.population_variance", "diagnostics", "model.eval")
    expected = ("kappa(", "s", "epsilon_inner", "upsilon", "eta_sq_necessary",
                "eta_sq_sufficient", "sigma", "theorem bound")

    @staticmethod
    def config_text(seed):
        return _BLOBS_CFG + f"""\
model = logistic
dim = 20
dataset_seed = 2
n = 15
f = 3
gar = mda
zeta = 1.0
batch_size = 512
steps = 300
master_seed = {1 + seed}
eval_every = 1
"""

    def op(self, byzdp, k: int, opdir: str):
        return _call_cli(byzdp, ["diagnose", self.inputs[k]])

    def check(self, output, k: int, opdir: str) -> Outcome:
        code, out, err = output
        if code != 0:
            return Outcome("", [f"diagnose exited {code}: {err.strip()}"], failed=1)
        problems = []
        values = {}
        for line in out.splitlines():
            key, _, rest = line.partition(" = ")
            if rest:
                values[key] = rest.split(" ")[0]
        for key in self.expected:
            found = [v for name, v in values.items() if name.startswith(key)]
            if not found or not all(math.isfinite(float(v)) for v in found):
                problems.append(f"diagnose output lacks a finite '{key}' value")
        return Outcome(hashlib.sha256(out.encode()).hexdigest(), problems,
                       failed=int(bool(problems)), output_bytes=len(out.encode()))


WORKLOADS = {cls.name: cls for cls in (QuadAvg, LogisticMda, SweepMlp1, DiagnoseLogistic)}
