"""byzdp benchmark: one named workload, run from the root of a source checkout.

    python3 bench/run.py --workload quad_avg --seed 0 --seconds 20 --trace 0

Every process this script starts imports byzdp from ``src/`` of the checkout
with BLAS pinned to one thread. With ``--trace 0`` it starts SETUP_PROBES
processes that only set the workload up, then one that also runs operations
back to back (a closed loop) for ``--seconds``; it prints the end-to-end
metrics. With ``--trace 1`` one process alternates untraced and traced
operations and it prints the per-layer metrics. The last line of standard
output is the result as JSON; the line before it records the environment
and the times before normalization.

Normalization: on a shared host the speed of a CPU drifts by up to 2x within
seconds, and wall and CPU time drift alike. While a child runs, this process
times a small fixed piece of numpy work every SAMPLE_EVERY_S seconds, and
every time interval the child reports is divided by that work's mean
slowdown over the interval against CAL_REF_S. Times are thus reported at the
reference speed; on an idle host they equal the raw times.

``--record-golden`` rewrites ``bench/golden.json`` from the default seed,
for a change that alters outputs on purpose and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# a miniature of one worker's per-round work: a batch drawn without
# replacement from 1,000 points, then sorted
CAL_DRAWS = 80
CAL_REF_S = 0.00088  # CPU time of one calibration on an idle 2-CPU Xeon, Python 3.11
SAMPLE_EVERY_S = 0.05


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class ChildFailed(RuntimeError):
    pass


class Session:
    """Starts child processes in a private work directory and collects their reports."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        self.started = time.monotonic()
        self.count = 0
        self.samples: list[tuple[float, float]] = []  # (monotonic time, CPU seconds)
        self._rng = np.random.default_rng(0)

    def calibrate(self) -> float:
        """CPU seconds the fixed calibration work takes now.

        CPU time rather than wall time, so that being preempted by the
        sweep's own pool workers does not read as a slow host.
        """
        start = time.thread_time()
        for _ in range(CAL_DRAWS):
            np.sort(self._rng.choice(1000, 25, replace=False))
        return time.thread_time() - start

    def child(self, mode: str, seconds: float = 0.0) -> dict:
        self.count += 1
        childdir = os.path.join(self.workdir, f"{mode}-{self.count}")
        os.makedirs(childdir)
        result = os.path.join(childdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
               "--workload", self.workload, "--mode", mode, "--seconds", repr(seconds),
               "--seed", str(self.seed), "--result", result]
        deadline = self.started + TIME_LIMIT_S
        start = time.monotonic()
        # the child's own stdout goes to stderr: the last stdout line is the result
        proc = subprocess.Popen(cmd, env=dict(os.environ, **PINNED_ENV), cwd=ROOT,
                                stdout=sys.stderr, start_new_session=True)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise ChildFailed(f"{mode} process ran past the time limit")
                self.samples.append((time.monotonic(), self.calibrate()))
                time.sleep(SAMPLE_EVERY_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            report = json.load(fh)
        report["start"] = start
        return report

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the calibration work over [start, end]."""
        inside = [cpu for stamp, cpu in self.samples if start <= stamp <= end]
        if not inside:
            # an interval shorter than the sampling period: take the nearest sample
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return statistics.fmean(inside) / CAL_REF_S

    def normalized(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.slowdown(start, end)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setups = [session.child("probe") for _ in range(SETUP_PROBES)]
    report = session.child("run", seconds)
    setups.append(report)
    ops = report["ops"]
    setup_s = [session.normalized(s["ready"] - s["start"], s["start"], s["ready"])
               for s in setups]
    run_s = [session.normalized(op["end"] - op["start"], op["start"], op["end"]) for op in ops]
    cpu_s = [session.normalized(op["cpu"], op["start"], op["end"]) for op in ops]
    report["detail"] = {
        "raw_setup_s": statistics.median(s["ready"] - s["start"] for s in setups),
        "raw_run_s": statistics.median(op["end"] - op["start"] for op in ops),
        "slowdown": statistics.median(session.slowdown(op["start"], op["end"]) for op in ops),
        "ops": len(ops),
    }
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "cpu_s": (statistics.median(cpu_s), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return report, metrics


def per_layer(session: Session, seconds: float) -> tuple[dict, dict]:
    """Medians over traced operations; times at reference speed like run_s."""
    report = session.child("trace", seconds)
    per_op, round_us, aggregate_us = [], [], []
    for op in report["traced_ops"]:
        slowdown = session.slowdown(op["start"], op["end"])
        per_op.append({key: value / slowdown if key.endswith("self_s") else value
                       for key, value in op["totals"].items()})
        round_us += [us / slowdown for us in op["round_us"]]
        aggregate_us += [us / slowdown for us in op["aggregate_us"]]
    layers = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    layers["engine.round_us.p50"] = percentile(round_us, 50)
    layers["engine.round_us.p99"] = percentile(round_us, 99)
    layers["aggregation.aggregate.us.p50"] = percentile(aggregate_us, 50)
    layers["aggregation.aggregate.us.p99"] = percentile(aggregate_us, 99)
    traced = sum(session.normalized(op["end"] - op["start"], op["start"], op["end"])
                 for op in report["traced_ops"])
    plain = sum(session.normalized(op["end"] - op["start"], op["start"], op["end"])
                for op in report["plain_ops"])
    layers["trace.overhead_frac"] = traced / plain - 1.0
    report["detail"] = {"traced_ops": len(per_op), "round_samples": len(round_us),
                     "aggregate_samples": len(aggregate_us)}
    units = {"self_s": "s", "p50": "us", "p99": "us", "bytes": "B",
             "overhead_frac": "1", "passes_per_eval_round": "1"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "count"))
               for name, value in layers.items()}
    return report, metrics


def record_golden() -> int:
    golden = {}
    for name in WORKLOADS:
        session = Session(name, DEFAULT_SEED)
        try:
            report = session.child("record")
        finally:
            session.close()
        if report["failed"]:
            print("\n".join(report["problems"]), file=sys.stderr)
            return 1
        golden[name] = report["digests"]
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "byzdp", "__init__.py")):
        print(f"no byzdp source tree under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    session = Session(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        report, metrics = measure(session, args.seconds)
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()

    for problem in report["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    correct = report["failed"] == 0 and not report["problems"]
    print(json.dumps({"environment": report["environment"], "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "detail": report["detail"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
