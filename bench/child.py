"""One benchmark process: set up a workload, then run operations in a closed loop.

``bench/run.py`` starts this script once per probe and once per measured run,
with BLAS pinned to one thread, and reads the JSON it writes to ``--result``.
Times are reported raw, as time.monotonic() stamps and CPU seconds; the
parent turns them into metrics.

modes:
  probe   set up and stop; reports when set-up ended
  run     set up, then run operations back to back for ``--seconds``
  trace   alternate an untraced and a traced operation on the same input
  record  run every default-seed input twice and report its digest
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time


def _parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace", "record"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", required=True)
    return parser.parse_args(argv)


def _environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _cpu_s() -> float:
    """User plus system time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Runner:
    """Runs one workload's operations and keeps what the checks need."""

    def __init__(self, byzdp, workload, workdir: str, golden: list | None):
        self.byzdp = byzdp
        self.workload = workload
        self.workdir = workdir
        self.golden = golden
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def op(self, k: int) -> dict:
        """One timed operation on input k, then its checks outside the timing."""
        workload = self.workload
        opdir = os.path.join(self.workdir, f"op{self.count}")
        self.count += 1
        os.makedirs(opdir)
        cpu0, start = _cpu_s(), time.monotonic()
        try:
            output = workload.op(self.byzdp, k, opdir)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        end = time.monotonic()
        cpu = _cpu_s() - cpu0
        outcome = None
        if error is None:
            try:
                outcome = workload.check(output, k, opdir)
            except (OSError, ValueError, IndexError) as exc:
                error = f"output check: {type(exc).__name__}: {exc}"
        shutil.rmtree(opdir)
        record = self._account(k, outcome, error)
        record.update(start=start, end=end, cpu=cpu)
        return record

    def _account(self, k, outcome, error) -> dict:
        attempts = self.workload.attempts
        self.attempted += attempts
        if outcome is None:
            self.failed += attempts
            self.problems.append(f"input {k}: {error}")
            return {"input": k, "digest": "", "output_bytes": 0}
        failed, problems = outcome.failed, [f"input {k}: {p}" for p in outcome.problems]
        first = self.first_digest.setdefault(k, outcome.digest)
        if outcome.digest != first:
            problems.append(f"input {k}: output differs from the first run of the same input")
        if self.golden is not None and outcome.digest != self.golden[k]:
            problems.append(f"input {k}: output differs from the reference digest")
        if problems and not failed:
            failed = 1
        self.failed += failed
        self.problems.extend(problems)
        return {"input": k, "digest": outcome.digest, "output_bytes": outcome.output_bytes}


def _run_loop(runner, n_inputs: int, seconds: float) -> list[dict]:
    # closed loop: each operation starts when the previous one has finished;
    # every input runs at least twice so repeated runs can be compared
    ops = []
    deadline = time.monotonic() + seconds
    while len(ops) < 2 * n_inputs or time.monotonic() < deadline:
        ops.append(runner.op(len(ops) % n_inputs))
    return ops


def _trace_loop(runner, byzdp, n_inputs: int, seconds: float, spool: str) -> dict:
    from spans import Tracer, layer_calls, op_layer_metrics

    plain_ops, traced_ops = [], []
    deadline = time.monotonic() + seconds
    while len(plain_ops) < n_inputs or time.monotonic() < deadline:
        k = len(plain_ops) % n_inputs
        plain_ops.append(runner.op(k))
        tracer = Tracer(spool)
        tracer.install(byzdp)
        try:
            traced = runner.op(k)
        finally:
            tracer.restore()
        tracer.collect()
        # the runner has already compared the traced digest with the untraced one
        calls = layer_calls(tracer.spans, tracer.counts)
        silent = [layer for layer in runner.workload.exercises if calls[layer] == 0]
        if silent:
            raise RuntimeError(f"{runner.workload.name}: traced layers recorded no call: "
                               f"{silent}; a wrapper was bypassed or a binding moved")
        totals, samples = op_layer_metrics(tracer.spans, tracer.counts)
        totals["cli.output.bytes"] = traced["output_bytes"]
        traced.update(totals=totals, **samples)
        traced_ops.append(traced)
    return {"plain_ops": plain_ops, "traced_ops": traced_ops}


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    import byzdp
    import byzdp.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(byzdp.__file__))) != os.path.abspath(src):
        print(f"byzdp was imported from {byzdp.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, SWEEP_JOBS, WORKLOADS

    workdir = os.path.dirname(args.result)
    workload = WORKLOADS[args.workload](byzdp, args.seed, workdir)
    report = {"ready": time.monotonic()}
    if args.mode != "probe":
        golden = None
        if args.mode != "record" and args.seed == DEFAULT_SEED:
            here = os.path.dirname(os.path.abspath(__file__))
            with open(os.path.join(here, "golden.json"), encoding="utf-8") as fh:
                golden = json.load(fh)[args.workload]
        runner = Runner(byzdp, workload, workdir, golden)
        n_inputs = len(workload.inputs)
        if args.mode == "trace":
            spool = os.path.join(workdir, "spool")
            os.makedirs(spool)
            report.update(_trace_loop(runner, byzdp, n_inputs, args.seconds, spool))
        else:
            ops = _run_loop(runner, n_inputs, args.seconds)
            report["ops"] = ops
            report["digests"] = [runner.first_digest.get(k, "") for k in range(n_inputs)]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report.update({
            "attempted": runner.attempted, "failed": runner.failed,
            "problems": runner.problems,
            "peak_rss_mb": max(own, kids) / 1024.0,
            "environment": dict(_environment(np, scipy), sweep_jobs=SWEEP_JOBS),
        })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
