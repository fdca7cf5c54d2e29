"""Span tracer that wraps byzdp's module bindings from outside the package.

The traced run replaces the names that ``byzdp.engine``, ``byzdp.cli`` and
``byzdp.model`` look up at call time (their ``from .x import f`` bindings) with
wrappers that record a span per call: name, start, end, and the span that was
open when the call began. Nothing under ``src/`` changes. ``restore`` puts
every original object back and checks that it did.

Pool workers forked by ``byzdp sweep --jobs 2`` inherit the installed
wrappers. A worker keeps the span stack it was forked with, so its top-level
spans name the parent's ``engine.sweep`` span as their cause, and it writes
its finished spans to the spool directory whenever its stack unwinds to the
inherited depth. ``collect`` merges those files into the parent's list.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

AGG_RULES = ("average", "krum", "mda", "median", "bulyan")

COUNTED = ("engine.stream_rekeys",)


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _bindings(byzdp):
    """(owner, attribute, span name, attrs(args, result) or None) per wrapped name.

    Names in COUNTED are counted without a span, so their cost stays in the
    enclosing span's self time.
    """
    engine, cli, model = byzdp.engine, byzdp.cli, byzdp.model
    run_attrs = (lambda args, result: {"steps": args[0].steps,
                                       "records": len(result.records) if result else 0})
    table = [
        (byzdp, "run", "engine.run", run_attrs),
        (engine, "run", "engine.run", run_attrs),
        (engine, "sample_batch", "model.sample_batch", None),
        (engine, "batch_grads", "model.batch_grads",
         lambda args, result: {"rows": _rows(args[2])}),
        (engine, "clip", "model.clip", lambda args, result: {"rows": _rows(args[0])}),
        (engine, "full_loss", "model.eval", None),
        (engine, "full_grad", "model.eval", None),
        (engine, "accuracy", "model.eval", None),
        (engine, "gaussian_noise", "privacy.gaussian_noise", None),
        (engine, "forge", "attack.forge", None),
        (engine, "aggregate", "aggregation.aggregate",
         lambda args, result: {"rule": args[0].rule}),
        (engine, "worker_stream", "engine.stream_rekeys", None),
        (cli, "run", "engine.run", run_attrs),
        (cli, "sweep", "engine.sweep", None),
        (cli, "parse_config", "cli.setup", None),
        (cli, "build_run_config", "cli.setup", None),
        (cli, "metrics_csv_text", "cli.output", None),
        (cli, "summary_csv_text", "cli.output", None),
        (cli, "aggregate_csv_text", "cli.output", None),
        (cli, "resolved_config_text", "cli.output", None),
        (cli, "_atomic_write", "cli.output", None),
        (cli, "full_loss", "model.eval", None),
        (cli, "estimate_min_loss", "model.estimate_min_loss", None),
        (cli, "population_variance", "model.population_variance", None),
        (cli, "convergence_bound", "diagnostics", None),
        (cli, "eta_bounds", "diagnostics", None),
        (cli, "find_vn_violation", "diagnostics", None),
        (cli, "sigma_total", "diagnostics", None),
        # the descent steps inside estimate_min_loss look full_grad up here
        (model, "full_grad", "model.full_grad", None),
    ]
    # the engine rekeys one pooled generator rather than calling worker_stream
    pool = getattr(engine, "_StreamPool", None)
    if pool is not None:
        table.append((pool, "get", "engine.stream_rekeys", None))
    return table


class Tracer:
    """Installs span-recording wrappers; one instance per traced operation."""

    def __init__(self, spool_dir: str):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._spool = spool_dir
        self._pid = os.getpid()
        self._stack: list[str] = []
        self._forked = False
        self._base_depth = 0
        self._next_id = 0
        self._flushes = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _enter_process(self):
        pid = os.getpid()
        if pid != self._pid:
            # a forked pool worker: drop the parent's finished spans, keep its stack
            self._pid = pid
            self.spans = []
            self.counts = Counter()
            self._forked = True
            self._base_depth = len(self._stack)

    def _flush(self):
        path = os.path.join(self._spool, f"spans-{self._pid}-{self._flushes}.json")
        self._flushes += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
        self.spans = []
        self.counts = Counter()

    def _span_wrapper(self, original, name, attrs_fn):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._enter_process()
            tracer._next_id += 1
            sid = f"{tracer._pid}.{tracer._next_id}"
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                attrs = attrs_fn(args, result) if attrs_fn is not None else {}
                tracer.spans.append((name, sid, parent, start, end, attrs))
                if tracer._forked and len(tracer._stack) == tracer._base_depth:
                    tracer._flush()

        return wrapper

    def _count_wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._enter_process()
            tracer.counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- install/restore

    def install(self, byzdp):
        for owner, attr, name, attrs_fn in _bindings(byzdp):
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = (self._count_wrapper(original, name) if name in COUNTED
                       else self._span_wrapper(original, name, attrs_fn))
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))

    def restore(self):
        """Put every wrapped binding back; raise if any did not return."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        stray = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._saved
                 if owner.__dict__.get(attr) is not original]
        self._saved = []
        if stray:
            raise RuntimeError(f"trace left wrapped bindings in place: {stray}")

    def collect(self):
        """Merge the span files written by forked pool workers."""
        for entry in sorted(os.listdir(self._spool)):
            path = os.path.join(self._spool, entry)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.unlink(path)
            self.spans.extend(tuple(span) for span in payload["spans"])
            self.counts.update(payload["counts"])


# ------------------------------------------------------------------ metrics

def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_calls(spans: list[tuple], counts: Counter) -> Counter:
    """Calls recorded per layer name, the input to the zero-call check."""
    calls = Counter(span[0] for span in spans)
    calls.update(counts)
    return calls


def op_layer_metrics(spans: list[tuple], counts: Counter) -> tuple[dict, dict]:
    """Per-layer totals of one traced operation, plus raw timing samples.

    Self time is a span's duration minus the part its child spans cover;
    spans in pool workers are children of the span that forked them. Times
    sum over processes, so on the sweep they can exceed wall time.
    """
    names = {span[1]: span[0] for span in spans}
    children = defaultdict(list)
    for span in spans:
        children[span[2]].append(span)

    self_s, calls, rows = Counter(), Counter(), Counter()
    for name, sid, parent, start, end, attrs in spans:
        kids = [(kid[3], kid[4]) for kid in children[sid]]
        own = (end - start - _covered_ns(start, end, kids)) / 1e9
        if name == "aggregation.aggregate":
            self_s[f"aggregation.{attrs['rule']}"] += own
        elif name == "model.eval" and names.get(parent) == "engine.run":
            calls["model.eval.in_run"] += 1
        elif name == "model.full_grad" and names.get(parent) == "model.estimate_min_loss":
            # the descent steps are part of estimate_min_loss
            name = "model.estimate_min_loss.grad_eval"
            self_s["model.estimate_min_loss"] += own
        self_s[name] += own
        calls[name] += 1
        rows[name] += attrs.get("rows", 0)

    runs = [span for span in spans if span[0] == "engine.run"]
    round_us = []
    for run in runs:
        ends = sorted(kid[4] for kid in children[run[1]]
                      if kid[0] == "aggregation.aggregate")
        marks = [run[3]] + ends
        round_us.extend((b - a) / 1e3 for a, b in zip(marks, marks[1:]))
    aggregate_us = [(span[4] - span[3]) / 1e3 for span in spans
                    if span[0] == "aggregation.aggregate"]
    eval_rounds = sum(run[5].get("records", 0) for run in runs)

    totals = {
        "engine.self_s": self_s["engine.run"],
        "engine.rounds": sum(run[5].get("steps", 0) for run in runs),
        "engine.stream_rekeys": counts["engine.stream_rekeys"],
        "model.sample_batch.calls": calls["model.sample_batch"],
        "model.sample_batch.self_s": self_s["model.sample_batch"],
        "model.batch_grads.calls": calls["model.batch_grads"],
        "model.batch_grads.rows": rows["model.batch_grads"],
        "model.batch_grads.self_s": self_s["model.batch_grads"],
        "model.clip.rows": rows["model.clip"],
        "model.clip.self_s": self_s["model.clip"],
        "model.eval.passes": calls["model.eval"],
        "model.eval.passes_per_eval_round":
            calls["model.eval.in_run"] / eval_rounds if eval_rounds else 0.0,
        "model.eval.self_s": self_s["model.eval"],
        "privacy.gaussian_noise.calls": calls["privacy.gaussian_noise"],
        "privacy.gaussian_noise.self_s": self_s["privacy.gaussian_noise"],
        "attack.forge.calls": calls["attack.forge"],
        "attack.forge.self_s": self_s["attack.forge"],
        "aggregation.aggregate.calls": calls["aggregation.aggregate"],
        "model.estimate_min_loss.grad_evals": calls["model.estimate_min_loss.grad_eval"],
        "model.estimate_min_loss.self_s": self_s["model.estimate_min_loss"],
        "model.population_variance.self_s": self_s["model.population_variance"],
        "diagnostics.self_s": self_s["diagnostics"],
        "engine.sweep.self_s": self_s["engine.sweep"],
        "cli.setup.self_s": self_s["cli.setup"],
        "cli.output.self_s": self_s["cli.output"],
    }
    for rule in AGG_RULES:
        totals[f"aggregation.{rule}.self_s"] = self_s[f"aggregation.{rule}"]
    return totals, {"round_us": round_us, "aggregate_us": aggregate_us}
