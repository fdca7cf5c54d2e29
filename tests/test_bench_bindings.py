"""Every benchmark workload still calls each layer that its trace wraps.

``bench/spans.py`` times a traced run by replacing the module bindings that
``byzdp.engine``, ``byzdp.cli`` and ``byzdp.model`` look up at call time. A
refactor that stops calling one of those names would only show up in
``bench/run.py --trace 1``, which fails when a layer a workload ``exercises``
records no call. This test runs input 0 of each workload once under the
tracer, at the default seed, and makes the same check.
"""

import os
import sys

import pytest

import byzdp
import byzdp.cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
sys.path.insert(0, BENCH)

from spans import Tracer, layer_calls  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_calls_every_layer_it_exercises(tmp_path, name):
    workload = WORKLOADS[name](byzdp, DEFAULT_SEED, str(tmp_path))
    spool, opdir = tmp_path / "spool", tmp_path / "op"
    spool.mkdir()
    opdir.mkdir()
    tracer = Tracer(str(spool))
    tracer.install(byzdp)
    try:
        output = workload.op(byzdp, 0, str(opdir))
    finally:
        tracer.restore()
    tracer.collect()
    assert workload.check(output, 0, str(opdir)).problems == []
    calls = layer_calls(tracer.spans, tracer.counts)
    silent = [layer for layer in workload.exercises if calls[layer] == 0]
    assert silent == [], f"{name}: traced layers recorded no call: {silent}"
