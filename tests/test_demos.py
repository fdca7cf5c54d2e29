"""The quick narrative demos run to completion and print their pinned bytes.

Each digest is the sha256 of the demo's stdout. A refactor that keeps them
keeps every line the demos print; a change that alters a demo's output on
purpose must say why and record the new digest. Demo 05 (the batch-size
sweep, about 13 s) is left out to keep the suite fast.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")

DEMOS = {
    "01_privacy_calibration.py": "0e384ec2d72f04a7cd8cb84a9c170341a8174e241ffc6771423c5ef3907717a2",
    "02_aggregation_rules.py": "2abbb4e1da24709d0190db82df353c3534af305eafcf400d2e36bd3067de0dfa",
    "03_vn_violation.py": "1e7167beeb4c077178940dc2762d93d19657f5b14ee2355265d21675cc843a3e",
    "04_attack_resilience.py": "4159500aaca6a676fc194f0d806a3db27594e63ca29794f3bf4e39d8072c2fb0",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[demo]
