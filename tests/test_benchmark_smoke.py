"""The benchmark's own gates, run as part of the suite.

`perfbench/run.py --smoke` runs every workload on tiny windows, checks each
answer against the benchmark's oracle and fails when a sweep covers nothing
or a traced count moves between rounds.  A refactor that empties one of
those gates (say, a traced function no longer called) fails here, not only
in a full benchmark run.  Each run works in its own temporary directory
under `perfbench/.work`, which it removes.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok", proc.stdout[-2000:]
