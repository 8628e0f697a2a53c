"""Run the benchmark harness's own self-tests, so a library change that breaks
the harness contract (for example a failure the harness injects into a grid
cell that no longer gets flagged) fails here too.  Takes about 8 s."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
