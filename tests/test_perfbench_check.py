"""The benchmark's self-check runs as part of the test suite.

``perfbench/check.py`` reconstructs the tiny workload through the
benchmark, untraced and traced, and checks it against ``run_benchmark``
and against the metric list of BENCHMARK.json.  A library change that
breaks that agreement fails here, not only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check_passes():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "check.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.rstrip().endswith("all checks passed")
