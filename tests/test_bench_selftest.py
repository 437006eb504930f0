"""The benchmark's self-test passes: every workload reaches its traced layers.

``bench/selftest.py`` runs each workload at tiny shapes, checks its outputs,
requires every layer the benchmark traces to see calls, and requires each
check to reject perturbed outputs. A change that stops reaching a traced
layer (for example ``probability.run_probabilities`` from ``js_stability``)
fails here. The self-test runs with ``-W error``, so a warning raised inside
a workload fails it too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_0():
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
