"""Every demo script runs to completion.

Each ``demos/*.py`` runs in its own process from an empty directory (demo
04 writes ``mds_coords.csv`` into the working directory), with the
package's ``src`` directory on the path and ``-W error``, so a warning
fails the demo as it fails a test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
