"""Every demo script, and every Python block of the README, runs to completion.

Each ``demos/*.py`` and each fenced ``python`` block of ``README.md`` runs
in its own process from an empty directory (demo 04 writes
``mds_coords.csv`` into the working directory), with the package's ``src``
directory on the path and ``-W error``, so a warning fails the script as it
fails a test. A block's id is the heading of its README section.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# (heading, block): each python block under the heading of its README section
README_BLOCKS = [
    (section.split("\n", 1)[0], block)
    for section in re.split("^## ", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M)
    for block in re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
]


def run(argv, cwd) -> subprocess.CompletedProcess:
    """``python -W error`` on ``argv`` from ``cwd``, with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    return result


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"
    assert README_BLOCKS, "no python block in README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    run([str(demo)], tmp_path)


@pytest.mark.parametrize("heading, block", README_BLOCKS, ids=[h for h, _ in README_BLOCKS])
def test_readme_python_block_runs(heading, block, tmp_path):
    assert run(["-c", block], tmp_path).stdout
