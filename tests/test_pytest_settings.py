"""A failing Hypothesis property is reported like any other failing test.

``pyproject.toml`` turns every warning into an error. Hypothesis' pytest
plugin raises a third-party ``DeprecationWarning`` while it reports a
failing property; as an error it ended the run in an ``INTERNALERROR``,
with no falsifying example printed and no later test run. This runs pytest
with the repository's settings on a module holding one failing property
and, after it, one passing test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 5


def test_a_test_that_passes():
    pass
"""


def test_a_failing_property_shows_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_module.py").write_text(MODULE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_module.py"],
        cwd=tmp_path,  # Hypothesis writes its example database here
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert "1 failed, 1 passed" in output, output
    assert result.returncode == 1, output
