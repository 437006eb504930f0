"""The suite's own settings: a failing property is reported, and no test
needs more than the ``[test]`` extras.

``pyproject.toml`` turns every warning into an error. Hypothesis' pytest
plugin raises a third-party ``DeprecationWarning`` while it reports a
failing property; as an error it ended the run in an ``INTERNALERROR``,
with no falsifying example printed and no later test run. This runs pytest
with the repository's settings on a module holding one failing property
and, after it, one passing test. A test that needs a package outside the
``[test]`` extras would be skipped, or fail, where only those are
installed, so every test module is checked for its imports.
"""

import ast
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


def test_the_tests_import_only_the_test_extras_and_skip_nothing():
    paths = sorted((ROOT / "tests").glob("*.py"))
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis", "stabrank"}
    allowed |= {path.stem for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{path.name}: import {m}" for m in modules if m.split(".")[0] not in allowed]
            if isinstance(node, ast.Call) and "importorskip" in ast.unparse(node.func):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert not found, found
