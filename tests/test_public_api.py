"""The public surface: every exported name resolves, and none removed in 0.2.0 or 0.4.0 is left.

The removed names are read from the first column of the "removed in 0.2.0"
and "removed in 0.4.0" tables under the README's "Changes a user must know",
so the migration notes and the package cannot drift apart.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import stabrank

ROOT = Path(__file__).resolve().parent.parent


def removed_names(version: str) -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Changes a user must know\n", 1)[1].split("\n## ", 1)[0]
    table = section.split(f"\n| removed in {version} |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    return [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)]


REMOVED = removed_names("0.2.0")
REMOVED_0_4 = removed_names("0.4.0")


def test_readme_lists_the_removed_names():
    assert len(REMOVED) == 13
    assert len(REMOVED_0_4) == 4


@pytest.mark.parametrize("name", stabrank.__all__)
def test_exported_name_resolves(name):
    assert getattr(stabrank, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    if name.startswith("RunSet."):
        assert not hasattr(stabrank.RunSet, name.split(".", 1)[1])
        return
    assert name not in stabrank.__all__
    for namespace in (stabrank, stabrank.lists, stabrank.probability, stabrank.baselines):
        assert not hasattr(namespace, name)


@pytest.mark.parametrize("name", REMOVED_0_4)
def test_removed_curve_function_is_gone(name):
    assert name not in stabrank.__all__
    for namespace in (stabrank, stabrank.experiments):
        assert not hasattr(namespace, name)


def test_no_duplicate_exports():
    assert len(set(stabrank.__all__)) == len(stabrank.__all__)


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'version = "{stabrank.__version__}"' in pyproject


VALUE_CLASSES = {
    "RunSet": lambda: stabrank.RunSet("full", [[1, 2, 3], [3, 2, 1]]),
    "DistanceMatrix": lambda: stabrank.DistanceMatrix(np.zeros((2, 2)), (("a", 0), ("a", 1))),
    "Embedding": lambda: stabrank.Embedding(np.zeros((3, 2)), (0.0, 0.0), 0.0),
}


@pytest.mark.parametrize("make", VALUE_CLASSES.values(), ids=VALUE_CLASSES.keys())
def test_array_holders_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the arrays and raise on their truth value
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2
