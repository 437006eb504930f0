"""The derivations page and the code agree, in both directions.

``docs/derivations.md`` states each closed form once. Every entry names the
functions that implement it and the tests that pin it, and may name its
oracle in ``tests/oracles.py``: each named function must exist and cite the
entry in its docstring, and each named test and oracle must exist. Every
``docs/derivations.md#<anchor>`` cited under ``src/`` must be an entry.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import stabrank

ROOT = Path(__file__).resolve().parent.parent
PAGE = ROOT / "docs" / "derivations.md"
SOURCE = Path(stabrank.__file__).resolve().parent
CITATION = re.compile(r"docs/derivations\.md#([a-z0-9-]+)")


def entries() -> dict[str, tuple[list[str], list[str], list[str]]]:
    """anchor: (the functions that implement it, the tests that pin it, its oracles)."""
    text = PAGE.read_text(encoding="utf-8")
    sections = re.split(r'^## <a id="([a-z0-9-]+)"></a>', text, flags=re.M)[1:]
    found = {}
    for anchor, body in zip(sections[::2], sections[1::2]):
        fields = []
        for name, pattern in (("Implemented by", r"stabrank\.[\w.]+"),
                              ("Pinned by", r"tests/\w+\.py(?:::\w+)+"),
                              ("Oracle", r"tests/oracles\.py::\w+")):
            match = re.search(rf"^- {name}:(.*?)(?=^- |^$|\Z)", body, re.M | re.S)
            assert match or name == "Oracle", f"{anchor} has no '{name}' line"
            fields.append(re.findall(f"`({pattern})`", match.group(1)) if match else [])
        found[anchor] = tuple(fields)
    return found


ENTRIES = entries()
FUNCTIONS = [(anchor, name) for anchor, (names, _, _) in ENTRIES.items() for name in names]
# the tests that pin each entry, then its oracles: both are definitions under tests/
TESTS = [(anchor, name) for anchor, (_, *named) in ENTRIES.items() for names in named
         for name in names]


def resolve(dotted: str):
    """The object a dotted name such as ``stabrank.lists.RunSet._trusted`` names."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_entry_names_code_and_tests_and_is_in_the_table():
    assert len(ENTRIES) >= 12
    for anchor, (functions, tests, _) in ENTRIES.items():
        assert functions and tests, anchor
    table = re.findall(r"^\| \[`([a-z0-9-]+)`\]\(#\1\) \|", PAGE.read_text(encoding="utf-8"), re.M)
    assert table == list(ENTRIES)


@pytest.mark.parametrize("anchor, name", FUNCTIONS, ids=[f"{a}:{n}" for a, n in FUNCTIONS])
def test_named_function_exists_and_cites_its_entry(anchor, name):
    assert anchor in CITATION.findall(resolve(name).__doc__ or ""), f"{name} does not cite {anchor}"


@pytest.mark.parametrize("anchor, test_id", TESTS, ids=[f"{a}:{n}" for a, n in TESTS])
def test_named_test_exists(anchor, test_id):
    path, *names = test_id.split("::")
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        match = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        assert match, f"{test_id}: no {name}"
        scope = match[0].body


def test_every_citation_under_src_is_an_entry():
    cited = {
        (path.name, anchor)
        for path in SOURCE.glob("*.py")
        for anchor in CITATION.findall(path.read_text(encoding="utf-8"))
    }
    assert cited
    unknown = {(module, anchor) for module, anchor in cited if anchor not in ENTRIES}
    assert not unknown, unknown
