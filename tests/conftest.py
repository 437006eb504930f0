"""Shared fixtures: a small worked example of five runs over ten features.

EXAMPLE_FULL holds one full ranking per run. The partial and mask variants
are the same runs truncated at k=4; they double as regression anchors for
the conversion and baseline metrics. ``read_as`` is the one cut of full
rankings to partial rankings or masks, ``random_lists`` the one seeded
builder of random lists (``random_run_set`` its run set), ``traced_peak``
the one memory measurement and ``record_calls`` the one way a test sees a
function's calls, and ``src_nodes`` the one walk of the source of
``src/stabrank``. The strategies that more than one test module draws from
live here too: ``preset_shapes`` and ``pool_shapes`` for the experiment
presets, ``run_set_texts`` and ``near_valid_texts`` for file text. The
Hypothesis profile loaded here makes every property test deterministic.
"""

import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import stabrank
from stabrank import EXPERIMENT_NAMES, RunSet
from oracles import per_cell_text

# Every property test draws the same examples on every run, so a Tier-1
# failure reproduces; tests that need more or fewer examples override
# max_examples.
settings.register_profile(
    "stabrank", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("stabrank")

# one tuple per run (t = 10, K = 5)
EXAMPLE_FULL = (
    (3, 2, 4, 9, 5, 10, 7, 8, 1, 6),
    (9, 1, 7, 6, 3, 5, 10, 2, 4, 8),
    (7, 2, 3, 10, 5, 8, 9, 6, 1, 4),
    (8, 3, 5, 9, 1, 7, 10, 6, 2, 4),
    (7, 3, 2, 8, 4, 9, 10, 5, 1, 6),
)

EXAMPLE_K = 4

EXAMPLE_PARTIAL = tuple(
    tuple(r if r <= EXAMPLE_K else 0 for r in run) for run in EXAMPLE_FULL
)

EXAMPLE_MASKS = tuple(
    tuple(1 if r <= EXAMPLE_K else 0 for r in run) for run in EXAMPLE_FULL
)


def read_as(kind: str, ranks, k: int) -> np.ndarray:
    """Full rankings ``ranks`` read as ``kind``: cut at k to partial rankings
    (ranks above k become 0) or to top-k masks, and as they are otherwise."""
    ranks = np.asarray(ranks)
    if kind == "partial":
        return np.where(ranks <= k, ranks, 0)
    if kind == "topk":
        return (ranks <= k).astype(np.int64)
    return ranks


def random_lists(rng, kind: str, t: int, k: int, runs: int, fixed: int = 0) -> np.ndarray:
    """The writable int64 matrix of ``runs`` uniformly random rankings of t
    features, one ``rng.permutation`` per run in run order, with the first
    ``fixed`` rows then set to row 0, read as ``kind`` at k. ``rng`` is a
    ``np.random.Generator`` or a seed of one."""
    rng = np.random.default_rng(rng)
    rows = np.array([rng.permutation(t) + 1 for _ in range(runs)])
    rows[:fixed] = rows[0]
    return read_as(kind, rows, k)


def random_run_set(rng, kind: str, t: int, k: int, runs: int, fixed: int = 0) -> RunSet:
    """The run set of ``random_lists``; full rankings ignore k."""
    return RunSet(kind, random_lists(rng, kind, t, k, runs, fixed), None if kind == "full" else k)


def traced_peak(call, *args):
    """``call(*args)`` and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def record_calls(monkeypatch, owner, name: str) -> list[dict]:
    """Rebind ``owner.name`` for the test to a wrapper that records each call
    and then makes it; return the records, one dict of the call's bound
    arguments (by parameter name) per call."""
    original = getattr(owner, name)
    signature = inspect.signature(original)
    calls = []

    def recording(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def src_nodes():
    """(path, scope, node) for every AST node of every module of ``src/stabrank``,
    depth first in source order. ``scope`` is the module's name, then each
    enclosing class and function, dotted: ``lists.RunSet.to_topk``."""

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            yield path, scope, child
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(path, child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(Path(stabrank.__file__).parent.glob("*.py")):
        yield from visit(path, ast.parse(path.read_text(encoding="utf-8")), path.stem)


def called_name(node) -> str | None:
    """The name a call node calls, as ``name(...)`` or ``x.name(...)``; ``None``
    for any other node."""
    called = node.func if isinstance(node, ast.Call) else None
    return getattr(called, "attr", getattr(called, "id", None))


@st.composite
def pool_shapes(draw, k: int):
    """(t, overlap) at k for fig6 and ``gen_overlap_family``: t - k >= k -
    overlap, so that the pool of run-specific features is not exhausted."""
    overlap = draw(st.integers(1, k - 1))
    return draw(st.integers(2 * k - overlap, 2 * k - overlap + 20)), overlap


@st.composite
def preset_shapes(draw, names=EXPERIMENT_NAMES):
    """(name, seed, shape): one of the ``run_experiment`` presets ``names``, a
    seed and a small shape valid for it."""
    name = draw(st.sampled_from(names))
    seed, runs, k = draw(st.integers(0, 2**32)), draw(st.integers(2, 14)), draw(st.integers(2, 12))
    if name != "fig6":
        return name, seed, dict(t=draw(st.integers(k + 1, k + 30)), k=k, runs=runs)
    t, overlap = draw(pool_shapes(k))
    return name, seed, dict(t=t, k=k, runs=runs, overlap=overlap)


# characters that break the cell grammar in one place, or nearly keep it
TRICKY = "0123456789,\n-+ \t_\r١#."
TRICKY_CELLS = ["", "0", "00", "-0", "+1", " 0", "\t1", "007", "1_0", "١", "-1",
                "9223372036854775807", "9223372036854775808", "-9223372036854775808",
                "-9223372036854775809", "1e3", "1.0"]
# spellings of a value that int() reads as the value itself
RESPELLINGS = ["+{}", " {}", "{}\t", "0{}", "{}\r", "{}_0"]


def mutate(draw, text: str, start: int) -> str:
    """``text`` with one cell replaced, or one character replaced, inserted or
    deleted, at or after index ``start``."""
    where = draw(st.integers(start, len(text)))
    action = draw(st.sampled_from(["cell", "replace", "insert", "delete"]))
    if action == "cell":
        lines = text[start:].split("\n")
        row = draw(st.integers(0, len(lines) - 1 - (len(lines) > 1 and lines[-1] == "")))
        cells = lines[row].split(",")
        col = draw(st.integers(0, len(cells) - 1))
        cells[col] = draw(
            st.sampled_from(TRICKY_CELLS)
            | st.text(TRICKY, max_size=4)
            | st.sampled_from(RESPELLINGS).map(lambda spelling: spelling.format(cells[col]))
        )
        lines[row] = ",".join(cells)
        return text[:start] + "\n".join(lines)
    char = draw(st.sampled_from(TRICKY) | st.characters(codec="utf-8"))
    if action == "insert":
        return text[:where] + char + text[where:]
    tail = text[where + 1:]
    return text[:where] + (char if action == "replace" else "") + tail


@st.composite
def run_set_texts(draw):
    """(text, pristine): a run-set file of any kind, valid and of two or more
    runs when pristine, otherwise possibly invalid and with one perturbation."""
    kind = draw(st.sampled_from(["full", "partial", "topk"]))
    t = draw(st.integers(1, 6))
    k = t if kind == "full" else draw(st.integers(1, t))
    pristine = draw(st.booleans())
    runs = draw(st.integers(2 if pristine else 1, 4))
    ranks = [draw(st.permutations(range(1, t + 1))) for _ in range(runs)]
    text = per_cell_text(kind, k, read_as(kind, ranks, k))
    if not pristine:
        text = draw(st.sampled_from([
            text,
            mutate(draw, text, text.index("\n") + 1),  # in the data lines
            mutate(draw, text, 0),
            text[:-1],  # no final newline
            text.replace("\n", " \n", 1),
            text.replace(f" t={t} ", f" t=0{t} ", 1),
        ]))
    return text, pristine


@st.composite
def near_valid_texts(draw):
    """A ``run_set_texts`` text, or a pristine one with one data cell set to a
    small integer, which may break that column's invariant but not the grammar."""
    text, pristine = draw(run_set_texts())
    if pristine and draw(st.booleans()):
        lines = text.split("\n")
        row = draw(st.integers(1, len(lines) - 2))  # a data line: not the header or the end
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = str(draw(st.integers(-1, 7)))
        lines[row] = ",".join(cells)
        text = "\n".join(lines)
    return text


@pytest.fixture
def full_run_set() -> RunSet:
    return RunSet("full", np.array(EXAMPLE_FULL))


@pytest.fixture
def partial_run_set() -> RunSet:
    return RunSet("partial", np.array(EXAMPLE_PARTIAL), EXAMPLE_K)


@pytest.fixture
def mask_run_set() -> RunSet:
    return RunSet("topk", np.array(EXAMPLE_MASKS), EXAMPLE_K)
