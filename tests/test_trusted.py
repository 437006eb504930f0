"""Rows are checked once, where they enter.

Outside input is checked and copied: an array by the public ``RunSet(...)``,
a file by ``parse_runset``, which checks its columns once and adopts the
matrix it parsed through ``RunSet._trusted``. The run sets stabrank builds
itself come through ``RunSet._trusted`` with no check. The properties below
hold every such builder, and the parser, to the public constructor, and the
other tests pin where the boundary lies.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stabrank.experiments
import stabrank.synth
from stabrank import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    RunSet,
    RunSetParseError,
    RunSetValidationError,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
    parse_runset,
    row_violations,
    run_experiment,
    serialize_runset,
)
from stabrank import runset_io
from stabrank.lists import _storage_dtype
from stabrank.runset_io import read_columns
from conftest import near_valid_texts, pool_shapes, preset_shapes, random_run_set
from conftest import called_name, record_calls, src_nodes, traced_peak

FAMILIES = (gen_ranking_family, gen_subset_family, gen_overlap_family, gen_rank_shuffle_family)
SOURCE = Path(stabrank.__file__).resolve().parent


@st.composite
def generator_calls(draw):
    """One generator anywhere in its config space."""
    family = draw(st.sampled_from(FAMILIES))
    runs, seed = draw(st.integers(2, 8)), draw(st.integers(0, 2**32))
    if family is gen_overlap_family:
        k = draw(st.integers(2, 12))
        t, overlap = draw(pool_shapes(k))
        knobs = dict(overlap=overlap, lam=draw(st.floats(0, 1)))
    else:
        t = draw(st.integers(1, 30))
        k = draw(st.integers(1, t))
        knobs = dict(fixed=draw(st.integers(0, runs)), q=draw(st.floats(0, 1)))
    return "generate", family, ExperimentConfig(t=t, k=k, runs=runs, seed=seed, **knobs)


def built(case) -> list[tuple[RunSet, int]]:
    """The run sets a case builds, each with the k its masks are cut at."""
    if case[0] == "generate":
        _, family, cfg = case
        return [(family(cfg), cfg.k)]
    _, name, seed, shape = case
    points = []

    def recording(*args):
        for rs in stabrank.synth._curve(*args):
            points.append(rs)
            yield rs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stabrank.experiments, "_curve", recording)
        curve = run_experiment(name, seed, **shape)
    assert len(points) == len(curve)
    return [(rs, shape["k"]) for rs in points]


def assert_passes_the_public_check(rs: RunSet) -> None:
    """``rs`` is what ``RunSet(rs.kind, rs.matrix, rs.k)`` would build."""
    assert row_violations(rs.kind, rs.matrix, rs.k) == [None] * rs.runs
    checked = RunSet(rs.kind, rs.matrix, rs.k)
    assert (checked.kind, checked.k) == (rs.kind, rs.k)
    assert type(rs.k) is int
    np.testing.assert_array_equal(checked.matrix, rs.matrix)
    matrix = rs.matrix
    assert matrix.dtype == _storage_dtype(rs.kind, rs.t)
    assert matrix.flags.c_contiguous and not matrix.flags.writeable


def config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{"seed": 1, **fields})


@settings(max_examples=150)
@given(st.one_of(generator_calls(), preset_shapes().map(lambda case: ("curve", *case))))
@example(("generate", gen_ranking_family, config(t=1, k=1, runs=2, fixed=1)))
@example(("generate", gen_subset_family, config(t=9, k=1, runs=2, fixed=0)))  # k=1
@example(("generate", gen_subset_family, config(t=9, k=9, runs=3, fixed=1)))  # k=t
@example(("generate", gen_rank_shuffle_family, config(t=9, k=1, runs=2, q=1.0)))
@example(("generate", gen_rank_shuffle_family, config(t=9, k=9, runs=4, q=0.5)))
@example(("generate", gen_overlap_family, config(t=20, k=8, runs=2, overlap=7, lam=0.5)))
@example(("generate", gen_overlap_family, config(t=20, k=12, runs=3, overlap=4, lam=1.0)))
@example(("generate", gen_overlap_family, config(t=20, k=12, runs=3, overlap=4, lam=0.0)))
@example(("curve", "fig4", 0, dict(t=12, k=12, runs=2)))
@example(("curve", "fig5", 1, dict(t=12, k=1, runs=2)))
@example(("curve", "fig6", 2, dict(t=20, k=8, runs=2, overlap=7)))
@example(("curve", "fig6", 3, dict(t=20, k=12, runs=4, overlap=4)))  # t - k == k - overlap
@example(("curve", "fig7", 4, dict(t=12, k=1, runs=2)))
def test_every_run_set_stabrank_builds_passes_the_public_check(case):
    """Generators, every point of every preset's curve, and ``to_topk`` of
    the full and partial ones: the check they skip would have passed them."""
    for rs, k in built(case):
        assert_passes_the_public_check(rs)
        if rs.kind != "topk":
            assert_passes_the_public_check(rs.to_topk(k if rs.kind == "full" else None))


# (module, function) of every call of ``RunSet._trusted`` under src/
TRUSTED_CALLERS = {
    ("lists.py", "to_topk"),
    ("synth.py", "gen_ranking_family"),
    ("synth.py", "gen_overlap_family"),
    ("synth.py", "gen_rank_shuffle_family"),
    ("synth.py", "_curve"),
    ("mds.py", "distance_matrix"),
    ("runset_io.py", "parse_runset"),
}


def calls_by_function(module: str, name: str) -> dict[str, list[tuple[int, int]]]:
    """Where ``module`` calls ``name`` (as ``name(...)`` or ``x.name(...)``):
    (line, column) of each call, keyed by the innermost function, class or
    module that encloses it."""
    found: dict[str, list[tuple[int, int]]] = {}
    for path, scope, node in src_nodes():
        if path.name == module and called_name(node) == name:
            found.setdefault(scope.rsplit(".", 1)[-1], []).append((node.lineno, node.col_offset))
    return found


def test_only_stabrank_s_own_builders_adopt_a_matrix_unchecked():
    found = {
        (path.name, function)
        for path in SOURCE.glob("*.py")
        for function in calls_by_function(path.name, "_trusted")
    }
    assert found == TRUSTED_CALLERS


@pytest.mark.parametrize("module", ["runset_io.py", "cli.py"])
def test_file_and_cli_input_never_skips_the_check(module):
    """File input reaches ``RunSet._trusted`` only in ``parse_runset``, after
    ``check_runset``, which runs the column check; the command layer never
    names it."""
    if module == "cli.py":
        assert "_trusted" not in (SOURCE / module).read_text(encoding="utf-8")
        return
    trusted = calls_by_function(module, "_trusted")
    assert set(trusted) == {"parse_runset"}
    checks = calls_by_function(module, "check_runset")["parse_runset"]
    assert min(checks) < min(trusted["parse_runset"])
    assert "check_runset" in calls_by_function(module, "column_violations")


@pytest.fixture
def public_constructions(monkeypatch):
    """Every call of the public ``RunSet(...)``, with its arguments."""
    return record_calls(monkeypatch, RunSet, "__init__")


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_a_sweep_makes_no_public_construction(name, public_constructions):
    overlap = dict(overlap=4) if name == "fig6" else {}
    run_experiment(name, 0, t=40, k=8, runs=6, **overlap)
    assert public_constructions == []


@pytest.mark.parametrize(
    "family, knobs",
    [(gen_ranking_family, {}), (gen_subset_family, {}), (gen_overlap_family, dict(overlap=4))],
)
def test_a_parsed_file_is_constructed_once(family, knobs, public_constructions, monkeypatch):
    """One column check per file, and no public construction to check it again."""
    checks = record_calls(monkeypatch, runset_io, "column_violations")
    rs = family(config(t=30, k=8, runs=5, **knobs))
    parsed = parse_runset(serialize_runset(rs))
    assert public_constructions == []
    assert [check["header"].kind for check in checks] == [rs.kind]
    np.testing.assert_array_equal(parsed.matrix, rs.matrix)


def _verdict(build):
    """What ``build()`` returns, or the ``ValueError`` it raises."""
    try:
        return build()
    except ValueError as exc:
        return exc


@settings(max_examples=300)
@given(near_valid_texts())
@example("#stabrank v1 kind=full t=3 k=3 K=2\n1,2\n2,2\n3,1\n")  # column 2: duplicate rank 2
@example("#stabrank v1 kind=topk t=3 k=1 K=1\n1\n1\n0\n")  # K=1 and a bad column
@example("#stabrank v1 kind=partial t=3 k=2 K=1\n1\n0\n2\n")  # K=1, a valid column
def test_parse_runset_agrees_with_the_public_constructor(text):
    """``parse_runset(text)`` is ``RunSet(kind, read_columns(text)[1], k)``:
    the same run set, or the same message with ``column j+1`` for ``run j``."""
    parsed = _verdict(lambda: parse_runset(text))
    try:
        header, matrix = read_columns(text)
    except RunSetParseError as exc:
        assert type(parsed) is RunSetParseError and str(parsed) == str(exc)
        return
    public = _verdict(lambda: RunSet(header.kind, matrix, header.k))
    if isinstance(public, RunSet):
        assert isinstance(parsed, RunSet)
        assert (parsed.kind, parsed.k) == (public.kind, public.k)
        np.testing.assert_array_equal(parsed.matrix, public.matrix)
        assert parsed.matrix.flags.c_contiguous and not parsed.matrix.flags.writeable
        return
    assert type(parsed) is RunSetValidationError
    bad_run = re.fullmatch(r"run (\d+): (.*)", str(public))
    if bad_run:
        assert str(parsed) == f"column {int(bad_run[1]) + 1}: {bad_run[2]}"
        return
    # the one ordering difference: with K=1 the constructor names the run
    # count first, the parser the bad column; doubling the column shows it
    assert header.runs == 1 and str(public) == "a run set needs at least 2 lists, got 1"
    doubled = _verdict(lambda: RunSet(header.kind, np.repeat(matrix, 2, axis=0), header.k))
    if isinstance(doubled, RunSet):
        assert str(parsed) == str(public)
    else:
        assert str(doubled).startswith("run 0: ")
        assert str(parsed) == "column 1: " + str(doubled).removeprefix("run 0: ")


@pytest.mark.parametrize("kind, bound", [("full", 2.5), ("partial", 2.5), ("topk", 1.9)])
def test_parse_runset_peaks_below_its_bound(kind, bound):
    """Peak memory of one parse, in int64 K x t matrices: the line list, one
    matrix and one column check, with no second check and no copy."""
    runs, t, k = 200, 5000, 1500
    text = serialize_runset(random_run_set(5, kind, t, k, runs))
    _, peak = traced_peak(parse_runset, text)
    assert peak <= bound * runs * t * 8
