"""Rows are checked once, where they enter.

Outside input (the public ``RunSet(...)`` and ``parse_runset``) is checked and
copied; the run sets stabrank builds itself come through ``RunSet._trusted``
with no check. The property below holds every such builder to the check it
skips, and the other tests pin where the boundary lies.
"""

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
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
    parse_runset,
    row_violations,
    run_experiment,
    serialize_runset,
)

FAMILIES = (gen_ranking_family, gen_subset_family, gen_overlap_family, gen_rank_shuffle_family)
SOURCE = Path(stabrank.__file__).resolve().parent


@st.composite
def generator_calls(draw):
    """One generator anywhere in its config space."""
    family = draw(st.sampled_from(FAMILIES))
    runs, seed = draw(st.integers(2, 8)), draw(st.integers(0, 2**32))
    if family is gen_overlap_family:
        k = draw(st.integers(2, 12))
        overlap = draw(st.integers(1, k - 1))
        t = draw(st.integers(2 * k - overlap, 2 * k - overlap + 10))  # the pool holds k - overlap
        knobs = dict(overlap=overlap, lam=draw(st.floats(0, 1)))
    else:
        t = draw(st.integers(1, 30))
        k = draw(st.integers(1, t))
        knobs = dict(fixed=draw(st.integers(0, runs)), q=draw(st.floats(0, 1)))
    return "generate", family, ExperimentConfig(t=t, k=k, runs=runs, seed=seed, **knobs)


@st.composite
def curves(draw):
    """One preset of ``run_experiment`` at a small shape valid for it."""
    name = draw(st.sampled_from(EXPERIMENT_NAMES))
    seed, runs = draw(st.integers(0, 2**32)), draw(st.integers(2, 10))
    k = draw(st.integers(2, 10))
    if name != "fig6":
        return "curve", name, seed, dict(t=draw(st.integers(k + 1, k + 20)), k=k, runs=runs)
    overlap = draw(st.integers(1, k - 1))
    t = draw(st.integers(2 * k - overlap, 2 * k - overlap + 10))
    return "curve", name, seed, dict(t=t, k=k, runs=runs, overlap=overlap)


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
    assert matrix.dtype == np.int64 and matrix.flags.c_contiguous and not matrix.flags.writeable


def config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{"seed": 1, **fields})


@settings(max_examples=150)
@given(st.one_of(generator_calls(), curves()))
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


@pytest.mark.parametrize("module", ["runset_io.py", "cli.py"])
def test_file_and_cli_input_never_skips_the_check(module):
    assert "_trusted" not in (SOURCE / module).read_text(encoding="utf-8")


@pytest.fixture
def public_constructions(monkeypatch):
    """Every call of the public ``RunSet(...)``, recorded by kind."""
    calls = []
    original = RunSet.__init__

    def counting(self, kind, *args, **kwargs):
        calls.append(kind)
        original(self, kind, *args, **kwargs)

    monkeypatch.setattr(RunSet, "__init__", counting)
    return calls


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_a_sweep_makes_no_public_construction(name, public_constructions):
    overlap = dict(overlap=4) if name == "fig6" else {}
    run_experiment(name, 0, t=40, k=8, runs=6, **overlap)
    assert public_constructions == []


@pytest.mark.parametrize(
    "family, knobs",
    [(gen_ranking_family, {}), (gen_subset_family, {}), (gen_overlap_family, dict(overlap=4))],
)
def test_a_parsed_file_is_constructed_once(family, knobs, public_constructions):
    rs = family(config(t=30, k=8, runs=5, **knobs))
    text = serialize_runset(rs)
    assert public_constructions == []
    parsed = parse_runset(text)
    assert public_constructions == [rs.kind]
    np.testing.assert_array_equal(parsed.matrix, rs.matrix)
