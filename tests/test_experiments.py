"""The one experiment runner: its keywords, its grids and its generators."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stabrank.experiments
from stabrank import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
    run_experiment,
)
from conftest import record_calls, traced_peak

SMALL = dict(t=40, k=8, runs=6)
COLUMNS = {"fig4": "i", "fig5": "i", "fig6": "lambda", "fig7": "q"}
GENERATORS = {
    "fig4": (gen_ranking_family, "fixed"),
    "fig5": (gen_subset_family, "fixed"),
    "fig6": (gen_overlap_family, "lam"),
    "fig7": (gen_rank_shuffle_family, "q"),
}


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig7"])
def test_overlap_outside_fig6_is_refused(name):
    with pytest.raises(ValueError, match=r"^--overlap only applies to fig6$"):
        run_experiment(name, 0, overlap=4, **SMALL)


@pytest.mark.parametrize("keyword, value", [("fixed", 3), ("lam", 0.5), ("q", 0.5), ("points", 6)])
def test_unknown_keyword_is_refused(keyword, value):
    with pytest.raises(TypeError):
        run_experiment("fig4", 0, **SMALL, **{keyword: value})


def test_unknown_name_is_refused():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig8", 0, **SMALL)


def test_fig4_ignores_k():
    without_k = run_experiment("fig4", 3, t=30, runs=6)
    assert run_experiment("fig4", 3, t=30, k=5, runs=6) == without_k
    assert run_experiment("fig4", 3, t=30, k=600, runs=6) == without_k


def test_fig6_default_overlap_is_350():
    shape = dict(t=800, k=400, runs=2)
    assert run_experiment("fig6", 0, **shape) == run_experiment("fig6", 0, overlap=350, **shape)


@pytest.mark.parametrize("runs", [2, 6, 13, 25])
@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_fixed_output_grid(name, runs):
    curve = run_experiment(name, 0, t=30, k=8, runs=runs)
    grid = sorted({round(x) for x in np.linspace(0, runs, 11)})
    assert [point["i"] for point in curve] == grid
    assert all(type(point["i"]) is int for point in curve)


@pytest.mark.parametrize("name", ["fig6", "fig7"])
def test_unit_grid(name):
    overlap = dict(overlap=4) if name == "fig6" else {}
    curve = run_experiment(name, 0, **SMALL, **overlap)
    assert [point[COLUMNS[name]] for point in curve] == [i / 10 for i in range(11)]


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_generator_is_read_at_call_time(name, monkeypatch):
    """A rebinding of the module's generator names reaches the sweep: fig4
    and fig5 call it at their two anchors, fig6 at its one, fig7 at every
    point."""
    calls = record_calls(monkeypatch, stabrank.experiments, GENERATORS[name][0].__name__)
    overlap = dict(overlap=4) if name == "fig6" else {}
    curve = run_experiment(name, 0, t=40, k=8, runs=20, **overlap)
    assert len(curve) == 11
    assert len(calls) == {"fig4": 2, "fig5": 2, "fig6": 1, "fig7": 11}[name]


def swept_run_sets(name, seed, shape):
    """The run set that ``run_experiment`` scores at each point of its grid."""
    run_sets = []

    def record(rs, metric):
        run_sets.append(rs)
        return {}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stabrank.experiments, "_scores", record)
        curve = run_experiment(name, seed, **shape)
    return [point[COLUMNS[name]] for point in curve], run_sets


@st.composite
def sweeps(draw, names=EXPERIMENT_NAMES):
    """One of ``names``, a seed and a small shape valid for it; fig6 keeps
    ``t - k >= k - overlap`` so that its pool is not exhausted."""
    name = draw(st.sampled_from(names))
    seed = draw(st.integers(0, 2**32))
    runs = draw(st.integers(2, 14))
    k = draw(st.integers(2, 12))
    if name != "fig6":
        return name, seed, dict(t=draw(st.integers(k + 1, k + 30)), k=k, runs=runs)
    overlap = draw(st.integers(1, k - 1))
    t = draw(st.integers(2 * k - overlap, 2 * k - overlap + 20))
    return name, seed, dict(t=t, k=k, runs=runs, overlap=overlap)


@settings(max_examples=60)
@given(sweeps())
@example(("fig4", 0, dict(t=30, k=8, runs=2)))  # the fixed grid collapses to {0, 1, 2}
@example(("fig5", 1, dict(t=30, k=8, runs=2)))
@example(("fig6", 2, dict(t=40, k=8, runs=5, overlap=1)))
@example(("fig6", 3, dict(t=40, k=8, runs=5, overlap=7)))
@example(("fig6", 4, dict(t=40, k=8, runs=5, overlap=5)))  # round(2.5) at lam=0.5
@example(("fig6", 5, dict(t=20, k=12, runs=4, overlap=4)))  # t - k == k - overlap
def test_every_point_is_its_own_generator_call(case):
    """A point composed from the anchors is the run set its own config draws."""
    assert_points_are_generator_calls(*case)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_point_is_its_own_generator_call_at_a_mid_shape(name, seed):
    shape = dict(t=300, k=90, runs=30, overlap=45) if name == "fig6" else dict(t=300, k=90, runs=30)
    assert_points_are_generator_calls(name, seed, shape)


def assert_points_are_generator_calls(name, seed, shape):
    generate, field = GENERATORS[name]
    base = ExperimentConfig(seed=seed, **{**shape, "k": shape["t"]} if name == "fig4" else shape)
    grid, run_sets = swept_run_sets(name, seed, shape)
    assert len(run_sets) == len(grid)
    for x, rs in zip(grid, run_sets):
        want = generate(replace(base, **{field: x}))
        assert (rs.kind, rs.k) == (want.kind, want.k)
        np.testing.assert_array_equal(rs.matrix, want.matrix)


@settings(max_examples=40)
@given(sweeps(names=("fig6", "fig7")))
@example(("fig6", 5, dict(t=20, k=12, runs=4, overlap=4)))
@example(("fig7", 6, dict(t=20, k=1, runs=3)))
def test_selected_sets_do_not_move_along_a_partial_curve(case):
    """What lets fig6 and fig7 score the masks of their first point only."""
    _, run_sets = swept_run_sets(*case)
    first = run_sets[0].to_topk().matrix
    for rs in run_sets[1:]:
        np.testing.assert_array_equal(rs.to_topk().matrix, first)


@pytest.mark.parametrize(
    "shape, message",
    [
        (dict(t=30, k=8, runs=4, overlap=8), "overlap=8 must be smaller than k=8"),
        (
            dict(t=12, k=10, runs=4, overlap=5),
            "pool exhausted: need 5 run-specific features per run "
            "but only 2 outside the reference top-10",
        ),
    ],
    ids=["overlap-equals-k", "pool-exhausted"],
)
def test_overlap_family_errors_are_unchanged(shape, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment("fig6", 0, **shape)


# Peak traced bytes of one sweep at t=1000, k=300, runs=50 with one generator
# call per point (version 0.4.1): 4.44 (fig4) and 4.46 (fig6) K x t int64
# matrices. The anchor a composed sweep holds may add one more matrix; a
# view of the stable row would keep the fixed=runs anchor too, a second one.
ONE_CALL_PER_POINT_PEAK = {"fig4": 1_777_892, "fig6": 1_782_634}


@pytest.mark.parametrize("name", sorted(ONE_CALL_PER_POINT_PEAK))
def test_anchors_add_at_most_one_matrix(name):
    shape = dict(t=1000, k=300, runs=50, **({"overlap": 150} if name == "fig6" else {}))
    run_experiment(name, 1, **shape)  # warm up, so first-call allocations are not counted
    _, peak = traced_peak(lambda: run_experiment(name, 1, **shape))
    matrix = 8 * shape["runs"] * shape["t"]
    assert peak <= ONE_CALL_PER_POINT_PEAK[name] + matrix + 64 * 1024


@pytest.mark.parametrize(
    "name, seed, shape, field",
    [
        ("fig5", None, dict(t=30, k=8, runs=4), "seed"),
        ("fig5", 0, dict(t=30.5, k=8, runs=4), "t"),
        ("fig5", 0, dict(t=30, k=8, runs=4.0), "runs"),
        ("fig6", 0, dict(t=30, k=8, runs=4, overlap=3.5), "overlap"),
    ],
)
def test_non_integer_shape_is_refused(name, seed, shape, field):
    with pytest.raises(TypeError, match=rf"^{field} must be an integer, got "):
        run_experiment(name, seed, **shape)
