"""The one experiment runner: its keywords, its grids and its generators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings

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
from conftest import preset_shapes, record_calls, traced_peak
from test_refusals import check_refusal, table_rows

SMALL = dict(t=40, k=8, runs=6)
COLUMNS = {"fig4": "i", "fig5": "i", "fig6": "lambda", "fig7": "q"}
GENERATORS = {
    "fig4": (gen_ranking_family, "fixed"),
    "fig5": (gen_subset_family, "fixed"),
    "fig6": (gen_overlap_family, "lam"),
    "fig7": (gen_rank_shuffle_family, "q"),
}


@table_rows("run_experiment-", ("fig4", "fig4-overlap"), ("fig5", "fig5-overlap"),
            ("fig7", "fig7-overlap"))
def test_overlap_outside_fig6_is_refused(row):
    check_refusal(row)


@table_rows("run_experiment-", "fixed-3", "lam-0.5", "q-0.5", "points-6")
def test_unknown_keyword_is_refused(row):
    check_refusal(row)


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


@settings(max_examples=60)
@given(preset_shapes())
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
@given(preset_shapes(names=("fig6", "fig7")))
@example(("fig6", 5, dict(t=20, k=12, runs=4, overlap=4)))
@example(("fig7", 6, dict(t=20, k=1, runs=3)))
def test_selected_sets_do_not_move_along_a_partial_curve(case):
    """What lets fig6 and fig7 score the masks of their first point only."""
    _, run_sets = swept_run_sets(*case)
    first = run_sets[0].to_topk().matrix
    for rs in run_sets[1:]:
        np.testing.assert_array_equal(rs.to_topk().matrix, first)


@table_rows("run_experiment-fig6-", "overlap-equals-k", "pool-exhausted")
def test_overlap_family_errors_are_unchanged(row):
    check_refusal(row)


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


@table_rows("run_experiment-", ("fig5-None-shape0-seed", "seed-None"),
            ("fig5-0-shape1-t", "t-30.5"), ("fig5-0-shape2-runs", "runs-4.0"),
            ("fig6-0-shape3-overlap", "overlap-3.5"))
def test_non_integer_shape_is_refused(row):
    check_refusal(row)
