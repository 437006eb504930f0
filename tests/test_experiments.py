"""The one experiment runner: its keywords, its grids and its generators."""

import numpy as np
import pytest

import stabrank.experiments
from stabrank import EXPERIMENT_NAMES, run_experiment

SMALL = dict(t=40, k=8, runs=6)
COLUMNS = {"fig4": "i", "fig5": "i", "fig6": "lambda", "fig7": "q"}


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig7"])
def test_overlap_outside_fig6_is_refused(name):
    with pytest.raises(ValueError, match=r"^--overlap only applies to fig6$"):
        run_experiment(name, 0, overlap=4, **SMALL)


@pytest.mark.parametrize("keyword", [dict(fixed=3), dict(lam=0.5), dict(q=0.5), dict(points=6)])
def test_unknown_keyword_is_refused(keyword):
    with pytest.raises(TypeError):
        run_experiment("fig4", 0, **SMALL, **keyword)


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
    """A rebinding of the module's generator names reaches every grid point."""
    generator = {
        "fig4": "gen_ranking_family",
        "fig5": "gen_subset_family",
        "fig6": "gen_overlap_family",
        "fig7": "gen_rank_shuffle_family",
    }[name]
    original = getattr(stabrank.experiments, generator)
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(stabrank.experiments, generator, counting)
    overlap = dict(overlap=4) if name == "fig6" else {}
    curve = run_experiment(name, 0, t=40, k=8, runs=20, **overlap)
    assert len(calls) == len(curve) == 11


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
