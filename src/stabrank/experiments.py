"""Curve runners for the canned experiments behind the CLI presets.

Each runner sweeps one scenario knob and reports the stability score next
to the matching pairwise baseline, as ordered (x, metrics) points. The
presets fig4..fig7 bundle the default parameter grids.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .baselines import pairwise_stability
from .divergence import js_stability
from .lists import RunSet
from .synth import (
    ExperimentConfig,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
)


# The curve runners keep each run set bound until the next one is built. Freed
# first, its pages sat at the top of the heap and went back to the OS, to be
# faulted in again by the next run set (57% more minor page faults over the
# four presets at the paper shape, with glibc malloc).


def _fixed_grid(runs: int, points: int = 11) -> list[int]:
    return sorted({int(round(x)) for x in np.linspace(0, runs, points)})


def _scores(rs: RunSet, metric: str) -> dict:
    """The stability score next to the mean pairwise ``metric`` of one run set.

    A partial run set is scored twice, as partial rankings and as the masks
    of its selected sets, and its baseline is taken on the masks.
    """
    if rs.kind != "partial":
        return {"s_js": js_stability(rs).s_js, f"phi_{metric}": pairwise_stability(rs, metric).phi}
    masks = rs.to_topk()
    return {
        "s_js_partial": js_stability(rs).s_js,
        "s_js_topk": js_stability(masks).s_js,
        f"phi_{metric}": pairwise_stability(masks, metric).phi,
    }


def ranking_curve(
    seed: int, t: int = 2000, runs: int = 100, points: int = 11
) -> list[dict]:
    """Stability vs. number of fixed outputs, for full rankings.

    One point per ``fixed`` value: the stability score and the mean
    pairwise Spearman correlation of the same run set.
    """
    base = ExperimentConfig(t=t, k=t, runs=runs, seed=seed)
    curve = []
    for fixed in _fixed_grid(runs, points):
        rs = gen_ranking_family(replace(base, fixed=fixed))
        curve.append({"i": fixed, **_scores(rs, "spearman")})
    return curve


def subset_curve(
    seed: int, t: int = 2000, k: int = 600, runs: int = 100, points: int = 11
) -> list[dict]:
    """Stability vs. number of fixed outputs, for top-k masks."""
    base = ExperimentConfig(t=t, k=k, runs=runs, seed=seed)
    curve = []
    for fixed in _fixed_grid(runs, points):
        rs = gen_subset_family(replace(base, fixed=fixed))
        curve.append({"i": fixed, **_scores(rs, "kuncheva")})
    return curve


def overlap_curve(
    seed: int,
    t: int = 2000,
    k: int = 600,
    runs: int = 100,
    overlap: int = 350,
    lams: tuple[float, ...] = tuple(np.round(np.linspace(0, 1, 11), 10)),
) -> list[dict]:
    """Stability vs. disagreement placement, at fixed set overlap.

    Partial-level stability reacts to where the run-specific features sit
    in the ranking; the mask-level score and the Kuncheva baseline see only
    the (identical) selected sets.
    """
    base = ExperimentConfig(t=t, k=k, runs=runs, seed=seed, overlap=overlap)
    curve = []
    for lam in map(float, lams):
        rs = gen_overlap_family(replace(base, lam=lam))
        curve.append({"lambda": lam, **_scores(rs, "kuncheva")})
    return curve


def rank_shuffle_curve(
    seed: int,
    t: int = 2000,
    k: int = 600,
    runs: int = 100,
    qs: tuple[float, ...] = tuple(np.round(np.linspace(0, 1, 11), 10)),
) -> list[dict]:
    """Stability vs. rank randomness inside one fixed top-k set."""
    base = ExperimentConfig(t=t, k=k, runs=runs, seed=seed)
    curve = []
    for q in map(float, qs):
        rs = gen_rank_shuffle_family(replace(base, q=q))
        curve.append({"q": q, **_scores(rs, "kuncheva")})
    return curve


def run_experiment(name: str, seed: int, **overrides) -> list[dict]:
    """Run one of the presets fig4..fig7 with optional t/k/runs overrides."""
    if name == "fig4":
        overrides.pop("k", None)
        return ranking_curve(seed, **overrides)
    if name == "fig5":
        return subset_curve(seed, **overrides)
    if name == "fig6":
        return overlap_curve(seed, **overrides)
    if name == "fig7":
        return rank_shuffle_curve(seed, **overrides)
    raise ValueError(f"unknown experiment {name!r}, expected fig4..fig7")


EXPERIMENT_NAMES = ("fig4", "fig5", "fig6", "fig7")
