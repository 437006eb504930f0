"""The one sweep behind the canned experiment presets fig4..fig7.

Each preset sweeps one scenario knob and reports the stability score next
to the matching pairwise baseline, as ordered (x, metrics) points: fig4
and fig5 sweep the number of fixed outputs over 11 points of ``0..runs``,
fig6 and fig7 sweep ``lam`` and ``q`` over ``0, 0.1, ..., 1``.

fig4, fig5 and fig6 compose their 11 run sets from two or one generator
calls (``synth._curve``), each point equal to the generator's own run set at
that knob; fig7 calls its generator at every point. fig6 and fig7 score the
masks of their first point only: the selected sets do not move with ``lam``
or ``q``.
"""

from __future__ import annotations

import numpy as np

from .baselines import pairwise_stability
from .divergence import js_stability
from .lists import RunSet
from .synth import (
    ExperimentConfig,
    _curve,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
)

EXPERIMENT_NAMES = ("fig4", "fig5", "fig6", "fig7")


def _scores(rs: RunSet, metric: str) -> dict:
    """The stability score next to the mean pairwise ``metric`` of one run set;
    a partial run set gets only its score as partial rankings."""
    if rs.kind == "partial":
        return {"s_js_partial": js_stability(rs).s_js}
    return {"s_js": js_stability(rs).s_js, f"phi_{metric}": pairwise_stability(rs, metric).phi}


def run_experiment(
    name: str,
    seed: int,
    *,
    t: int = 2000,
    k: int = 600,
    runs: int = 100,
    overlap: int | None = None,
) -> list[dict]:
    """Run one of the presets fig4..fig7; one point per value of its knob.

    fig4: full rankings (k is ignored) against mean Spearman, over
    ``fixed``. fig5: top-k masks against Kuncheva, over ``fixed``. fig6:
    partial lists sharing an ``overlap``-feature core (default 350), over
    the disagreement placement ``lam``. fig7: one agreed top-k set, over the
    rank randomness ``q``. Partial run sets also report the score of their
    masks, and their Kuncheva baseline is taken on the masks.
    """
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}, expected fig4..fig7")
    if overlap is not None and name != "fig6":
        raise ValueError("--overlap only applies to fig6")
    # the generators are looked up here, at call time, so that a rebinding
    # of this module's names (a tracer, a test double) reaches the sweep
    if name == "fig4":
        generate, field, column, metric = gen_ranking_family, "fixed", "i", "spearman"
        k = t
    elif name == "fig5":
        generate, field, column, metric = gen_subset_family, "fixed", "i", "kuncheva"
    elif name == "fig6":
        generate, field, column, metric = gen_overlap_family, "lam", "lambda", "kuncheva"
        overlap = 350 if overlap is None else overlap
    else:
        generate, field, column, metric = gen_rank_shuffle_family, "q", "q", "kuncheva"
    base = ExperimentConfig(t=t, k=k, runs=runs, seed=seed, overlap=overlap)
    if field == "fixed":
        grid = sorted({int(round(x)) for x in np.linspace(0, runs, 11)})
    else:
        grid = [i / 10 for i in range(11)]
    # Each run set stays bound until the next one is built. Freed first, its
    # pages sat at the top of the heap and went back to the OS, to be faulted
    # in again by the next run set (57% more minor page faults over the four
    # presets at the paper shape, with glibc malloc).
    curve, masks = [], {}
    for x, rs in zip(grid, _curve(generate, base, field, grid)):
        if rs.kind == "partial" and not masks:  # the same selected sets at every point
            topk = rs.to_topk()
            masks = {"s_js_topk": js_stability(topk).s_js}
            masks[f"phi_{metric}"] = pairwise_stability(topk, metric).phi
            del topk  # not held for the rest of the curve
        curve.append({column: x, **_scores(rs, metric), **masks})
    return curve
