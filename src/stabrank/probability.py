"""The rank-to-probability map and the random-baseline divergence.

``run_probabilities`` maps every row of a run set to a probability
distribution over its t features: a ranked feature gets the weight of its
rank among the n ranked ones (n = t for full rankings, k for partial ones),
a selected feature of a top-k mask gets ``1/k``, and every other feature 0.
The random baseline ``normalizer(kind, t, k)`` depends only on the shape and
normalises the stability score. Natural logarithms throughout; ``0 * ln 0``
is taken as 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lists import RunSet, _exact_int, _lookup, _shape_problem


class DegenerateNormalizerError(ValueError):
    """The random-baseline divergence is zero, so stability is undefined."""


@lru_cache(maxsize=64)
def _rank_weights(n: int) -> np.ndarray:
    """Probability of ranks 1..n of an n-long ranked list, cached per n and frozen:
    ``w[r-1] = (1/2n) * (1 + H_n - H_{r-1})``, H the harmonic numbers
    (docs/derivations.md#rank-weights)."""
    h = np.cumsum(1.0 / np.arange(1, n + 1))
    tail = h[-1] - np.concatenate(([0.0], h[:-1]))  # sum_{m=r}^{n} 1/m
    w = (1.0 + tail) / (2.0 * n)
    w.setflags(write=False)
    return w


def run_probabilities(run_set: RunSet, rows: slice | None = None) -> np.ndarray:
    """Map the rows of a run set to probability vectors, one per row.

    Returns a new row-stochastic float64 matrix of shape (K, t) or, given the
    private ``rows`` slice, of those rows, bitwise equal to them in the whole
    map. Ranks and mask entries index a table of their weights through
    ``lists._lookup``.
    """
    weights = [1.0 / run_set.k] if run_set.kind == "topk" else _rank_weights(run_set.k)
    m = run_set.matrix if rows is None else run_set.matrix[rows]
    # 0 (unselected, unranked) reads 0; full rankings have k = t and no zeros
    return _lookup(np.concatenate(([0.0], weights)), m)


def normalizer(kind: str, t: int, k: int | None = None) -> float:
    """Divergence attained by a completely random generator of this shape: ``ln(t/k)``
    for masks, ``sum_r w_r ln(w_r t)`` over the rank weights otherwise
    (docs/derivations.md#normalizer).

    Raises ``DegenerateNormalizerError`` when the value is zero (topk with
    k = t, or a single-feature ranking). A ``t`` or ``k`` that is not an
    integer raises ``TypeError``; an omitted ``k`` for partial or topk, or a
    shape that ``lists._shape_problem`` refuses, ``ValueError``.
    """
    t = _exact_int(t, "t")
    if k is None and kind in ("partial", "topk"):
        raise ValueError(f"{kind} kind requires k")
    k = t if k is None else _exact_int(k, "k")
    if problem := _shape_problem(kind, t, k):
        raise ValueError(problem)

    if kind == "topk":
        value = math.log(t) - math.log(k)
    else:
        w = _rank_weights(k)
        value = math.fsum(w * np.log(w * t))
    if value <= 0.0:
        raise DegenerateNormalizerError(
            f"random-baseline divergence is 0 for kind={kind}, t={t}, k={k}; "
            "stability is undefined"
        )
    return value
