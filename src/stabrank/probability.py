"""The rank-to-probability map and the random-baseline divergence.

``run_probabilities`` maps every row of a run set to a probability
distribution over its t features:

* full ranking: ``p_i = (1/2t) * (1 + sum_{m=rank_i}^{t} 1/m)`` -- a smooth
  weight that decreases with rank and sums to one by construction.
* partial ranking: same form with k in place of t on the ranked features,
  0 elsewhere.
* top-k mask: uniform ``1/k`` on the selected features, 0 elsewhere.

The random baseline ``normalizer(kind, t, k)`` is the divergence a
completely random generator attains against the uniform mean distribution;
it depends only on the shape (kind, t, k) and normalises the stability
score. Natural logarithms throughout; ``0 * ln 0`` is taken as 0.
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
    """Probability assigned to ranks 1..n of an n-long ranked list.

    ``w[r-1] = (1/2n) * (1 + H_n - H_{r-1})`` with H the harmonic numbers.
    The array is cached per n and frozen (initialise once, read many).
    """
    h = np.cumsum(1.0 / np.arange(1, n + 1))
    tail = h[-1] - np.concatenate(([0.0], h[:-1]))  # sum_{m=r}^{n} 1/m
    w = (1.0 + tail) / (2.0 * n)
    w.setflags(write=False)
    return w


def run_probabilities(run_set: RunSet) -> np.ndarray:
    """Map every row of a run set; returns a (K, t) row-stochastic matrix.

    Ranks index a table of their weights through ``lists._lookup``.
    """
    if run_set.kind == "topk":
        return run_set.matrix / float(run_set.k)
    # rank 0 (unranked) reads 0; full rankings have k = t and no zeros
    return _lookup(np.concatenate(([0.0], _rank_weights(run_set.k))), run_set.matrix)


def normalizer(kind: str, t: int, k: int | None = None) -> float:
    """Divergence attained by a completely random generator of this shape.

    Closed form ``ln(t/k)`` for the topk kind; otherwise the exact sum
    ``sum_r w_r * ln(w_r * t)`` over the kind's nonzero rank weights.

    Raises ``DegenerateNormalizerError`` when the value is zero (topk with
    k = t, or a single-feature ranking), since the stability score divides
    by it. A ``t`` or ``k`` that is not an integer raises ``TypeError``, a
    shape that ``lists._shape_problem`` refuses ``ValueError``.
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
