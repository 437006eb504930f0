"""Pairwise-similarity stability: Spearman, Kuncheva and Jaccard baselines.

The classical recipe reduces a run set to a scalar by averaging a
similarity metric over all unordered pairs of lists:

    phi = 2 / (K(K-1)) * sum_{i<j} S(list_i, list_j)

Spearman's rank correlation applies to full rankings; the Kuncheva index
and the Jaccard index apply to equal-size top-k masks. Values are computed
exactly as defined: Spearman and Kuncheva go negative for strongly
discordant inputs and are deliberately not clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lists import RunSet, _integers, row_violations


class MetricMismatchError(ValueError):
    """The requested similarity metric does not apply to this list kind."""


# masks over fewer features than this multiply their Gram exactly in float32
_FLOAT32_EXACT = 2**24
# elements of the float copy that _gram casts and multiplies at a time
_GRAM_BLOCK = 1 << 22

METRIC_KINDS = {
    "spearman": "full",
    "kuncheva": "topk",
    "jaccard": "topk",
}


def _plain(x, kind: str, what: str) -> np.ndarray:
    """One list as an int64 vector, so no metric wraps, checked against its kind.

    The list passes ``lists._integers`` as 1-D, and every refusal names it by
    ``what``. ``full`` needs a permutation of 1..t and ``topk`` only 0/1
    entries; anything else raises ``ValueError`` with ``row_violations``'
    message. An empty list or an all-zero mask passes, so that each metric
    raises its own degenerate-shape error.
    """
    a = _integers(x, what, ("features",)).astype(np.int64, copy=False)
    n = a.shape[0] if kind == "full" else int(np.count_nonzero(a))
    problem = row_violations(kind, a[np.newaxis], n)[0] if n else None
    if problem is not None:
        noun = "full ranking" if kind == "full" else "0/1 mask"
        raise ValueError(f"{what} is not a {noun}: {problem}")
    return a


def _pair(first, second, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Two lists of ``kind`` as ``_plain`` vectors of one length; else ``ValueError``."""
    a, b = _plain(first, kind, "first list"), _plain(second, kind, "second list")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def _check_domain(metric: str, t: int, k: int) -> None:
    """Raise ``ValueError`` where ``metric`` is undefined for t features with k selected."""
    if metric == "spearman" and t < 2:
        raise ValueError("Spearman correlation needs at least 2 features")
    if metric == "kuncheva" and k in (0, t):
        raise ValueError(f"Kuncheva index is undefined for k={k} of t={t}")


def spearman(first, second) -> float:
    """Spearman's rank correlation between two full rankings (plain sequences).

    ``1 - 6 * sum (r_i - r'_i)^2 / (t (t^2 - 1))``: 1 for identical
    rankings, -1 for exactly reversed ones. Requires t >= 2.
    """
    a, b = _pair(first, second, "full")
    t = a.shape[0]
    _check_domain("spearman", t, t)
    d2 = int(np.sum((a - b) ** 2))
    return 1.0 - 6.0 * d2 / (t * (t * t - 1.0))


def kuncheva(first, second) -> float:
    """Chance-corrected overlap of two equal-size 0/1 selection masks.

    ``(o*t - k^2) / (k * (t - k))`` with o the intersection size: 1 only
    for identical masks, about 0 for independent draws, negative when the
    overlap falls below the k^2/t chance level. Undefined at k = 0 or
    k = t (degenerate denominator).
    """
    a, b = _pair(first, second, "topk")
    t = a.shape[0]
    k, kb = int(a.sum()), int(b.sum())
    if k != kb:
        raise ValueError(f"masks select different counts: {k} vs {kb}")
    _check_domain("kuncheva", t, k)
    o = int(np.sum(a & b))
    return (o * t - k * k) / (k * (t - k))


def jaccard(first, second) -> float:
    """Intersection over union of the selected features, in [0, 1]."""
    a, b = _pair(first, second, "topk")
    o = int(np.sum(a & b))
    union = int(np.sum(a | b))
    if union == 0:
        raise ValueError("Jaccard index is undefined for two empty masks")
    return o / union


@dataclass(frozen=True)
class PairwiseStability:
    """Mean pairwise similarity over a run set."""

    metric_name: str
    phi: float


def _check_metric(run_set: RunSet, metric: str) -> None:
    """Raise unless ``metric`` is known and defined for this run set."""
    if metric not in METRIC_KINDS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {sorted(METRIC_KINDS)}")
    required = METRIC_KINDS[metric]
    if run_set.kind != required:
        raise MetricMismatchError(
            f"metric {metric!r} applies to {required} run sets, got {run_set.kind!r}"
        )
    _check_domain(metric, run_set.t, run_set.k)


def pairwise_stability(run_set: RunSet, metric: str) -> PairwiseStability:
    """Average a similarity metric over all P = K(K-1)/2 unordered pairs.

    Spearman and Kuncheva are exact integer sums over columns, rounded once,
    and Spearman needs only the rank sums (docs/derivations.md#column-sums);
    Jaccard averages the ``similarity_matrix`` pairs.
    """
    _check_metric(run_set, metric)
    runs, t, k = run_set.runs, run_set.t, run_set.k
    if metric == "jaccard":
        values = similarity_matrix(run_set, metric)[np.triu_indices(runs, 1)]
        return PairwiseStability(metric_name=metric, phi=math.fsum(values) / len(values))
    pairs = runs * (runs - 1) // 2
    s1 = run_set.matrix.sum(axis=0, dtype=np.int64)  # int64: the stored dtype may be int8
    if metric == "spearman":
        # the sum of all squared ranks: each row is a permutation of 1..t
        squares = runs * t * (t + 1) * (2 * t + 1) // 6
        scale = pairs * t * (t * t - 1)
        phi = (scale - 6 * (runs * squares - sum((s1 * s1).tolist()))) / scale
    else:
        overlaps = sum((s1 * (s1 - 1) // 2).tolist())
        phi = (t * overlaps - pairs * k * k) / (pairs * k * (t - k))
    return PairwiseStability(metric_name=metric, phi=phi)


def similarity_matrix(run_set: RunSet, metric: str) -> np.ndarray:
    """The K x K matrix of a similarity metric between every two lists.

    ``metric`` is one of ``spearman`` (full rankings only), ``kuncheva`` or
    ``jaccard`` (topk masks only); a kind mismatch raises
    ``MetricMismatchError``. Every entry comes from the Gram matrix of the
    lists and equals the scalar metric on that pair exactly, except for full
    rankings past about t = 300,000 (docs/derivations.md#gram-exact).
    """
    _check_metric(run_set, metric)
    gram = _gram(run_set.kind, run_set.matrix)
    t, k = run_set.t, run_set.k
    if metric == "spearman":
        sq = np.diag(gram)
        d2 = sq[:, None] + sq[None, :] - 2.0 * gram
        return 1.0 - 6.0 * d2 / (t * (t * t - 1.0))
    if metric == "kuncheva":
        return (gram * t - k * k) / (k * (t - k))
    return gram / (2.0 * k - gram)


def _distinct_rows(kind: str, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique``'s ``(index, inverse)`` of the rows of ``m``: ``m[index]`` are its
    distinct rows and ``m[index][inverse]`` is ``m``.

    Only masks are searched, in one sort of their rows packed 8 features to
    a byte; rankings count as distinct, ``index`` and ``inverse`` both
    ``arange(K)`` (docs/derivations.md#gram-exact).
    """
    if kind != "topk":
        identity = np.arange(len(m))
        return identity, identity
    keys = np.packbits(m, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


def _gram(kind: str, m: np.ndarray) -> np.ndarray:
    """The K x K products of the valid ``kind`` lists in the rows of ``m``, in float64.

    Of masks, only the distinct rows (``_distinct_rows``) are multiplied,
    and their products gathered back to K x K; rankings are multiplied as
    given. Masks below ``_FLOAT32_EXACT`` features
    multiply in float32, everything else in float64, each exact within its
    bound (docs/derivations.md#gram-exact). The lists are cast and
    multiplied in blocks of whole features of at most ``_GRAM_BLOCK``
    elements (one feature when K is larger), so the float copy holds one
    block at a time.
    """
    dtype = np.float32 if kind == "topk" and m.shape[1] < _FLOAT32_EXACT else np.float64
    index, inverse = _distinct_rows(kind, m)
    rows = slice(None) if len(index) == len(m) else index  # all distinct: no gather
    step = max(1, _GRAM_BLOCK // len(index))
    gram = np.zeros((len(index), len(index)), dtype)
    for start in range(0, m.shape[1], step):
        block = m[rows, start : start + step].astype(dtype)
        gram += block @ block.T
        del block  # free it before the next block is cast
    if rows is index:
        gram = gram[np.ix_(inverse, inverse)]
    return gram.astype(np.float64, copy=False)
