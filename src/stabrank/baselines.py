"""Pairwise-similarity stability: Spearman, Kuncheva and Jaccard baselines.

The classical recipe reduces a run set to a scalar by averaging a
similarity metric over all unordered pairs of lists:

    phi = 2 / (K(K-1)) * sum_{i<j} S(list_i, list_j)

Spearman's rank correlation applies to full rankings; the Kuncheva index
and the Jaccard index apply to equal-size top-k masks. Values are computed
exactly as defined: Spearman and Kuncheva go negative for strongly
discordant inputs and are deliberately not clamped. Mean Spearman and
Kuncheva are read from column sums (the frequency view of Nogueira,
Sechidis & Brown, JMLR 2018); Jaccard needs the pairwise overlaps, which
come from the Gram matrix of the lists. For masks over fewer than 2**24
features that Gram is multiplied in float32: every partial sum is then an
integer below 2**24, which float32 holds exactly. Rankings, and masks
with more features, multiply in float64. The Gram is accumulated over
blocks of features, so its float copy of the lists stays one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lists import RunSet, _int64, row_violations


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


def _plain(x, kind: str) -> np.ndarray:
    """One list as an int64 vector, checked against its kind.

    ``full`` needs a permutation of 1..t and ``topk`` only 0/1 entries;
    anything else raises ``ValueError`` with ``row_violations``' message,
    checked in bulk. An empty list or an all-zero mask passes, so that each
    metric raises its own degenerate-shape error.
    """
    a = _int64(x)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-dimensional list, got shape {a.shape}")
    n = a.shape[0] if kind == "full" else int(np.count_nonzero(a))
    problem = row_violations(kind, a[np.newaxis], n)[0] if n else None
    if problem is not None:
        raise ValueError(f"not a {'full ranking' if kind == 'full' else '0/1 mask'}: {problem}")
    return a


def spearman(first, second) -> float:
    """Spearman's rank correlation between two full rankings (plain sequences).

    ``1 - 6 * sum (r_i - r'_i)^2 / (t (t^2 - 1))``: 1 for identical
    rankings, -1 for exactly reversed ones. Requires t >= 2.
    """
    a, b = _plain(first, "full"), _plain(second, "full")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    t = a.shape[0]
    if t < 2:
        raise ValueError("Spearman correlation needs at least 2 features")
    d2 = int(np.sum((a - b) ** 2))
    return 1.0 - 6.0 * d2 / (t * (t * t - 1.0))


def kuncheva(first, second) -> float:
    """Chance-corrected overlap of two equal-size 0/1 selection masks.

    ``(o*t - k^2) / (k * (t - k))`` with o the intersection size: 1 only
    for identical masks, about 0 for independent draws, negative when the
    overlap falls below the k^2/t chance level. Undefined at k = 0 or
    k = t (degenerate denominator).
    """
    a, b = _plain(first, "topk"), _plain(second, "topk")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    t = a.shape[0]
    ka, kb = int(a.sum()), int(b.sum())
    if ka != kb:
        raise ValueError(f"masks select different counts: {ka} vs {kb}")
    k = ka
    if k == 0 or k == t:
        raise ValueError(f"Kuncheva index is undefined for k={k} of t={t}")
    o = int(np.sum(a & b))
    return (o * t - k * k) / (k * (t - k))


def jaccard(first, second) -> float:
    """Intersection over union of the selected features, in [0, 1]."""
    a, b = _plain(first, "topk"), _plain(second, "topk")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
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
    t, k = run_set.t, run_set.k
    if metric == "spearman" and t < 2:
        raise ValueError("Spearman correlation needs at least 2 features")
    if metric == "kuncheva" and k == t:
        raise ValueError(f"Kuncheva index is undefined for k={k} of t={t}")


def pairwise_stability(run_set: RunSet, metric: str) -> PairwiseStability:
    """Average a similarity metric over all P = K(K-1)/2 unordered pairs.

    Spearman and Kuncheva are exact integer sums over columns, rounded once:
    all pairs' squared rank differences sum to ``sum_f (K S2_f - S1_f^2)``
    (S1_f, S2_f: the sums of r and r^2 over feature f) and their overlaps
    to ``sum_f c_f (c_f - 1) / 2`` (c_f: feature f's selection count).
    Jaccard averages the ``similarity_matrix`` pairs.
    """
    _check_metric(run_set, metric)
    runs, t, k = run_set.runs, run_set.t, run_set.k
    if metric == "jaccard":
        values = similarity_matrix(run_set, metric)[np.triu_indices(runs, 1)]
        return PairwiseStability(metric_name=metric, phi=math.fsum(values) / len(values))
    pairs = runs * (runs - 1) // 2
    # int64 sums: the stored dtype may be as narrow as int8, and Σr² reaches
    # K·t², which einsum would otherwise accumulate in that dtype
    s1 = run_set.matrix.sum(axis=0, dtype=np.int64)
    if metric == "spearman":
        s2 = np.einsum("ij,ij->j", run_set.matrix, run_set.matrix, dtype=np.int64)
        scale = pairs * t * (t * t - 1)
        phi = (scale - 6 * sum((runs * s2 - s1 * s1).tolist())) / scale
    else:
        overlaps = sum((s1 * (s1 - 1) // 2).tolist())
        phi = (t * overlaps - pairs * k * k) / (pairs * k * (t - k))
    return PairwiseStability(metric_name=metric, phi=phi)


def similarity_matrix(run_set: RunSet, metric: str) -> np.ndarray:
    """The K x K matrix of a similarity metric between every two lists.

    ``metric`` is one of ``spearman`` (full rankings only), ``kuncheva`` or
    ``jaccard`` (topk masks only); a kind mismatch raises
    ``MetricMismatchError``. Every entry is computed from the Gram matrix of
    the lists, multiplied in float32 for masks over fewer than 2**24
    features (where it is exact) and in float64 otherwise. Each entry
    equals the scalar metric on that pair exactly, except for full rankings
    with t(t+1)(2t+1)/6 >= 2**53 (t above about 300,000), where the Gram
    rounds: at t = 10**6 entries agree with ``spearman`` within 1e-13.
    """
    _check_metric(run_set, metric)
    gram = _gram(run_set.kind, run_set.matrix).astype(np.float64, copy=False)
    t, k = run_set.t, run_set.k
    if metric == "spearman":
        sq = np.diag(gram)
        d2 = sq[:, None] + sq[None, :] - 2.0 * gram
        return 1.0 - 6.0 * d2 / (t * (t * t - 1.0))
    if metric == "kuncheva":
        return (gram * t - k * k) / (k * (t - k))
    return gram / (2.0 * k - gram)


def _gram(kind: str, m: np.ndarray) -> np.ndarray:
    """The K x K products of the ``kind`` lists in the rows of ``m``, exact.

    The rows must be valid lists. A mask product counts shared features, so
    every partial sum is an integer of at most t, and float32 holds it
    exactly below 2**24 features. Rank products outgrow float32 and take
    float64, exact while they stay below 2**53. The lists are cast and multiplied in blocks of whole features of
    at most ``_GRAM_BLOCK`` elements (one feature when K is larger), so the
    float copy holds one block at a time; the block products add up to the
    same exact integers.
    """
    dtype = np.float32 if kind == "topk" and m.shape[1] < _FLOAT32_EXACT else np.float64
    step = max(1, _GRAM_BLOCK // m.shape[0])
    gram = np.zeros((m.shape[0], m.shape[0]), dtype)
    for start in range(0, m.shape[1], step):
        block = m[:, start : start + step].astype(dtype)
        gram += block @ block.T
        del block  # free it before the next block is cast
    return gram
