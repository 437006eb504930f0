"""Kullback-Leibler / Jensen-Shannon divergences and the stability score.

The stability of a run set is one minus its generalized Jensen-Shannon
divergence, normalised by the divergence a completely random generator of
the same shape would attain:

    s_js = 1 - d_js / d_star

so identical lists score 1 and random lists score about 0. All divergences
are reported in nats. A top-k mask is the uniform distribution 1/k on its
selected features, so the divergence of K masks depends only on each
feature's selection count c_f, and ``js_stability`` reads it from those
counts without a probability matrix. Full and partial rankings go through
``js_multi``, which reduces the K x t probabilities feature by feature, in
two compensated passes and O(t) working memory; for masks it is the
oracle the counts form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lists import RunSet
from .probability import normalizer, run_probabilities


class SupportMismatchError(ValueError):
    """KL divergence is infinite: p has mass where q has none."""


def _as_prob_matrix(ps) -> np.ndarray:
    m = np.asarray(ps, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a sequence of probability vectors")
    return m


def kl(p, q) -> float:
    """Kullback-Leibler divergence ``sum_i p_i ln(p_i / q_i)`` in nats."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        raise SupportMismatchError("p has probability mass where q has none")
    return math.fsum(p[mask] * np.log(p[mask] / q[mask]))


def js_pair(p, q) -> float:
    """Jensen-Shannon divergence of two distributions (symmetric, <= ln 2)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if np.array_equal(p, q):
        return 0.0
    m = 0.5 * (p + q)
    return 0.5 * (kl(p, m) + kl(q, m))


def _column_sums(rows, t: int) -> np.ndarray:
    """Kahan-compensated sums of t-long rows, feature by feature."""
    total, carry, y, s = (np.zeros(t) for _ in range(4))
    for row in rows:
        np.subtract(row, carry, out=y)
        np.add(total, y, out=s)
        np.subtract(s, total, out=carry)
        carry -= y
        total, s = s, total
    return total


def js_multi(ps) -> float:
    """Generalized Jensen-Shannon divergence of K distributions.

    Mean KL divergence of each distribution from the entrywise mean;
    equals ``js_pair`` at K = 2, is invariant to input order, and is 0
    exactly when all distributions are identical. Two passes over the rows
    keep only t-long work arrays: Kahan-compensated per-feature sums give
    the mean, then each row's ``p ln(p / mean)`` on its support is
    Kahan-added per feature, and the t per-feature totals are summed
    exactly with ``math.fsum``.
    """
    m = _as_prob_matrix(ps)
    runs, t = m.shape
    if runs < 2:
        raise ValueError(f"need at least 2 distributions, got {runs}")
    if np.all(m == m[0]):
        return 0.0
    mean = _column_sums(m, t) / runs
    terms = (row * np.log(np.divide(row, mean, out=np.ones(t), where=row > 0)) for row in m)
    return math.fsum(_column_sums(terms, t)) / runs


@dataclass(frozen=True)
class StabilityReport:
    """Stability of one run set: divergence, random baseline and score."""

    kind: str
    t: int
    k: int
    runs: int
    d_js: float
    d_star: float
    s_js: float


def _js_masks(run_set: RunSet) -> float:
    """``js_multi`` of K top-k masks, from their selection counts alone.

    Each selecting run puts 1/k on feature f and the mean puts c_f/(Kk), so
    ``d_js = (1/K) sum_f (c_f/k) ln(K/c_f)`` over the features with
    c_f > 0. Every term is >= 0 and exactly 0 when c_f = K; ``log1p`` of
    the exact ratio (K - c_f)/c_f keeps nearly unanimous features accurate,
    and ``math.fsum`` adds the terms.
    """
    counts = run_set.matrix.sum(axis=0, dtype=np.int64)
    c = counts[counts > 0].astype(np.float64)
    return math.fsum(c * np.log1p((run_set.runs - c) / c)) / (run_set.runs * run_set.k)


def js_stability(run_set: RunSet) -> StabilityReport:
    """Stability score of a run set in [0, 1].

    Measures the generalized Jensen-Shannon divergence of the run set's
    lists and normalises it by the random baseline for the run set's
    shape. Top-k masks reduce from their per-feature selection counts;
    full and partial rankings are mapped to their probability vectors and
    reduced by ``js_multi``. Raises ``DegenerateNormalizerError`` when the
    baseline is zero (e.g. topk masks with k = t).
    """
    d_star = normalizer(run_set.kind, run_set.t, run_set.k)
    if run_set.kind == "topk":
        d_js = _js_masks(run_set)
    else:
        d_js = js_multi(run_probabilities(run_set))
    score = 1.0 - d_js / d_star
    # mathematically in [0, 1]; rounding may leave it an ulp outside
    score = min(1.0, max(0.0, score))
    return StabilityReport(
        kind=run_set.kind,
        t=run_set.t,
        k=run_set.k,
        runs=run_set.runs,
        d_js=d_js,
        d_star=d_star,
        s_js=score,
    )
