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
``js_multi``'s reduction, which takes the K x t probabilities feature by
feature, in two compensated passes and O(t) working memory; for masks
``js_multi`` is the oracle the counts form is tested against.

Caller input to ``kl``, ``js_pair`` and ``js_multi`` becomes float64
probability vectors in one place, ``_distribution``, on top of the array
rule ``lists._array``, and the KL term
``p ln(p / q)`` is written once, in ``_kl_terms``. The probabilities that
``js_stability`` maps from a run set are not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lists import RunSet, _array
from .probability import normalizer, run_probabilities


class SupportMismatchError(ValueError):
    """KL divergence is infinite: p has mass where q has none."""


def _distribution(p, ndim: int) -> np.ndarray:
    """``p`` as a float64 array of ``ndim`` dimensions with finite, non-negative
    entries: one probability vector (``ndim`` 1) or a sequence of them (2).

    The one place where caller input becomes probabilities. The array comes
    from ``lists._array``, which refuses a masked array, ragged nesting and
    a dtype that is not a real number (bool, str, object, complex); another
    ``ndim``, NaN, +-inf and negative entries each raise a ``ValueError``
    here. One ``min`` and one ``max`` judge the entries, so no temporary the
    size of the input is made, and a float64 array is returned as it is, not
    copied. Sums are not checked: a vector need not add up to 1.
    """
    a = _array(p, "probabilities", "iuf",
               ragged="ragged nesting: the entries are not one rectangular array")
    if a.ndim != ndim:
        vectors = "a sequence of probability vectors" if ndim == 2 else "a probability vector"
        raise ValueError(f"expected {vectors}")
    low, high = (a.min(), a.max()) if a.size else (0, 0)
    if not (0 <= low and high < np.inf):  # NaN fails both comparisons
        bad = high if 0 <= low else low
        raise ValueError(f"probabilities must be finite and non-negative, got {bad}")
    return a.astype(np.float64, copy=False)


def _distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two probability vectors of one length, through ``_distribution``."""
    p, q = _distribution(p, 1), _distribution(q, 1)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return p, q


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``p_i ln(p_i / q_i)`` where p_i > 0, and 0 elsewhere; unchecked input.

    Raises ``SupportMismatchError`` where p_i > 0 = q_i, which includes a
    q_i that underflowed to 0 (a midpoint ``0.5 * 5e-324``).
    """
    try:
        with np.errstate(divide="raise"):
            ratio = np.divide(p, q, out=np.ones(p.shape), where=p > 0)
    except FloatingPointError:
        raise SupportMismatchError("p has probability mass where q has none") from None
    return p * np.log(ratio)


def kl(p, q) -> float:
    """Kullback-Leibler divergence ``sum_i p_i ln(p_i / q_i)`` in nats.

    ``p`` and ``q`` pass ``_distribution``; their sums are not checked.
    """
    p, q = _distributions(p, q)
    return math.fsum(_kl_terms(p, q).tolist())


def js_pair(p, q) -> float:
    """Jensen-Shannon divergence of two probability vectors, in nats.

    Symmetric, 0 for identical vectors, and at most ln 2 when both are
    distributions; ``_distribution`` checks their entries but not that they
    sum to 1. Each half is the exact sum of its KL terms against the midpoint.
    """
    p, q = _distributions(p, q)
    if np.array_equal(p, q):
        return 0.0
    m = 0.5 * (p + q)
    return 0.5 * (math.fsum(_kl_terms(p, m).tolist()) + math.fsum(_kl_terms(q, m).tolist()))


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


def _js_rows(m: np.ndarray) -> float:
    """``js_multi`` of the rows of an unchecked (K, t) float64 matrix, K >= 2.

    Two passes over the rows keep only t-long work arrays: Kahan-compensated
    per-feature sums give the mean, then each row's KL terms against it are
    Kahan-added per feature, and the t per-feature totals are summed exactly
    with ``math.fsum``.
    """
    runs, t = m.shape
    if runs < 2:
        raise ValueError(f"need at least 2 distributions, got {runs}")
    if np.all(m == m[0]):
        return 0.0
    mean = _column_sums(m, t) / runs
    return math.fsum(_column_sums((_kl_terms(row, mean) for row in m), t)) / runs


def js_multi(ps) -> float:
    """Generalized Jensen-Shannon divergence of K probability vectors.

    Mean KL divergence of each vector from the entrywise mean; equals
    ``js_pair`` at K = 2, is invariant to input order, and is 0 exactly
    when all vectors are identical. ``ps`` passes ``_distribution`` (the
    sums are not checked) and is reduced by ``_js_rows`` in O(t) working
    memory.
    """
    return _js_rows(_distribution(ps, 2))


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
    reduced as in ``js_multi``, with no second check of those vectors.
    Raises ``DegenerateNormalizerError`` when the baseline is zero (e.g.
    topk masks with k = t).
    """
    d_star = normalizer(run_set.kind, run_set.t, run_set.k)
    if run_set.kind == "topk":
        d_js = _js_masks(run_set)
    else:
        d_js = _js_rows(run_probabilities(run_set))
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
