"""Kullback-Leibler / Jensen-Shannon divergences and the stability score.

The stability of a run set is one minus its generalized Jensen-Shannon
divergence, normalised by the divergence a completely random generator of
the same shape would attain:

    s_js = 1 - d_js / d_star

so identical lists score 1, and random lists score about 0 as K grows
(docs/derivations.md#normalizer). All divergences are in nats. Masks are
scored from their selection counts, rankings through ``js_multi``'s
reduction, ``_js_rows``, which maps a block of rows at a time, so no K x t
float64 matrix is made from a run set, and forms the KL terms of a chunk of
rows at a time in one reused buffer. Caller input to ``kl``, ``js_pair``
and ``js_multi`` is checked once, by ``_distribution``, and the KL term
``p ln(p / q)`` is written once, in ``_kl_terms``, which sets the terms
where p = 0 to 0 by one ``fmax`` instead of a boolean scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lists import RunSet, _array
from .probability import normalizer, run_probabilities

_BLOCK_CELLS = 1 << 20  # cells that ``_js_rows`` reads at a time: 8 MiB of float64
_CHUNK_CELLS = 1 << 16  # cells of KL terms that ``_js_rows`` forms at a time: 512 KiB


class SupportMismatchError(ValueError):
    """KL divergence is infinite: p has mass where q has none."""


def _distribution(p, ndim: int, what: str) -> np.ndarray:
    """``p`` as a float64 array of ``ndim`` dimensions (1: one probability vector, 2: a
    sequence of them) with finite, non-negative entries; ``what`` names it.

    The one place where caller input becomes probabilities. ``lists._array``
    refuses a masked array, ragged nesting, a dtype that is not a real number
    (bool, str, object, complex) and another ``ndim``; NaN, +-inf and
    negative entries raise a ``ValueError`` here, judged by one ``min`` and
    one ``max``. A float64 array is returned as it is, not copied. Sums are
    not checked: a vector need not add up to 1.
    """
    a = _array(p, what, "iuf", ("vectors", "features")[-ndim:])
    low, high = (a.min(), a.max()) if a.size else (0, 0)
    if not (0 <= low and high < np.inf):  # NaN fails both comparisons
        bad = high if 0 <= low else low
        raise ValueError(f"{what} must be finite and non-negative, got {bad}")
    return a.astype(np.float64, copy=False)


def _distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two probability vectors of one length, through ``_distribution``."""
    p, q = _distribution(p, 1, "p"), _distribution(q, 1, "q")
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return p, q


def _kl_terms(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p_i ln(p_i / q_i)`` where p_i > 0, and 0 elsewhere; unchecked input.

    Every entry is divided, into ``out`` when given, and the quotient is
    raised to 1 where p_i = 0 by one ``fmax`` with the 0/1 of ``p == 0``, so
    those terms are ``0 * ln 1 = 0`` (docs/derivations.md#js-rows). ``p`` and
    ``q`` may be rows of one shape or broadcast against each other. Raises
    ``SupportMismatchError`` where p_i > 0 = q_i, which includes a q_i that
    underflowed to 0 (a midpoint ``0.5 * 5e-324``).
    """
    try:
        with np.errstate(divide="raise", invalid="ignore"):  # fmax drops the NaN of a 0/0
            ratio = np.divide(p, q, out=out)
            np.fmax(ratio, p == 0, out=ratio)
    except FloatingPointError:
        raise SupportMismatchError("p has probability mass where q has none") from None
    return np.multiply(p, np.log(ratio, out=ratio), out=ratio)


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


def _js_rows(m: np.ndarray, probabilities=None) -> float:
    """``js_multi`` of K >= 2 unchecked rows, read a block of about ``_BLOCK_CELLS``
    cells at a time, in two Kahan-compensated passes (docs/derivations.md#js-rows).

    ``m`` is the (K, t) float64 matrix of the rows or, when
    ``probabilities`` is given, a matrix that it maps injectively to them:
    ``probabilities(rows)`` returns the float64 rows of the slice ``rows``.
    Rows that all equal the first give 0. Otherwise each block is mapped once
    per pass, or once in all when there is one, and the KL terms are formed
    a chunk of whole rows (at most ``_CHUNK_CELLS`` cells, or one row) at a
    time in one buffer, in O(t) working memory besides the block.
    """
    runs, t = m.shape
    if runs < 2:
        raise ValueError(f"need at least 2 distributions, got {runs}")
    step = max(1, _BLOCK_CELLS // max(1, t))  # empty vectors (t = 0) are one block
    blocks = [slice(start, start + step) for start in range(0, runs, step)]
    if all(np.all(m[block] == m[0]) for block in blocks):
        return 0.0
    probabilities = probabilities or m.__getitem__
    if len(blocks) == 1:  # one block is mapped once, for both passes
        mapped = probabilities(blocks[0])
        probabilities = lambda _: mapped

    mean = _column_sums((row for block in blocks for row in probabilities(block)), t) / runs
    chunk = max(1, _CHUNK_CELLS // max(1, t))
    buffer = np.empty((min(chunk, runs), t))  # a chunk's terms, summed before the next's

    def terms():
        for block in blocks:
            rows = probabilities(block)
            for start in range(0, len(rows), chunk):
                part = rows[start : start + chunk]
                yield from _kl_terms(part, mean, buffer[: len(part)])

    return math.fsum(_column_sums(terms(), t)) / runs


def js_multi(ps) -> float:
    """Generalized Jensen-Shannon divergence of K probability vectors.

    Mean KL divergence of each vector from the entrywise mean; equals
    ``js_pair`` at K = 2 and is invariant to input order, both up to
    rounding (docs/derivations.md#js-rows), and is 0 exactly when all
    vectors are identical. ``ps`` passes ``_distribution`` (the sums are
    not checked) and is reduced by ``_js_rows``.
    """
    return _js_rows(_distribution(ps, 2, "probabilities"))


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
    """``js_multi`` of K top-k masks from their selection counts c_f alone:
    ``(1/(K k)) sum_f c_f ln(K/c_f)``, each log taken as ``log1p((K - c_f)/c_f)``
    (docs/derivations.md#js-masks)."""
    counts = run_set.matrix.sum(axis=0, dtype=np.int64)
    c = counts[counts > 0].astype(np.float64)
    return math.fsum(c * np.log1p((run_set.runs - c) / c)) / (run_set.runs * run_set.k)


def js_stability(run_set: RunSet) -> StabilityReport:
    """Stability score of a run set in [0, 1] (docs/derivations.md#normalizer).

    The generalized Jensen-Shannon divergence of the lists, normalised by
    the random baseline of the run set's shape: masks from their selection
    counts, rankings mapped a block of rows at a time and reduced as in
    ``js_multi``, with no second check. Raises ``DegenerateNormalizerError``
    when the baseline is zero (e.g. topk masks with k = t).
    """
    d_star = normalizer(run_set.kind, run_set.t, run_set.k)
    if run_set.kind == "topk":
        d_js = _js_masks(run_set)
    else:
        d_js = _js_rows(run_set.matrix, lambda rows: run_probabilities(run_set, rows))
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
