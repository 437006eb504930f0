"""Reference computations made apart from stabrank, used to check its outputs.

Nothing here imports stabrank. Every score is computed from the benchmark's
own matrices (one list per row, as stabrank's ``RunSet.matrix``) by a
different route than the program takes:

* s_js from the entropy identity ``d_js = H(mean p) - H(w)`` and
  ``d_star = ln t - H(w)``, where ``w`` are the paper's rank weights (or
  ``1/k`` for masks), since every list of one shape is a permutation of ``w``;
* mean pairwise Spearman from per-feature sums of ranks and squared ranks;
* mean pairwise Kuncheva from per-feature selection counts, using
  ``sum_{i<j} o_ij = sum_f c_f (c_f - 1) / 2``;
* mean pairwise Jaccard from a Gram matrix of the masks built here;
* sqrt-JS distances and the classical-MDS reference from ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Scores are printed with 12 significant digits and reduced in a different
# order than here; 1e-9 is far above both effects (about 1e-12) and far
# below the 1e-6 perturbation the self-test must catch.
SCORE_TOL = 1e-9

_CHUNK_ROWS = 64


def rank_weights(n: int) -> np.ndarray:
    """The paper's weight of ranks 1..n: ``(1 + sum_{m=r}^{n} 1/m) / (2n)``."""
    tail = np.cumsum(1.0 / np.arange(n, 0, -1, dtype=np.float64))[::-1]
    return (1.0 + tail) / (2.0 * n)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -math.fsum(p * np.log(p))


def _support_weights(kind: str, k: int) -> np.ndarray:
    return np.full(k, 1.0 / k) if kind == "topk" else rank_weights(k)


def mean_distribution(kind: str, k: int, matrix: np.ndarray) -> np.ndarray:
    """Entrywise mean of the runs' probability vectors, built in row chunks."""
    runs, t = matrix.shape
    if kind == "topk":
        return matrix.sum(axis=0, dtype=np.int64) / (runs * float(k))
    table = np.concatenate(([0.0], rank_weights(k)))  # rank 0 = unranked
    total = np.zeros(t)
    for start in range(0, runs, _CHUNK_ROWS):
        total += table[matrix[start : start + _CHUNK_ROWS]].sum(axis=0)
    return total / runs


def sjs(kind: str, k: int, matrix: np.ndarray) -> dict:
    """``d_js``, ``d_star`` and ``s_js`` of a run set from the entropy identity."""
    t = matrix.shape[1]
    h_w = _entropy(_support_weights(kind, k))
    d_js = max(0.0, _entropy(mean_distribution(kind, k, matrix)) - h_w)
    d_star = math.log(t) - h_w
    return {"d_js": d_js, "d_star": d_star, "s_js": min(1.0, max(0.0, 1.0 - d_js / d_star))}


def _pairs(runs: int) -> int:
    return runs * (runs - 1) // 2


def spearman(matrix: np.ndarray) -> float:
    """Mean pairwise Spearman correlation from per-feature rank sums."""
    runs, t = matrix.shape
    s1 = matrix.sum(axis=0, dtype=np.int64)
    s2 = (matrix * matrix).sum(axis=0, dtype=np.int64)
    # sum_{i<j} sum_f (r_if - r_jf)^2, exactly, in Python integers
    d2 = runs * sum(int(v) for v in s2) - sum(int(v) * int(v) for v in s1)
    return 1.0 - 6.0 * d2 / (_pairs(runs) * t * (t * t - 1.0))


def kuncheva(k: int, masks: np.ndarray) -> float:
    """Mean pairwise Kuncheva index from per-feature selection counts."""
    runs, t = masks.shape
    counts = masks.sum(axis=0, dtype=np.int64)
    overlap_total = sum(int(c) * (int(c) - 1) // 2 for c in counts)
    mean_overlap = overlap_total / _pairs(runs)
    return (mean_overlap * t - k * k) / (k * (t - k))


def jaccard(k: int, masks: np.ndarray) -> float:
    """Mean pairwise Jaccard index from a Gram matrix of the masks."""
    x = masks.astype(np.float32)  # overlaps <= t < 2**24 stay exact
    gram = (x @ x.T).astype(np.float64)
    iu = np.triu_indices(masks.shape[0], 1)
    overlap = gram[iu]
    return math.fsum(overlap / (2.0 * k - overlap)) / overlap.size


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= SCORE_TOL


# --- run-set files ---------------------------------------------------------

_HEADER = re.compile(r"#stabrank v1 kind=(\w+) t=(\d+) k=(\d+) K=(\d+)\n")


def file_matches(text: str, kind: str, k: int, matrix: np.ndarray) -> bool:
    """True when a run-set file holds exactly this header and matrix."""
    match = _HEADER.match(text)
    runs, t = matrix.shape
    if not match or match.groups() != (kind, str(t), str(k), str(runs)):
        return False
    body = text[match.end() :]
    if not body.endswith("\n") or body.count("\n") != t:
        return False
    cells = body[:-1].replace("\n", ",").split(",")
    if len(cells) != runs * t or not all(c.isdigit() for c in cells):
        return False
    values = np.array(cells).astype(np.int64).reshape(t, runs)
    return bool(np.array_equal(values.T, matrix))


# --- MDS -------------------------------------------------------------------


def probabilities(kind: str, k: int, matrix: np.ndarray) -> np.ndarray:
    if kind == "topk":
        return matrix / float(k)
    return np.concatenate(([0.0], rank_weights(k)))[matrix]


def sqrt_js_matrix(points: np.ndarray) -> np.ndarray:
    """``sqrt(JS)`` between all rows, with ``JS(p, q) = H(m) - (H(p) + H(q)) / 2``."""
    n = points.shape[0]

    def row_entropy(p):
        return -np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0), axis=-1)

    h = row_entropy(points)
    d = np.zeros((n, n))
    for i in range(n - 1):
        mid = 0.5 * (points[i] + points[i + 1 :])
        js = row_entropy(mid) - 0.5 * (h[i] + h[i + 1 :])
        d[i, i + 1 :] = d[i + 1 :, i] = np.sqrt(np.maximum(js, 0.0))
    return d


class MdsReference:
    """Top-2 classical-MDS eigenpairs from ``eigh`` and the check tolerances.

    stabrank's solver stops once its eigenvector residual is at most
    ``1e-8 * (lambda_1 + s)``, where the shift ``s`` is at most the row-sum
    norm ``||B||_inf``. By Davis-Kahan an eigenvector is then off by at most
    ``eps_v = 2e-8 * ||B||_inf / gap``, with ``gap = min(l1 - l2, l2 - l3)``;
    a coordinate ``v * sqrt(l)`` by ``eps_v * sqrt(l1)``, and a 2D distance
    by twice that in each of two axes. The tolerances below take a factor 10
    on top, plus 1e-9 for the 12 printed digits.
    """

    def __init__(self, distances: np.ndarray):
        n = distances.shape[0]
        centred = np.eye(n) - 1.0 / n
        b = -0.5 * centred @ (distances**2) @ centred
        b = 0.5 * (b + b.T)
        values, vectors = np.linalg.eigh(b)
        order = np.argsort(values)[::-1]
        self.eigvals = values[order[:3]]
        top = vectors[:, order[:2]]
        self.coords = top * np.sqrt(np.maximum(self.eigvals[:2], 0.0))
        l1, l2, l3 = self.eigvals
        norm = float(np.max(np.sum(np.abs(b), axis=1)))
        self.gap = float(min(l1 - l2, l2 - l3))
        eps_v = 2e-8 * norm / self.gap
        self.eig_tol = 10 * 2e-8 * norm + 1e-9 * l1
        self.dist_tol = 10 * 4 * eps_v * math.sqrt(l1) + 1e-9

    def accepts(self, coords: np.ndarray) -> bool:
        """Sign-free check of a 2D embedding against the reference."""
        if coords.shape != self.coords.shape or not np.all(np.isfinite(coords)):
            return False
        axis_power = np.sum(coords**2, axis=0)  # equals l1, l2 in order
        if np.any(np.abs(axis_power - self.eigvals[:2]) > self.eig_tol):
            return False
        return bool(np.max(np.abs(_pairwise(coords) - _pairwise(self.coords))) <= self.dist_tol)


def _pairwise(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))
