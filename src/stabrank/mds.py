"""Visual stability analysis: pairwise list distances + classical MDS.

Every list is a point in feature space; plotting the points of several
algorithms in 2D makes stability visible (tight cluster = stable, scatter
= random). The default distance is the square root of the pairwise
Jensen-Shannon divergence between the lists' probability vectors, which is
a true metric and keeps the embedding well-posed. Top-k masks read it in
closed form from the overlaps in the Gram matrix of all lists; rankings
take one ``js_pair`` call per pair. ``1 - similarity`` of any pairwise
baseline is available as an alternative, flagged as possibly non-metric,
and reads the same Gram matrix.

The projection is classical (Torgerson) MDS: double-center the squared
distances and take the top-2 eigenpairs from ``numpy.linalg.eigh``.
Negative eigenvalues are clamped to zero. Each axis's sign is fixed by
making the largest-magnitude entry of its eigenvector positive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baselines import METRIC_KINDS, _gram, similarity_matrix
from .divergence import js_pair
from .lists import RunSet, _array, _exact_int
from .probability import run_probabilities


class MdsConvergenceError(RuntimeError):
    """The embedding is undefined: a non-finite centred matrix or a failed eigensolve."""


DISTANCES = ("sqrt-js", *(f"one-minus-{m}" for m in METRIC_KINDS))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative distances with per-point (label, run) tags.

    ``d`` passes ``lists._array`` as integers or floats and is kept as a
    read-only float64 copy; NaN is refused and ``inf`` kept
    (``classical_mds`` reports it). ``labels`` holds one (label, run) pair
    per point: each label a ``str`` and each run tag an exact integer;
    neither is coerced.
    """

    d: np.ndarray
    labels: tuple[tuple[str, int], ...]

    def __post_init__(self):
        # a copy of its own: the rule does not copy, and the copy is frozen below
        d = _array(self.d, "distances", "iuf").astype(np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if d.shape[0] != len(self.labels):
            raise ValueError("one label per point required")
        if np.isnan(d).any():
            raise ValueError("distance matrix must not contain NaN")
        if not np.allclose(d, d.T, rtol=0, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        for pair in self.labels:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise TypeError(f"labels must be (label, run) pairs, got {pair!r}")
            if not isinstance(pair[0], str):
                raise TypeError(f"label must be a str, got {pair[0]!r}")
        labels = tuple((label, _exact_int(run, "run")) for label, run in self.labels)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.d.shape[0]


def _non_negative(value) -> bool:
    """Whether ``value`` is a finite, non-negative real number (not a bool)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and value >= 0


@dataclass(frozen=True, eq=False)
class Embedding:
    """2D coordinates, the retained (clamped) eigenvalues and the stress.

    ``coords`` must pass ``lists._array`` as integers or floats and be an
    (n, 2) array of finite values; it is kept as a read-only float64 copy.
    ``eigvals`` must be two finite, non-negative numbers and ``stress`` one;
    both are kept as floats. Anything else raises ``ValueError`` naming the
    field.
    """

    coords: np.ndarray
    eigvals: tuple[float, float]
    stress: float

    def __post_init__(self):
        # a copy of its own: the rule does not copy, and the copy is frozen below
        coords = _array(self.coords, "coords", "iuf").astype(np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must be an (n, 2) array, got shape {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        eigvals = self.eigvals
        if not (isinstance(eigvals, (tuple, list, np.ndarray)) and len(eigvals) == 2
                and all(map(_non_negative, eigvals))):
            raise ValueError(f"eigvals must be two finite, non-negative numbers, got {eigvals!r}")
        object.__setattr__(self, "eigvals", (float(eigvals[0]), float(eigvals[1])))
        if not _non_negative(self.stress):
            raise ValueError(f"stress must be a finite, non-negative number, got {self.stress!r}")
        object.__setattr__(self, "stress", float(self.stress))


def distance_matrix(
    labeled_run_sets: Sequence[tuple[str, RunSet]], distance: str = "sqrt-js"
) -> DistanceMatrix:
    """Pairwise distances between all lists of several labeled run sets.

    All run sets must share kind, t and k. With the default ``sqrt-js``
    distance, identical lists sit at 0 and disjoint masks at sqrt(ln 2).
    Two masks that share o of their k features are at
    ``sqrt((k - o) * (1/k) * ln 2)``, with o read from the Gram matrix of
    all the lists; this equals the ``js_pair`` value bit for bit. Full and
    partial rankings call ``js_pair`` on each pair of probability vectors.
    A ``one-minus-*`` distance is ``1 - similarity_matrix`` of all the lists,
    clamped at 0; its metric must apply to their kind (``MetricMismatchError``
    otherwise). The stacked lists are not checked a second time.
    """
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}, expected one of {DISTANCES}")
    if not labeled_run_sets:
        raise ValueError("need at least one run set")
    kinds = {rs.kind for _, rs in labeled_run_sets}
    shapes = {(rs.t, rs.k) for _, rs in labeled_run_sets}
    if len(kinds) != 1:
        raise ValueError(f"mixed run set kinds: {sorted(kinds)}")
    if len(shapes) != 1:
        raise ValueError(f"mixed run set shapes (t, k): {sorted(shapes)}")
    kind, k = kinds.pop(), shapes.pop()[1]
    labels = tuple((label, run) for label, rs in labeled_run_sets for run in range(rs.runs))
    stacked = RunSet._trusted(kind, np.vstack([rs.matrix for _, rs in labeled_run_sets]), k)
    if distance != "sqrt-js":
        similarity = similarity_matrix(stacked, distance.removeprefix("one-minus-"))
        return DistanceMatrix(np.maximum(0.0, 1.0 - similarity), labels)
    if kind == "topk":
        # js_pair fsums k - o equal terms fl(1/k) * fl(ln 2), which is their
        # correctly rounded product, so this order of operations matches it
        overlaps = _gram(kind, stacked.matrix)
        return DistanceMatrix(np.sqrt((k - overlaps) * ((1.0 / k) * math.log(2.0))), labels)
    n = len(labels)
    d = np.zeros((n, n))
    points = run_probabilities(stacked)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = math.sqrt(max(0.0, js_pair(points[i], points[j])))
    return DistanceMatrix(d, labels)


def classical_mds(dm: DistanceMatrix) -> Embedding:
    """Project a distance matrix to 2D via Torgerson double centering.

    The two algebraically largest eigenpairs of ``B = -0.5 * J D^2 J`` give
    the axes; each axis's largest-magnitude eigenvector entry is made
    positive, so the signs do not depend on the eigensolver. Raises
    ``MdsConvergenceError`` when ``B`` is not finite or ``eigh`` fails.
    """
    n = dm.n
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite B is reported below
        b = dm.d**2
        b -= b.mean(axis=0)[np.newaxis, :]
        b -= b.mean(axis=1)[:, np.newaxis]
        b *= -0.5
    if not np.all(np.isfinite(b)):
        raise MdsConvergenceError("double-centred distance matrix is not finite")
    try:
        eigvals, eigvecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise MdsConvergenceError(f"eigendecomposition failed: {exc}") from None
    eigvals, eigvecs = eigvals[:-3:-1], eigvecs[:, :-3:-1]
    peaks = eigvecs[np.argmax(np.abs(eigvecs), axis=0), [0, 1]]
    eigvecs = eigvecs * np.where(peaks < 0, -1.0, 1.0)[np.newaxis, :]
    clamped = np.maximum(eigvals, 0.0)
    coords = eigvecs * np.sqrt(clamped)[np.newaxis, :]

    sq = np.sum(coords**2, axis=1)
    recon = np.sqrt(np.maximum(0.0, sq[:, None] + sq[None, :] - 2.0 * coords @ coords.T))
    denom = float(np.sum(dm.d**2))
    stress = math.sqrt(float(np.sum((dm.d - recon) ** 2)) / denom) if denom > 0 else 0.0
    return Embedding(coords=coords, eigvals=(float(clamped[0]), float(clamped[1])), stress=stress)
