"""List representations for feature-ranking and feature-selection outputs.

Three interchangeable views of an algorithm's output over t features:

* ``FullRanking``   -- every feature carries a distinct rank 1..t (1 = best).
* ``TopKMask``      -- a binary vector marking the k selected features.
* ``PartialRanking``-- the k best features keep their relative ranks 1..k,
  everything else is 0 (unranked).

A ``RunSet`` bundles K same-shaped lists coming from K runs of one
algorithm; it is the unit on which stability metrics operate.

Feature identity is positional (index 0..t-1). Ties are not representable:
rankings must be strict permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

KINDS = ("full", "partial", "topk")


def _as_int_tuple(values: Iterable) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class FullRanking:
    """A strict permutation of ranks 1..t; ``ranks[i]`` is feature i's rank."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", _as_int_tuple(self.ranks))

    @property
    def t(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class TopKMask:
    """Binary selection vector with exactly ``k`` entries equal to 1."""

    selected: tuple[int, ...]
    k: int = None  # type: ignore[assignment]  # inferred when omitted

    def __post_init__(self):
        object.__setattr__(self, "selected", _as_int_tuple(self.selected))
        if self.k is None:
            object.__setattr__(self, "k", sum(1 for v in self.selected if v == 1))

    @property
    def t(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class PartialRanking:
    """Ranks 1..k on exactly ``k`` features, 0 on the unranked rest."""

    ranks: tuple[int, ...]
    k: int = None  # type: ignore[assignment]  # inferred when omitted

    def __post_init__(self):
        object.__setattr__(self, "ranks", _as_int_tuple(self.ranks))
        if self.k is None:
            object.__setattr__(self, "k", sum(1 for v in self.ranks if v != 0))

    @property
    def t(self) -> int:
        return len(self.ranks)


AnyList = Union[FullRanking, TopKMask, PartialRanking]


def validate(lst: AnyList) -> str | None:
    """Check a list against its kind's invariants.

    Returns ``None`` when the list is valid, otherwise a description of the
    first violated invariant (e.g. ``"duplicate rank 1"``).
    """
    if isinstance(lst, FullRanking):
        return _scan("full", lst.ranks, lst.t)
    if isinstance(lst, TopKMask):
        return _scan("topk", lst.selected, lst.k)
    if isinstance(lst, PartialRanking):
        return _scan("partial", lst.ranks, lst.k)
    raise TypeError(f"unsupported list type: {type(lst).__name__}")


def row_violations(kind: str, matrix: np.ndarray, k: int) -> list[str | None]:
    """Check every row of a (lists x features) matrix of one kind.

    Returns one entry per row: ``None`` where the row is valid, otherwise
    the message ``validate`` gives for it. A ranking row is valid exactly
    when it sorts to ``t - k`` zeros followed by ``1..k``, and a mask row
    when it holds only 0/1 with ``k`` ones; these vectorised checks find
    the bad rows, and only those are scanned for their message. ``k`` is
    ignored for full rankings.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    m = np.asarray(matrix)
    runs, t = m.shape
    if kind == "full":
        k = t
    if not 1 <= k <= t:
        bad = range(runs)
    elif kind == "topk":
        bad = np.flatnonzero(~(np.all((m == 0) | (m == 1), axis=1) & (m.sum(axis=1) == k)))
    else:
        expected = np.concatenate([np.zeros(t - k, dtype=np.int64), np.arange(1, k + 1)])
        bad = np.flatnonzero(~np.all(np.sort(m, axis=1) == expected, axis=1))
    problems: list[str | None] = [None] * runs
    for j in bad:
        problems[j] = _scan(kind, m[j].tolist(), k)
    return problems


def _scan(kind: str, values: Sequence[int], k: int) -> str | None:
    """First violated invariant of one list, in reading order, or ``None``."""
    t = len(values)
    if t < 1:
        return "empty mask" if kind == "topk" else "empty ranking"
    if kind == "full":
        return _validate_permutation(values, t)
    if not 1 <= k <= t:
        return f"k={k} out of range 1..{t}"
    if kind == "topk":
        for v in values:
            if v not in (0, 1):
                return f"entry {v} is not 0 or 1"
        ones = sum(values)
        return None if ones == k else f"{ones} ones, expected {k}"
    if any(v < 0 for v in values):
        return f"negative rank {min(values)}"
    nonzero = [v for v in values if v != 0]
    if len(nonzero) != k:
        return f"{len(nonzero)} ranked entries, expected {k}"
    return _validate_permutation(nonzero, k)


def _validate_permutation(values: Sequence[int], n: int) -> str | None:
    seen = set()
    for v in values:
        if not 1 <= v <= n:
            return f"rank {v} out of range 1..{n}"
        if v in seen:
            return f"duplicate rank {v}"
        seen.add(v)
    return None


def _require_valid(lst: AnyList) -> None:
    problem = validate(lst)
    if problem is not None:
        raise ValueError(f"invalid {type(lst).__name__}: {problem}")


def full_to_topk(ranking: FullRanking, k: int) -> TopKMask:
    """Keep the k best-ranked features as a selection mask."""
    _require_valid(ranking)
    if not 1 <= k <= ranking.t:
        raise ValueError(f"k={k} out of range 1..{ranking.t}")
    return TopKMask(tuple(1 if r <= k else 0 for r in ranking.ranks), k)


def full_to_partial(ranking: FullRanking, k: int) -> PartialRanking:
    """Keep ranks <= k, zero out the rest."""
    _require_valid(ranking)
    if not 1 <= k <= ranking.t:
        raise ValueError(f"k={k} out of range 1..{ranking.t}")
    return PartialRanking(tuple(r if r <= k else 0 for r in ranking.ranks), k)


def partial_to_topk(partial: PartialRanking) -> TopKMask:
    """Drop the rank information, keeping only which features are ranked."""
    _require_valid(partial)
    return TopKMask(tuple(1 if r != 0 else 0 for r in partial.ranks), partial.k)


_LIST_KIND = {FullRanking: "full", PartialRanking: "partial", TopKMask: "topk"}


@dataclass(frozen=True)
class RunSet:
    """K same-shaped lists from K runs of one algorithm.

    ``matrix`` holds one list per row (shape K x t): ranks for full/partial
    kinds (0 = unranked), 0/1 flags for the topk kind. The matrix is frozen
    after validation, so instances are safe to share between threads.
    """

    kind: str
    matrix: np.ndarray
    k: int = None  # type: ignore[assignment]  # inferred when omitted

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        m = np.array(self.matrix, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-dimensional (runs x features)")
        runs, t = m.shape
        if runs < 2:
            raise ValueError(f"a run set needs at least 2 lists, got {runs}")
        if t < 1:
            raise ValueError("lists must contain at least one feature")
        k = self.k
        if k is None:
            if self.kind == "full":
                k = t
            elif self.kind == "topk":
                k = int(np.sum(m[0] == 1))
            else:
                k = int(np.count_nonzero(m[0]))
        object.__setattr__(self, "k", int(k))
        if self.kind == "full" and k != t:
            raise ValueError(f"full run sets require k == t, got k={k}, t={t}")
        if not 1 <= k <= t:
            raise ValueError(f"k={k} out of range 1..{t}")
        for j, problem in enumerate(row_violations(self.kind, m, k)):
            if problem is not None:
                raise ValueError(f"run {j}: {problem}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def runs(self) -> int:
        """Number of lists K."""
        return self.matrix.shape[0]

    @property
    def t(self) -> int:
        """Number of features."""
        return self.matrix.shape[1]

    def lists(self) -> tuple[AnyList, ...]:
        """Materialise the rows as typed list objects."""
        if self.kind == "full":
            return tuple(FullRanking(row) for row in self.matrix)
        if self.kind == "topk":
            return tuple(TopKMask(row, self.k) for row in self.matrix)
        return tuple(PartialRanking(row, self.k) for row in self.matrix)

    @classmethod
    def from_lists(cls, lists: Sequence[AnyList]) -> "RunSet":
        """Build a run set from typed list objects (all of one kind)."""
        if len(lists) < 2:
            raise ValueError(f"a run set needs at least 2 lists, got {len(lists)}")
        kinds = {_LIST_KIND[type(lst)] for lst in lists}
        if len(kinds) != 1:
            raise ValueError(f"mixed list kinds in run set: {sorted(kinds)}")
        kind = kinds.pop()
        rows = [lst.selected if kind == "topk" else lst.ranks for lst in lists]
        k = None if kind == "full" else lists[0].k
        return cls(kind, np.array(rows, dtype=np.int64), k)

    def to_topk(self, k: int | None = None) -> "RunSet":
        """View the run set as top-k masks.

        Full rankings require an explicit ``k``; partial rankings keep their
        own ``k``; topk run sets are returned unchanged.
        """
        if self.kind == "topk":
            return self
        if self.kind == "full":
            if k is None:
                raise ValueError("converting full rankings to masks requires k")
            if not 1 <= k <= self.t:
                raise ValueError(f"k={k} out of range 1..{self.t}")
            return RunSet("topk", (self.matrix <= k).astype(np.int64), k)
        return RunSet("topk", (self.matrix != 0).astype(np.int64), self.k)

