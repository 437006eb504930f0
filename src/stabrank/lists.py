"""Run sets: the K lists of one algorithm as rows of one integer matrix.

A ``RunSet`` holds K same-shaped lists over t features, one per row of a
K x t matrix, in one of three kinds:

* ``full``    -- every feature carries a distinct rank 1..t (1 = best).
* ``partial`` -- the k best features keep their relative ranks 1..k,
  everything else is 0 (unranked).
* ``topk``    -- a 0/1 mask marking the k selected features.

``row_violations`` is the one validator and ``_shape_problem`` states the
shape rules (kind, t, k, K) for every entry point; ``_array`` is the one rule
by which caller input of every module becomes an array. Feature identity is
positional (index 0..t-1), and ties are not representable.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

KINDS = ("full", "partial", "topk")
_CHECK_ROWS = 64  # ranking rows that ``row_violations`` counts at a time
_GATHER_BLOCK = 1 << 16  # stored cells that ``_lookup`` casts to intp at a time


def _storage_dtype(kind: str, t: int) -> np.dtype:
    """The dtype a run set of ``kind`` over ``t`` features is stored in: the one rule
    that chooses a storage width (docs/derivations.md#storage-dtype)."""
    return np.dtype(np.int8) if kind == "topk" else np.min_scalar_type(-t * t)


def _lookup(table: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``table[m]`` as one new array, with ``m`` cast to intp a block of rows at a time:
    numpy gathers from narrow indices two to three times as slowly as from intp."""
    out = np.empty(m.shape, table.dtype)
    step = max(1, _GATHER_BLOCK // m.shape[1])
    for start in range(0, m.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = table[m[rows].astype(np.intp)]
    return out


def row_violations(kind: str, matrix: np.ndarray, k: int) -> list[str | None]:
    """Check every row of a (lists x features) matrix of one kind.

    Returns one entry per row: ``None`` where the row is valid, otherwise
    its first violated invariant in reading order (e.g. ``"duplicate rank
    1"``); a shape that ``_shape_problem`` refuses gives every row its
    message. ``k`` is judged for every kind (full rankings need k == t), and
    a non-integer ``k`` raises ``TypeError``. The matrix passes
    ``_integers``, as in ``RunSet``; a bool or integer matrix is checked in
    its own dtype, with no copy of it. Rankings are checked by counting, a
    block of ``_CHECK_ROWS`` rows at a time (docs/derivations.md#rank-count).
    """
    m = _integers(matrix, "matrix", ("runs", "features"))
    runs, t = m.shape
    k = _exact_int(k, "k")
    if problem := _shape_problem(kind, t, k):
        return [problem] * runs
    unsigned = m.view(f"u{m.itemsize}")  # where a negative entry is out of every range
    if kind == "topk":
        bad = np.flatnonzero(~((unsigned.max(axis=1) <= 1) & (m.sum(axis=1) == k)))
    else:
        valid = np.empty(runs, dtype=bool)
        for start in range(0, runs, _CHECK_ROWS):
            rows = slice(start, start + _CHECK_ROWS)
            block = m[rows]
            # entries in 0..k, k of them nonzero
            ok = (unsigned[rows] <= k).all(axis=1) & (np.count_nonzero(block, axis=1) == k)
            # and every rank 1..k marked in the row's slots of ``seen``: a row
            # outside 0..k marks only its own slot 0, never a neighbour's
            seen = np.zeros((len(block), k + 1), dtype=bool)
            slots = np.arange(0, seen.size, k + 1)[:, None]
            at = np.add(block, slots, dtype=np.intp)
            at[~ok] = slots[~ok]
            seen.reshape(-1)[at] = True
            valid[rows] = ok & seen[:, 1:].all(axis=1)
            del seen, at  # free them before the next block's
        bad = np.flatnonzero(~valid)
    problems: list[str | None] = [None] * runs
    for j in bad:
        problems[j] = _scan(kind, m[j].astype(np.int64).tolist(), k)  # a bool cell reads 0 or 1
    return problems


def _shape_problem(kind: str, t: int, k: int, runs: int | None = None) -> str | None:
    """The first rule that (kind, t, k) and, when given, K = ``runs`` break, or ``None``."""
    if kind not in KINDS:
        return f"unknown kind {kind!r}, expected one of {KINDS}"
    if t < 1:
        return "lists must contain at least one feature"
    if kind == "full" and k != t:
        return f"kind=full requires k == t, got k={k}, t={t}"
    if not 1 <= k <= t:
        return f"k={k} out of range 1..{t}"
    if runs is not None and runs < 2:
        return f"a run set needs at least 2 lists, got {runs}"
    return None


def _scan(kind: str, values: Sequence[int], k: int) -> str | None:
    """First violated invariant of one list of a valid shape, in reading order, or ``None``."""
    if kind == "full":
        return _validate_permutation(values, len(values))
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


def _array(values, what: str, kinds: str, axes: tuple[str, ...] | None = None) -> np.ndarray:
    """``values`` as an ndarray in native byte order: the one rule by which caller input
    becomes an array.

    No copy is made unless the byte order is swapped, so a caller who freezes
    the result must copy it first. A masked array, or a list or tuple of
    rows one of which is masked (``np.asarray`` would drop the masks), ragged
    nesting, a dtype kind outside ``kinds`` and, when ``axes`` names the
    dimensions, another ``ndim`` each raise a ``ValueError`` that names the
    field ``what``.
    """
    # numpy imports numpy.ma on first use (1.3 MB), and no masked array exists before
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(values, ma.MaskedArray):
        raise ValueError(f"{what} must not be a masked array")
    try:
        a = np.asarray(values)
    except ValueError:
        raise ValueError(f"{what} must be one rectangular array, not ragged nesting") from None
    if (ma is not None and a.ndim == 2 and isinstance(values, (list, tuple))
            and any(isinstance(row, ma.MaskedArray) for row in values)):
        raise ValueError(f"{what} must not be a masked array")
    if a.dtype.kind not in kinds:
        raise ValueError(f"{what} must be real numbers, got dtype {a.dtype}")
    if axes is not None and a.ndim != len(axes):
        raise ValueError(f"{what} must be {len(axes)}-dimensional ({' x '.join(axes)})")
    return a if a.dtype.isnative else a.astype(a.dtype.newbyteorder("="))


def _integers(values, what: str, axes: tuple[str, ...]) -> np.ndarray:
    """``values`` through ``_array``, refusing any entry that is not an exact int64 integer.

    A bool or integer array is returned as it is, so no cell wraps before it
    is checked; anything else is cast, or read, into a new int64 array in
    one step. Every entry must be an integer, or an integral finite float,
    within int64: NaN, fractions and Python ints or uint64 cells beyond it
    are refused. The first raises a ``ValueError`` naming it and, in a 2-D
    matrix, its run.
    """
    given = isinstance(values, np.ndarray)
    m = _array(values, what, "biufO", axes)
    if np.can_cast(m.dtype, np.int64):  # bool and every integer dtype but uint64
        return m
    if m.dtype.kind == "u":
        exact = m <= np.iinfo(np.int64).max
    elif m.dtype.kind == "f":
        # floats that asarray made of a list hold its ints exactly only below
        # 2**53: larger entries are rechecked as given below. NaN and inf fail it.
        exact = (np.abs(m) < (2.0**63 if given else 2.0**53)) & (np.trunc(m) == m)
    else:  # an object array
        exact = np.array([_is_int64(v) for v in m.flat], dtype=bool).reshape(m.shape)
    if exact.all():
        return m.astype(np.int64, order="C")
    if m.dtype.kind == "f" and not given:  # judge, and name, each int as itself
        return _integers(np.asarray(values, dtype=object), what, axes)
    where = np.unravel_index(np.argmin(exact), m.shape)
    value = m[where]
    value = value.item() if isinstance(value, np.generic) else value
    run = f"run {where[0]}: " if m.ndim == 2 else f"{what}: "
    raise ValueError(f"{run}entry {value!r} is not an int64 integer")


def _is_int64(v) -> bool:
    """Whether one entry of an object array is an integral number within int64."""
    if not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    return -(2**63) <= v < 2**63 and v == int(v)  # NaN and inf fail the range


def _exact_int(value, name: str) -> int:
    """``value`` as an int; a bool, float or other non-integer raises a ``TypeError`` naming it."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class RunSet:
    """K same-shaped lists from K runs of one algorithm.

    ``matrix`` holds one list per row (shape K x t): ranks for full/partial
    kinds (0 = unranked), 0/1 flags for the topk kind; an omitted ``k`` is
    t for full rankings and the nonzero count of row 0 otherwise.
    ``RunSet(...)`` checks the shape (``_shape_problem``) and every row of
    the input as given, so a cell is judged, and named, as itself. It then
    keeps its own frozen, C-contiguous copy at ``_storage_dtype(kind, t)``:
    the caller's array stays independent, instances are safe to share
    between threads, and ``matrix`` is not always int64. Instances compare
    and hash by identity; compare contents with
    ``a.kind == b.kind and a.k == b.k and np.array_equal(a.matrix, b.matrix)``.
    """

    kind: str
    matrix: np.ndarray
    k: int = None  # type: ignore[assignment]  # inferred when omitted

    def __post_init__(self):
        # checked as given: no cell has wrapped yet
        m = _integers(self.matrix, "matrix", ("runs", "features"))
        runs, t = m.shape
        if self.k is not None:
            k = _exact_int(self.k, "k")
        else:  # with no rows there is no k to read: the shape check names the fault
            k = t if self.kind == "full" or not runs else int(np.count_nonzero(m[0]))
        object.__setattr__(self, "k", k)
        if problem := _shape_problem(self.kind, t, k, runs):
            raise ValueError(problem)
        for j, problem in enumerate(row_violations(self.kind, m, k)):
            if problem is not None:
                raise ValueError(f"run {j}: {problem}")
        # a new array, frozen below: never the caller's memory
        m = m.astype(_storage_dtype(self.kind, t), order="C")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, kind: str, matrix: np.ndarray, k: int) -> "RunSet":
        """Adopt a fresh, valid, C-contiguous integer matrix and an int ``k`` unchecked,
        narrowed to ``_storage_dtype`` in one cast and frozen. Who may call it, and
        why each caller's matrix is valid: docs/derivations.md#trusted."""
        matrix = matrix.astype(_storage_dtype(kind, matrix.shape[1]), copy=False)
        matrix.setflags(write=False)
        run_set = object.__new__(cls)
        vars(run_set).update(kind=kind, matrix=matrix, k=k)
        return run_set

    @property
    def runs(self) -> int:
        """Number of lists K."""
        return self.matrix.shape[0]

    @property
    def t(self) -> int:
        """Number of features."""
        return self.matrix.shape[1]

    def to_topk(self, k: int | None = None) -> "RunSet":
        """View the run set as top-k masks.

        Full rankings require an explicit ``k``; partial rankings keep their
        own ``k``; topk run sets are returned unchanged. For those two kinds a
        ``k`` other than their own raises ``ValueError``.
        """
        if k is not None:
            k = _exact_int(k, "k")
            if self.kind != "full" and k != self.k:
                raise ValueError(f"{self.kind} run sets keep their own k={self.k}, got k={k}")
        if self.kind == "topk":
            return self
        mask = np.empty(self.matrix.shape, _storage_dtype("topk", self.t))
        if self.kind == "full":
            if k is None:
                raise ValueError("converting full rankings to masks requires k")
            if problem := _shape_problem("topk", self.t, k):
                raise ValueError(problem)
            return RunSet._trusted("topk", np.less_equal(self.matrix, k, out=mask), k)
        return RunSet._trusted("topk", np.not_equal(self.matrix, 0, out=mask), self.k)
