"""A run set is stored at the width its values need.

``lists._storage_dtype`` is the one rule: int8 for masks, and for ranks the
narrowest signed dtype that holds t². The tests below hold every public
entry point on that storage to its result on int64 storage, show that a
cell which would wrap is refused as itself, bound the memory of the public
constructor, of ``row_violations`` and of ``to_topk``, hold ``_lookup`` and
``row_violations`` on every storage dtype to their intp and int64 results,
and scan ``src/`` for the sums that would wrap in a narrow dtype.
"""

import ast

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stabrank import (
    DISTANCES,
    KINDS,
    RunSet,
    RunSetValidationError,
    distance_matrix,
    js_stability,
    pairwise_stability,
    parse_runset,
    row_violations,
    run_probabilities,
    serialize_runset,
    similarity_matrix,
)
from stabrank import lists
from stabrank.lists import _CHECK_ROWS, _GATHER_BLOCK, _lookup, _storage_dtype
from conftest import called_name, random_lists, random_run_set, src_nodes, traced_peak
from oracles import per_cell_text

SIGNED = (np.int8, np.int16, np.int32, np.int64)


@pytest.mark.parametrize(
    "kind, t, dtype",
    [("topk", 1, np.int8), ("topk", 10**6, np.int8),
     ("full", 1, np.int8), ("partial", 11, np.int8), ("full", 12, np.int16),
     ("partial", 181, np.int16), ("full", 182, np.int32),
     ("full", 46340, np.int32), ("partial", 46341, np.int64)],
)
def test_storage_dtype_at_its_boundaries(kind, t, dtype):
    assert _storage_dtype(kind, t) == dtype


@given(st.integers(1, 3 * 10**9))
def test_ranks_take_the_narrowest_signed_dtype_that_holds_t_squared(t):
    dtype = _storage_dtype("full", t)
    assert dtype == _storage_dtype("partial", t)
    narrower = SIGNED[: SIGNED.index(dtype.type)]
    assert np.iinfo(dtype).max >= t * t
    assert all(np.iinfo(d).max < t * t for d in narrower)


@st.composite
def run_sets(draw):
    """A run set of any kind at a t on either side of a storage boundary."""
    kind = draw(st.sampled_from(KINDS))
    t = draw(st.sampled_from([1, 2, 10, 11, 12, 13, 180, 181, 182, 183]))
    runs = draw(st.integers(2, 5))
    k = t if kind == "full" else draw(st.integers(1, t))
    seed, fixed = draw(st.integers(0, 2**32)), draw(st.integers(0, runs))
    return kind, t, k, random_lists(seed, kind, t, k, runs, fixed)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def results(kind, matrix, k):
    """Every public entry point on a run set of ``matrix`` and on its masks,
    in comparable form, with the dtype the run set is stored in."""
    rs = RunSet(kind, matrix, k)
    masks = rs.to_topk(max(1, rs.t // 3) if kind == "full" else None)
    found = {"to_topk": masks.matrix.tolist()}
    for name, run_set in (("lists", rs), ("masks", masks)):
        labeled = [("a", run_set), ("b", RunSet(run_set.kind, run_set.matrix[::-1], run_set.k))]
        found[name, "js_stability"] = outcome(lambda: js_stability(run_set))
        found[name, "run_probabilities"] = run_probabilities(run_set).tolist()
        found[name, "serialize_runset"] = serialize_runset(run_set)
        for metric in ("spearman", "kuncheva", "jaccard"):
            found[name, metric] = outcome(lambda: pairwise_stability(run_set, metric))
            found[name, metric, "matrix"] = outcome(
                lambda: similarity_matrix(run_set, metric).tolist()
            )
        for distance in DISTANCES:
            dm = outcome(lambda: distance_matrix(labeled, distance))
            found[name, distance] = (dm.d.tolist(), dm.labels) if hasattr(dm, "d") else dm
    return rs.matrix.dtype, found


@given(run_sets())
@example(("full", 46340, 46340, random_lists(1, "full", 46340, 46340, 2)))
@example(("full", 46341, 46341, random_lists(2, "full", 46341, 46341, 2)))
@example(("partial", 46341, 300, random_lists(3, "partial", 46341, 300, 2)))
def test_narrow_storage_gives_every_result_of_int64_storage(drawn):
    kind, t, k, matrix = drawn
    dtype, narrow = results(kind, matrix, k)
    assert dtype == _storage_dtype(kind, t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lists, "_storage_dtype", lambda kind, t: np.dtype(np.int64))
        wide_dtype, wide = results(kind, matrix, k)
    assert wide_dtype == np.int64
    assert narrow.keys() == wide.keys()
    for name in narrow:
        assert narrow[name] == wide[name], name


@pytest.mark.parametrize(
    "kind, k, cell, message",
    [("full", 100, 100 + 2**16, "rank 65636 out of range 1..100"),
     ("partial", 30, 30 + 2**16, "rank 65566 out of range 1..30"),
     ("topk", 30, 1 + 2**8, "entry 257 is not 0 or 1")],
)
def test_a_cell_that_would_wrap_is_refused_as_itself(kind, k, cell, message):
    """t = 100 stores ranks as int16 and masks as int8: narrowed first, the
    cell would wrap to a valid value and pass."""
    matrix = random_lists(7, kind, 100, k, 2)
    j = int(np.argmax(matrix[0] == (k if kind != "topk" else 1)))
    matrix[0, j] = cell
    wrapped = matrix.astype(_storage_dtype(kind, 100))
    assert row_violations(kind, wrapped, k) == [None, None]
    with pytest.raises(ValueError) as by_run_set:
        RunSet(kind, matrix, k)
    with pytest.raises(RunSetValidationError) as by_file:
        parse_runset(per_cell_text(kind, k, matrix))
    assert (str(by_run_set.value), str(by_file.value)) == (f"run 0: {message}", f"column 1: {message}")


@pytest.mark.parametrize("runs, t", [(200, 5000), (100, 20000)])
def test_public_constructor_allocates_its_copy_and_one_block_of_rows(runs, t):
    """On an int64 input ``RunSet`` checks the input as it is, counting one
    block of rows at a time (an intp index of the block's cells and a bool
    table of the ranks they mark), then makes its one narrow copy."""
    rs, peak = traced_peak(RunSet, "full", random_lists(8, "full", t, t, runs))
    assert rs.matrix.itemsize == 4  # int32 at these t
    block = _CHECK_ROWS * t * (8 + 1) + 8 * t
    assert peak <= rs.matrix.nbytes + block + 2**16


@pytest.mark.parametrize("given", [np.bool_, np.int32], ids=["bool", "int32"])
def test_public_constructor_checks_a_narrow_mask_without_copying_it(given):
    """A bool or int32 mask is checked as it is: the one allocation is the
    int8 copy that is kept, one byte per cell."""
    mask = random_lists(10, "topk", 5000, 1500, 200)
    data = mask.astype(given)
    rs, peak = traced_peak(RunSet, "topk", data, 1500)
    assert rs.matrix.tolist() == mask.tolist()
    assert peak <= 1.2 * mask.size


def test_row_violations_checks_a_stored_run_set_in_its_own_dtype():
    """A stored int32 run set is checked as it is, a block of rows at a
    time: the check allocates less than the stored matrix."""
    rs = random_run_set(11, "full", 5000, 5000, 200)
    problems, peak = traced_peak(row_violations, rs.kind, rs.matrix, rs.k)
    assert rs.matrix.itemsize == 4 and problems == [None] * rs.runs
    assert peak <= rs.matrix.nbytes


@given(
    st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    st.sampled_from([np.float64, np.int8, np.int32]),
    st.sampled_from([1, 7, 1000, _GATHER_BLOCK - 1, _GATHER_BLOCK + 3]).flatmap(
        lambda t: st.tuples(st.integers(1, max(2, 3 * 10**5 // t)), st.just(t))
    ),
    st.integers(0, 2**32),
)
def test_lookup_equals_the_intp_gather(dtype, table_dtype, shape, seed):
    """``_lookup`` reads ``table[m]`` by blocks of rows, whatever the storage
    dtype, the table's dtype, and whether the blocks divide K x t."""
    runs, t = shape
    rng = np.random.default_rng(seed)
    table = rng.integers(-100, 100, 120).astype(table_dtype)
    m = rng.integers(0, len(table), (runs, t)).astype(dtype)
    found = _lookup(table, m)
    expected = table[m.astype(np.intp)]
    assert found.dtype == table.dtype and found.flags.c_contiguous
    np.testing.assert_array_equal(found, expected)


@given(
    st.sampled_from(KINDS),
    st.sampled_from([np.bool_, np.uint16, np.int8]),
    st.integers(1, 12).flatmap(lambda t: st.tuples(
        st.integers(1, t),
        st.lists(st.lists(st.integers(-2, t + 2), min_size=t, max_size=t), min_size=1, max_size=4),
    )),
)
def test_row_violations_on_narrow_input_equals_it_on_int64(kind, dtype, drawn):
    """Every verdict and message is that of the int64 cast: a bool cell is
    named as the integer it holds (``duplicate rank 1``, never ``True``)."""
    k, rows = drawn
    wide = np.array(rows, dtype=np.int64)
    if dtype is np.bool_:
        wide = wide & 1
    elif dtype is np.uint16:
        wide = np.abs(wide)
    narrow = wide.astype(dtype)
    assert row_violations(kind, narrow, k) == row_violations(kind, wide, k)


def test_row_violations_reads_a_big_endian_matrix_by_value():
    """The mask check reads an unsigned view of the cells, so they are put in
    native byte order first: viewed as it is, a big-endian 256 reads as 1."""
    m = np.zeros((2, 300), dtype=">i2")
    m[:, 0] = 256
    assert row_violations("topk", m, 256) == ["entry 256 is not 0 or 1"] * 2


def test_to_topk_writes_one_byte_per_cell():
    full = random_run_set(9, "full", 5000, 5000, 200)
    masks, peak = traced_peak(full.to_topk, 1500)
    assert masks.matrix.nbytes == masks.matrix.size
    assert peak <= masks.matrix.nbytes + 2**16


# the sums over a stored matrix that the scan below must find
KNOWN_SUMS = {
    ("baselines.py", "pairwise_stability", "sum"),
    ("divergence.py", "_js_masks", "sum"),
}


def matrix_sums() -> set[tuple[str, str, str, bool]]:
    """(module file, function, called name, whether it passes ``dtype=``) of
    every ``sum``, ``cumsum`` and ``einsum`` call on or of a ``.matrix`` under
    ``src/stabrank``."""

    def is_matrix(node):
        return isinstance(node, ast.Attribute) and node.attr == "matrix"

    return {
        (path.name, scope.rsplit(".", 1)[-1], called_name(node),
         any(keyword.arg == "dtype" for keyword in node.keywords))
        for path, scope, node in src_nodes()
        if called_name(node) in ("sum", "cumsum", "einsum")
        and (is_matrix(getattr(node.func, "value", None)) or any(map(is_matrix, node.args)))
    }


def test_every_sum_over_a_stored_matrix_names_its_dtype():
    """A sum in a narrow dtype wraps: int16 ranks squared and summed over K
    runs pass 2**15 at once, and ``einsum`` keeps its input dtype."""
    found = matrix_sums()
    assert {call[:3] for call in found} >= KNOWN_SUMS
    assert [call for call in found if not call[3]] == []
