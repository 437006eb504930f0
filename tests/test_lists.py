"""Run-set construction, validation and the ranking-to-mask conversion."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabrank import (
    KINDS,
    DegenerateNormalizerError,
    RunSet,
    normalizer,
    parse_runset,
    row_violations,
)
from stabrank import lists
from stabrank.lists import _integers, _scan, _storage_dtype
from stabrank.runset_io import parse_header
from conftest import EXAMPLE_FULL, EXAMPLE_K, EXAMPLE_MASKS, EXAMPLE_PARTIAL
from conftest import random_lists, random_run_set, read_as, traced_peak
from oracles import per_cell_text
from test_refusals import check_refusal, table_rows


class TestValidate:
    def test_valid_permutation(self):
        assert row_violations("full", [[3, 1, 2]], 3) == [None]

    def test_duplicate_rank(self):
        assert row_violations("full", [[1, 1, 3]], 3) == ["duplicate rank 1"]

    def test_rank_out_of_range(self):
        assert row_violations("full", [[1, 2, 4]], 3) == ["rank 4 out of range 1..3"]

    def test_mask_wrong_count(self):
        assert row_violations("topk", [[1, 0, 1, 1]], 2) == ["3 ones, expected 2"]

    def test_mask_bad_entry(self):
        assert row_violations("topk", [[1, 0, 2, 0]], 2) == ["entry 2 is not 0 or 1"]

    def test_mask_valid(self):
        assert row_violations("topk", [[1, 0, 1, 0]], 2) == [None]

    def test_mask_infers_k(self):
        # an omitted k is read from the first run and holds the others to it
        assert RunSet("topk", [[1, 0, 1, 0], [0, 1, 1, 0]]).k == 2
        assert RunSet("partial", [[2, 0, 1, 0], [0, 1, 0, 2]]).k == 2

    def test_partial_valid(self):
        assert row_violations("partial", [[2, 0, 1, 0]], 2) == [None]

    def test_partial_duplicate(self):
        assert row_violations("partial", [[1, 0, 1, 0]], 2) == ["duplicate rank 1"]

    def test_partial_wrong_count(self):
        assert row_violations("partial", [[2, 1, 3, 0]], 2) == ["3 ranked entries, expected 2"]

    def test_partial_rank_exceeds_k(self):
        assert row_violations("partial", [[3, 1, 0, 0]], 2) == ["rank 3 out of range 1..2"]

    def test_k_out_of_range(self):
        assert row_violations("topk", [[0, 0, 0]], 0) == ["k=0 out of range 1..3"]

    def test_full_rankings_judged_at_the_given_k(self):
        # a k other than t is the shape problem RunSet names, on every row
        message = "kind=full requires k == t, got k=99, t=3"
        assert row_violations("full", [[1, 2, 3], [3, 2, 1]], 99) == [message, message]

    @given(
        st.sampled_from(["full", "partial", "topk"]),
        st.integers(1, 7),
        st.integers(0, 100),
        st.integers(-2, 8),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_violations_match_per_row_scan(self, kind, t, seed, value, data):
        # valid rows of one kind with one entry overwritten: the vectorised
        # check flags a row exactly when the per-row scan finds a problem,
        # with its message; a k one beyond its range on either side is a
        # shape problem, named on every row
        k = t if kind == "full" else data.draw(st.integers(0, t + 1))
        m = random_lists(seed, kind, t, k, 3)
        m[data.draw(st.integers(0, 2)), data.draw(st.integers(0, t - 1))] = value
        if 1 <= k <= t:
            assert row_violations(kind, m, k) == [_scan(kind, row.tolist(), k) for row in m]
        else:
            assert row_violations(kind, m, k) == [f"k={k} out of range 1..{t}"] * 3


@st.composite
def rankings_with_bad_cells(draw):
    """Valid full or partial rankings with up to three cells overwritten, by
    values a flattened count would alias into a neighbouring row's slots
    (k + 1, t + 1, -1) or by valid ones, at int64 or at their storage width."""
    kind = draw(st.sampled_from(["full", "partial"]))
    t = draw(st.integers(1, 12))
    k = t if kind == "full" else draw(st.integers(1, t))
    runs = draw(st.integers(2, 8))
    m = random_lists(draw(st.integers(0, 2**32 - 1)), kind, t, k, runs)
    for _ in range(draw(st.integers(0, 3))):
        cell = draw(st.integers(0, runs - 1)), draw(st.integers(0, t - 1))
        m[cell] = draw(st.sampled_from([k + 1, t + 1, -1, 0, 1, k]))
    return kind, m.astype(draw(st.sampled_from([np.int64, _storage_dtype(kind, t)]))), k


@given(rankings_with_bad_cells(), st.integers(1, 3))
# -1 in row 1 would mark rank 4 of row 0, which lacks it
@example(("full", np.array([[1, 2, 3, 3], [-1, 1, 2, 3]]), 4), 2)
# t + 1 = 7 in row 0 would mark rank 3 of row 1, which lacks it
@example(("partial", np.array([[7, 1, 2, 0, 0, 0], [1, 2, 2, 0, 0, 0]]), 3), 2)
# k + 1 = 3 in row 0 would count as a zero of row 1, which has one too few
@example(("partial", np.array([[3, 1, 2, 0], [1, 2, 0, 1]], dtype=np.int8), 2), 3)
@settings(max_examples=300, deadline=None)
def test_counting_check_matches_the_scan_across_row_blocks(drawn, rows_per_block):
    kind, m, k = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lists, "_CHECK_ROWS", rows_per_block)
        problems = row_violations(kind, m, k)
    assert problems == [_scan(kind, row.tolist(), k) for row in m]


def shaped_rows(kind, t, k, runs):
    """``runs`` copies of one list over t features, valid where (kind, t, k) is a valid shape."""
    return read_as(kind, np.tile(np.arange(1, t + 1), (runs, 1)), k)


def message_of(call):
    """The ``ValueError`` message ``call()`` raises, or ``None`` when it accepts."""
    try:
        call()
    except DegenerateNormalizerError:
        return None  # a valid shape whose random baseline is 0
    except ValueError as exc:
        return str(exc)
    return None


class TestShapeContract:
    """Every entry point that checks a shape gives the same verdict, in the same
    words; ``row_violations`` judges full rankings at the k it is given, as
    ``RunSet`` does, with no exemption."""

    @given(
        st.sampled_from([*KINDS, "ranked"]),
        st.integers(0, 5),
        st.integers(0, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_entry_points_agree(self, kind, t, k, runs):
        # unknown kind, t=0, k=0, k>t, full with k != t and K < 2 all drawn
        verdicts = {message_of(lambda: normalizer(kind, t, k))}
        if kind in KINDS:  # the header grammar spells only the three kinds
            header = message_of(lambda: parse_header(f"#stabrank v1 kind={kind} t={t} k={k} K=2"))
            verdicts.add(header and header.removeprefix("line 1: "))
        assert len(verdicts) == 1, verdicts
        (shape,) = verdicts
        assert (shape is None) == (kind in KINDS and 1 <= k <= t and (kind != "full" or k == t))
        # row_violations judges the shape (kind, t, k) as given, full included
        assert row_violations(kind, shaped_rows(kind, t, k, 3), k) == [shape] * 3
        # K is known to RunSet and the file parser only, and checked after the shape
        expected = shape or (f"a run set needs at least 2 lists, got {runs}" if runs < 2 else None)
        rows = shaped_rows(kind, t, k, runs)
        assert message_of(lambda: RunSet(kind, rows, k)) == expected
        if kind in KINDS and runs >= 1:
            text = per_cell_text(kind, k, rows)
            in_file = f"line 1: {shape}" if shape else expected
            assert message_of(lambda: parse_runset(text)) == in_file

    @given(
        st.sampled_from(KINDS),
        st.one_of(st.booleans(), st.floats(allow_nan=True), st.just(np.float64(2.0))),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_integer_k_refused_alike(self, kind, k):
        rows = shaped_rows(kind, 3, 2, 2)
        with pytest.raises(TypeError) as by_run_set:
            RunSet(kind, rows, k)
        with pytest.raises(TypeError) as by_rows:
            row_violations(kind, rows, k)
        assert str(by_rows.value) == str(by_run_set.value) == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "matrix", [[1, 2, 3], [[[1, 2, 3]], [[3, 2, 1]]], 1], ids=["1d", "3d", "0d"]
    )
    def test_non_matrix_refused_alike(self, kind, matrix):
        message = "matrix must be 2-dimensional (runs x features)"
        for call in (lambda: RunSet(kind, matrix, 3), lambda: row_violations(kind, matrix, 3)):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message


class TestConversions:
    def test_example_run_to_mask(self, full_run_set):
        masks = full_run_set.to_topk(EXAMPLE_K)
        assert masks.matrix[0].tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 1, 0]
        assert masks.k == EXAMPLE_K

    def test_example_run_to_partial(self, full_run_set):
        partial = RunSet("partial", read_as("partial", full_run_set.matrix, EXAMPLE_K), EXAMPLE_K)
        assert partial.matrix[0].tolist() == [3, 2, 4, 0, 0, 0, 0, 0, 1, 0]

    def test_example_partial_to_mask(self, partial_run_set):
        assert partial_run_set.to_topk().matrix[0].tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 1, 0]

    def test_k_equals_t_selects_everything(self):
        assert RunSet("full", [[2, 3, 1], [1, 2, 3]]).to_topk(3).matrix.tolist() == [
            [1, 1, 1],
            [1, 1, 1],
        ]

    def test_k_one_keeps_best(self):
        assert RunSet("full", [[2, 1, 3], [3, 2, 1]]).to_topk(1).matrix.tolist() == [
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_partial_at_k_equals_t_is_the_ranking(self):
        ranks = np.array([[2, 3, 1], [1, 3, 2]])
        partial = RunSet("partial", read_as("partial", ranks, 3), 3)
        assert np.array_equal(partial.matrix, ranks)
        assert 0 not in partial.matrix

    def test_small_truncation(self):
        assert read_as("partial", [[1, 2, 3]], 2).tolist() == [[1, 2, 0]]
        partial = RunSet("partial", [[1, 0, 2], [0, 1, 2]], 2)
        assert partial.to_topk().matrix.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_conversions_commute_exhaustively(self):
        # ranks -> masks directly equals ranks -> partial -> masks, for every
        # permutation and cut point up to t = 7 (every permutation is one run)
        for t in range(1, 8):
            ranks = np.array(list(itertools.permutations(range(1, t + 1))) * 2)
            full = RunSet("full", ranks)
            for k in range(1, t + 1):
                direct = full.to_topk(k)
                via_partial = RunSet("partial", read_as("partial", ranks, k), k).to_topk()
                assert direct.k == via_partial.k == k
                assert np.array_equal(direct.matrix, via_partial.matrix)

    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_conversion_outputs_validate(self, perm, k):
        ranks = np.array([perm, perm[::-1]])
        full = RunSet("full", ranks)
        assert row_violations("topk", full.to_topk(k).matrix, k) == [None, None]
        assert row_violations("partial", read_as("partial", ranks, k), k) == [None, None]
        partial = RunSet("partial", read_as("partial", ranks, k), k)
        assert row_violations("topk", partial.to_topk().matrix, k) == [None, None]


class TestRunSet:
    def test_shape_and_kind(self, full_run_set):
        assert full_run_set.kind == "full"
        assert full_run_set.t == 10
        assert full_run_set.k == 10
        assert full_run_set.runs == 5

    def test_topk_k_inferred(self):
        rs = RunSet("topk", np.array([[1, 0, 1], [0, 1, 1]]))
        assert rs.k == 2

    def test_matrix_is_frozen(self, full_run_set):
        with pytest.raises(ValueError):
            full_run_set.matrix[0, 0] = 5

    def test_to_topk_from_full(self, full_run_set, mask_run_set):
        assert np.array_equal(full_run_set.to_topk(EXAMPLE_K).matrix, mask_run_set.matrix)

    def test_to_topk_from_partial(self, partial_run_set, mask_run_set):
        assert np.array_equal(partial_run_set.to_topk().matrix, mask_run_set.matrix)

    @pytest.mark.parametrize("parent", ["full_run_set", "partial_run_set"])
    def test_to_topk_matrix_is_frozen_contiguous_and_its_own(self, parent, request):
        parent = request.getfixturevalue(parent)
        masks = parent.to_topk(EXAMPLE_K).matrix
        assert masks.dtype == _storage_dtype("topk", parent.t)
        assert masks.flags.c_contiguous
        assert not masks.flags.writeable
        assert not np.shares_memory(masks, parent.matrix)

    @pytest.mark.parametrize(
        "view", [lambda a: a, lambda a: a[:, ::-1], lambda a: np.asfortranarray(a)]
    )
    def test_callers_int64_array_stays_writable_and_independent(self, view):
        given = view(np.array(EXAMPLE_FULL, dtype=np.int64))
        expected = given.tolist()
        rs = RunSet("full", given)
        assert given.flags.writeable
        assert not np.shares_memory(rs.matrix, given)
        assert rs.matrix.flags.c_contiguous
        given[0, 0] = 99
        assert rs.matrix.tolist() == expected

    @pytest.mark.parametrize(
        "given",
        [
            lambda a: a.astype(bool),
            lambda a: a.astype(np.int32),
            lambda a: a.tolist(),
            lambda a: memoryview(a),  # np.asarray of a buffer shares its memory
        ],
        ids=["bool", "int32", "list", "memoryview"],
    )
    def test_callers_input_of_any_type_stays_independent(self, given):
        data = given(np.array(EXAMPLE_MASKS, dtype=np.int64))
        rs = RunSet("topk", data, EXAMPLE_K)
        assert rs.matrix.flags.c_contiguous and not rs.matrix.flags.writeable
        if isinstance(data, list):
            data[0][0] ^= 1
        else:
            np.asarray(data)[0, 0] ^= 1  # raises if the caller's memory was frozen
        assert rs.matrix.tolist() == [list(row) for row in EXAMPLE_MASKS]

    @pytest.mark.parametrize("given", [np.bool_, np.int32, list], ids=["bool", "int32", "list"])
    def test_public_constructor_casts_and_copies_in_one_step(self, given):
        """Peak memory of ``RunSet(...)`` on a mask that is not int8 yet: the
        input as numpy reads it, checked as it is (a list becomes an int64
        array; a bool or int32 array is not copied), then the int8 copy that
        is kept."""
        mask = random_lists(6, "topk", 5000, 1500, 200)
        data = mask.tolist() if given is list else mask.astype(given)
        _, peak = traced_peak(RunSet, "topk", data, 1500)
        assert peak <= 1.2 * mask.size * 8

    @settings(max_examples=100)
    @given(st.integers(1, 12).flatmap(lambda t: st.tuples(
        st.lists(st.permutations(range(1, t + 1)), min_size=2, max_size=4),
        st.integers(1, t),
    )))
    def test_to_topk_equals_the_two_pass_mask(self, drawn):
        ranks, k = drawn
        full = RunSet("full", ranks)
        partial = RunSet("partial", read_as("partial", ranks, k), k)
        for masks, expected in [
            (full.to_topk(k).matrix, read_as("topk", full.matrix, k)),
            (partial.to_topk().matrix, (partial.matrix != 0).astype(np.int64)),
        ]:
            np.testing.assert_array_equal(masks, expected)
            assert masks.dtype == _storage_dtype("topk", full.t) and masks.flags.c_contiguous
            assert not masks.flags.writeable

    def test_to_topk_peaks_near_one_int64_mask_matrix(self):
        full = random_run_set(4, "full", 5000, 5000, 200)
        _, peak = traced_peak(full.to_topk, 1500)
        assert peak <= 1.3 * full.matrix.nbytes

    def test_example_partial_matches_conversion(self):
        assert np.array_equal(read_as("partial", EXAMPLE_FULL, EXAMPLE_K), EXAMPLE_PARTIAL)

    def test_example_masks_match_conversion(self):
        assert np.array_equal(read_as("topk", EXAMPLE_FULL, EXAMPLE_K), EXAMPLE_MASKS)


class TestNoCoercion:
    """A matrix entry or a ``k`` that is not an exact integer is refused, never cast."""

    @table_rows("RunSet-", "fraction", "fraction-run-1", "string", "nan", "inf", "complex",
                "python-int-beyond-int64", "python-int-read-as-float", "uint64-beyond-int64",
                "python-int-above-2**53")
    def test_rejects_non_integral_matrix(self, row):
        check_refusal(row)

    def test_integral_floats_are_exact(self):
        # accepted entry for entry when integral
        for exact in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1, 2.0], [2, 1]], dtype=object)):
            rs = RunSet("full", exact)
            assert rs.matrix.dtype == _storage_dtype("full", 2)
            assert rs.matrix.tolist() == [[1, 2], [2, 1]]
        # asarray reads this list as floats and rounds 2**63 - 1 up to 2**63
        assert _integers([2**63 - 1, 1.0], "list", ("features",)).tolist() == [2**63 - 1, 1]
        assert _integers([2**53 + 1, 1.0], "list", ("features",)).tolist() == [2**53 + 1, 1]

    @table_rows("RunSet-k-", "fraction", "float", "bool")
    def test_run_set_k_must_be_an_integer(self, row):
        check_refusal(row)

    @table_rows("to_topk-full-k-", "fraction", "float", "bool")
    def test_to_topk_k_must_be_an_integer(self, row):
        check_refusal(row)

    def test_to_topk_keeps_a_truncated_run_sets_own_k(self, partial_run_set, mask_run_set):
        assert partial_run_set.to_topk(EXAMPLE_K).k == mask_run_set.to_topk(EXAMPLE_K).k == EXAMPLE_K
