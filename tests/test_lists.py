"""Run-set construction, validation and the ranking-to-mask conversion."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrank import (
    KINDS,
    DegenerateNormalizerError,
    RunSet,
    normalizer,
    parse_runset,
    row_violations,
)
from stabrank.lists import _integers, _scan, _storage_dtype
from stabrank.runset_io import parse_header
from conftest import EXAMPLE_FULL, EXAMPLE_K, EXAMPLE_MASKS, EXAMPLE_PARTIAL, traced_peak


def truncate(ranks, k):
    """Partial rankings of ``ranks`` at ``k``: ranks above k become 0."""
    ranks = np.asarray(ranks)
    return np.where(ranks <= k, ranks, 0)


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
        with pytest.raises(ValueError, match="run 1: 3 ones, expected 2"):
            RunSet("topk", [[1, 0, 1, 0], [1, 1, 1, 0]])

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
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunSet("full", [[1, 2, 3], [3, 2, 1]], 99)

    def test_fractional_row_is_refused(self):
        with pytest.raises(ValueError, match="run 0: entry 1.5 is not an int64 integer"):
            row_violations("full", [[1.5, 2]], 2)
        with pytest.raises(ValueError, match="run 1: entry nan is not an int64 integer"):
            row_violations("topk", [[1, 0], [float("nan"), 1]], 1)

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
        rng = np.random.default_rng(seed)
        m = np.array([rng.permutation(t) + 1 for _ in range(3)])
        if kind == "partial":
            m = truncate(m, k)
        elif kind == "topk":
            m = (m <= k).astype(np.int64)
        m[data.draw(st.integers(0, 2)), data.draw(st.integers(0, t - 1))] = value
        if 1 <= k <= t:
            assert row_violations(kind, m, k) == [_scan(kind, row.tolist(), k) for row in m]
        else:
            assert row_violations(kind, m, k) == [f"k={k} out of range 1..{t}"] * 3


def shaped_rows(kind, t, k, runs):
    """``runs`` copies of one list over t features, valid where (kind, t, k) is a valid shape."""
    ranks = np.tile(np.arange(1, t + 1), (runs, 1))
    if kind == "partial":
        return truncate(ranks, k)
    return (ranks <= k).astype(np.int64) if kind == "topk" else ranks


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
            body = "".join(",".join(map(str, column)) + "\n" for column in rows.T.tolist())
            text = f"#stabrank v1 kind={kind} t={t} k={k} K={runs}\n{body}"
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
        partial = RunSet("partial", truncate(full_run_set.matrix, EXAMPLE_K), EXAMPLE_K)
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
        partial = RunSet("partial", truncate(ranks, 3), 3)
        assert np.array_equal(partial.matrix, ranks)
        assert 0 not in partial.matrix

    def test_small_truncation(self):
        assert truncate([[1, 2, 3]], 2).tolist() == [[1, 2, 0]]
        partial = RunSet("partial", [[1, 0, 2], [0, 1, 2]], 2)
        assert partial.to_topk().matrix.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_k_out_of_range_rejected(self, full_run_set):
        with pytest.raises(ValueError):
            full_run_set.to_topk(0)
        with pytest.raises(ValueError):
            full_run_set.to_topk(11)
        with pytest.raises(ValueError):
            RunSet("partial", full_run_set.matrix, 11)

    def test_conversions_commute_exhaustively(self):
        # ranks -> masks directly equals ranks -> partial -> masks, for every
        # permutation and cut point up to t = 7 (every permutation is one run)
        for t in range(1, 8):
            ranks = np.array(list(itertools.permutations(range(1, t + 1))) * 2)
            full = RunSet("full", ranks)
            for k in range(1, t + 1):
                direct = full.to_topk(k)
                via_partial = RunSet("partial", truncate(ranks, k), k).to_topk()
                assert direct.k == via_partial.k == k
                assert np.array_equal(direct.matrix, via_partial.matrix)

    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_conversion_outputs_validate(self, perm, k):
        ranks = np.array([perm, perm[::-1]])
        full = RunSet("full", ranks)
        assert row_violations("topk", full.to_topk(k).matrix, k) == [None, None]
        assert row_violations("partial", truncate(ranks, k), k) == [None, None]
        partial = RunSet("partial", truncate(ranks, k), k)
        assert row_violations("topk", partial.to_topk().matrix, k) == [None, None]


class TestRunSet:
    def test_shape_and_kind(self, full_run_set):
        assert full_run_set.kind == "full"
        assert full_run_set.t == 10
        assert full_run_set.k == 10
        assert full_run_set.runs == 5

    def test_requires_two_lists(self):
        with pytest.raises(ValueError, match="at least 2"):
            RunSet("full", np.array([[1, 2, 3]]))

    def test_rejects_invalid_row(self):
        with pytest.raises(ValueError, match="run 1"):
            RunSet("full", np.array([[1, 2, 3], [1, 1, 3]]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            RunSet("ranked", np.array([[1, 2], [2, 1]]))

    def test_rejects_mismatched_partial_counts(self):
        with pytest.raises(ValueError, match="run 1"):
            RunSet("partial", np.array([[1, 2, 0], [1, 0, 0]]), 2)

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

    def test_to_topk_requires_k_for_full(self, full_run_set):
        with pytest.raises(ValueError, match="requires k"):
            full_run_set.to_topk()

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
        mask = np.tile(np.arange(5000) < 1500, (200, 1))
        np.random.default_rng(6).permuted(mask, axis=1, out=mask)
        data = mask.astype(int).tolist() if given is list else mask.astype(given)
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
        partial = RunSet("partial", truncate(ranks, k), k)
        for masks, expected in [
            (full.to_topk(k).matrix, (full.matrix <= k).astype(np.int64)),
            (partial.to_topk().matrix, (partial.matrix != 0).astype(np.int64)),
        ]:
            np.testing.assert_array_equal(masks, expected)
            assert masks.dtype == _storage_dtype("topk", full.t) and masks.flags.c_contiguous
            assert not masks.flags.writeable

    def test_to_topk_peaks_near_one_int64_mask_matrix(self):
        m = np.tile(np.arange(1, 5001), (200, 1))
        np.random.default_rng(4).permuted(m, axis=1, out=m)
        full = RunSet("full", m)
        del m
        _, peak = traced_peak(full.to_topk, 1500)
        assert peak <= 1.3 * full.matrix.nbytes

    def test_example_partial_matches_conversion(self):
        assert truncate(EXAMPLE_FULL, EXAMPLE_K).tolist() == [list(r) for r in EXAMPLE_PARTIAL]

    def test_example_masks_match_conversion(self):
        masks = (np.array(EXAMPLE_FULL) <= EXAMPLE_K).astype(np.int64)
        assert masks.tolist() == [list(r) for r in EXAMPLE_MASKS]


class TestNoCoercion:
    """A matrix entry or a ``k`` that is not an exact integer is refused, never cast."""

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1.9, 2.2], [2, 1]], "run 0: entry 1.9 is not an int64 integer"),
            ([[1, 2], [2, 1.5]], "run 1: entry 1.5 is not an int64 integer"),
            ([["1", "2"], ["2", "1"]], "^matrix must be real numbers, got dtype <U1$"),
            ([[1, 2], [float("nan"), 1]], "run 1: entry nan is not an int64 integer"),
            ([[1, 2], [2, float("inf")]], "run 1: entry inf is not an int64 integer"),
            ([[1, 2], [2, 1 + 0j]], "^matrix must be real numbers, got dtype complex128$"),
            ([[1, 2], [2, 2**70]], f"run 1: entry {2**70} is not an int64 integer"),
            ([[1, 2**63], [2, 1]], f"run 0: entry {2**63} is not an int64 integer"),
            (np.array([[1, 2**63], [2, 1]], dtype=np.uint64), f"run 0: entry {2**63} is not"),
            # asarray reads this list as floats and rounds 2**53 + 1 to 2**53
            ([[1.0, 2**53 + 1], [2**53 + 1, 1.0]], f"^run 0: rank {2**53 + 1} out of range 1..2$"),
        ],
        ids=["fraction", "fraction-run-1", "string", "nan", "inf", "complex",
             "python-int-beyond-int64", "python-int-read-as-float", "uint64-beyond-int64",
             "python-int-above-2**53"],
    )
    def test_rejects_non_integral_matrix(self, matrix, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            with pytest.raises(ValueError, match=message):
                RunSet("full", matrix)

    def test_integral_floats_are_exact(self):
        # refused when fractional, accepted entry for entry when integral
        with pytest.raises(ValueError, match="entry 2.5"):
            RunSet("full", [[1.0, 2.5], [2.0, 1.0]])
        for exact in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1, 2.0], [2, 1]], dtype=object)):
            rs = RunSet("full", exact)
            assert rs.matrix.dtype == _storage_dtype("full", 2)
            assert rs.matrix.tolist() == [[1, 2], [2, 1]]
        # asarray reads this list as floats and rounds 2**63 - 1 up to 2**63
        assert _integers([2**63 - 1, 1.0], "list", ("features",)).tolist() == [2**63 - 1, 1]
        assert _integers([2**53 + 1, 1.0], "list", ("features",)).tolist() == [2**53 + 1, 1]

    @pytest.mark.parametrize("k", [1.5, 1.0, True], ids=["fraction", "float", "bool"])
    def test_run_set_k_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            RunSet("topk", [[1, 0], [0, 1]], k)

    @pytest.mark.parametrize("k", [1.5, 1.0, True], ids=["fraction", "float", "bool"])
    def test_to_topk_k_must_be_an_integer(self, full_run_set, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            full_run_set.to_topk(k)

    def test_to_topk_keeps_a_truncated_run_sets_own_k(self, partial_run_set, mask_run_set):
        assert partial_run_set.to_topk(EXAMPLE_K).k == mask_run_set.to_topk(EXAMPLE_K).k == EXAMPLE_K
        for run_set in (partial_run_set, mask_run_set):
            with pytest.raises(ValueError, match="keep their own k=4, got k=3"):
                run_set.to_topk(3)
            with pytest.raises(TypeError, match="k must be an integer"):
                run_set.to_topk(4.0)
