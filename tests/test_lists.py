"""Representation, validation and conversion tests for the list model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrank import (
    FullRanking,
    PartialRanking,
    RunSet,
    TopKMask,
    full_to_partial,
    full_to_topk,
    partial_to_topk,
    row_violations,
    validate,
)
from conftest import EXAMPLE_FULL, EXAMPLE_K, EXAMPLE_MASKS, EXAMPLE_PARTIAL


class TestValidate:
    def test_valid_permutation(self):
        assert validate(FullRanking((3, 1, 2))) is None

    def test_duplicate_rank(self):
        assert validate(FullRanking((1, 1, 3))) == "duplicate rank 1"

    def test_rank_out_of_range(self):
        assert validate(FullRanking((1, 2, 4))) == "rank 4 out of range 1..3"

    def test_mask_wrong_count(self):
        assert validate(TopKMask((1, 0, 1, 1), k=2)) == "3 ones, expected 2"

    def test_mask_bad_entry(self):
        assert validate(TopKMask((1, 0, 2, 0), k=2)) == "entry 2 is not 0 or 1"

    def test_mask_valid(self):
        assert validate(TopKMask((1, 0, 1, 0), k=2)) is None

    def test_mask_infers_k(self):
        assert TopKMask((1, 0, 1, 0)).k == 2

    def test_partial_valid(self):
        assert validate(PartialRanking((2, 0, 1, 0), k=2)) is None

    def test_partial_duplicate(self):
        assert validate(PartialRanking((1, 0, 1, 0), k=2)) == "duplicate rank 1"

    def test_partial_wrong_count(self):
        assert validate(PartialRanking((2, 1, 3, 0), k=2)) == "3 ranked entries, expected 2"

    def test_partial_rank_exceeds_k(self):
        assert validate(PartialRanking((3, 1, 0, 0), k=2)) == "rank 3 out of range 1..2"

    def test_k_out_of_range(self):
        assert validate(TopKMask((0, 0, 0), k=0)) == "k=0 out of range 1..3"

    @given(
        st.sampled_from(["full", "partial", "topk"]),
        st.integers(1, 7),
        st.integers(0, 100),
        st.integers(-2, 8),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_violations_match_per_row_scan(self, kind, t, seed, value, data):
        # valid rows of one kind with one entry overwritten, k one beyond its
        # range on either side included: the vectorised check flags a row
        # exactly when the per-row scan finds a problem, with its message
        k = t if kind == "full" else data.draw(st.integers(0, t + 1))
        rng = np.random.default_rng(seed)
        m = np.array([rng.permutation(t) + 1 for _ in range(3)])
        if kind == "partial":
            m = np.where(m <= k, m, 0)
        elif kind == "topk":
            m = (m <= k).astype(np.int64)
        m[data.draw(st.integers(0, 2)), data.draw(st.integers(0, t - 1))] = value
        typed = {"full": FullRanking, "partial": PartialRanking, "topk": TopKMask}[kind]
        expected = [validate(typed(row) if kind == "full" else typed(row, k)) for row in m]
        assert row_violations(kind, m, k) == expected


EXAMPLE_FIRST_RUN = FullRanking(EXAMPLE_FULL[0])


class TestConversions:
    def test_example_run_to_mask(self):
        mask = full_to_topk(EXAMPLE_FIRST_RUN, EXAMPLE_K)
        assert mask.selected == (1, 1, 1, 0, 0, 0, 0, 0, 1, 0)
        assert mask.k == EXAMPLE_K

    def test_example_run_to_partial(self):
        partial = full_to_partial(EXAMPLE_FIRST_RUN, EXAMPLE_K)
        assert partial.ranks == (3, 2, 4, 0, 0, 0, 0, 0, 1, 0)

    def test_example_partial_to_mask(self):
        partial = PartialRanking((3, 2, 4, 0, 0, 0, 0, 0, 1, 0), 4)
        assert partial_to_topk(partial).selected == (1, 1, 1, 0, 0, 0, 0, 0, 1, 0)

    def test_k_equals_t_selects_everything(self):
        ranking = FullRanking((2, 3, 1))
        assert full_to_topk(ranking, 3).selected == (1, 1, 1)

    def test_k_one_keeps_best(self):
        assert full_to_topk(FullRanking((2, 1, 3)), 1).selected == (0, 1, 0)

    def test_partial_at_k_equals_t_is_the_ranking(self):
        ranking = FullRanking((2, 3, 1))
        partial = full_to_partial(ranking, 3)
        assert partial.ranks == ranking.ranks
        assert 0 not in partial.ranks

    def test_small_truncation(self):
        assert full_to_partial(FullRanking((1, 2, 3)), 2).ranks == (1, 2, 0)
        assert partial_to_topk(PartialRanking((1, 0, 2), 2)).selected == (1, 0, 1)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            full_to_topk(EXAMPLE_FIRST_RUN, 0)
        with pytest.raises(ValueError):
            full_to_partial(EXAMPLE_FIRST_RUN, 11)

    def test_conversions_commute_exhaustively(self):
        # full_to_topk == partial_to_topk . full_to_partial for every
        # permutation and cut point up to t = 7
        for t in range(1, 8):
            for perm in itertools.permutations(range(1, t + 1)):
                ranking = FullRanking(perm)
                for k in range(1, t + 1):
                    direct = full_to_topk(ranking, k)
                    via_partial = partial_to_topk(full_to_partial(ranking, k))
                    assert direct == via_partial

    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_conversion_outputs_validate(self, perm, k):
        ranking = FullRanking(perm)
        assert validate(full_to_topk(ranking, k)) is None
        assert validate(full_to_partial(ranking, k)) is None
        assert validate(partial_to_topk(full_to_partial(ranking, k))) is None


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

    def test_from_lists_round_trip(self):
        lists = [FullRanking((1, 2, 3)), FullRanking((3, 2, 1))]
        rs = RunSet.from_lists(lists)
        assert rs.lists() == tuple(lists)

    def test_from_lists_rejects_mixed_kinds(self):
        with pytest.raises(ValueError, match="mixed"):
            RunSet.from_lists([FullRanking((1, 2)), TopKMask((1, 0), 1)])

    def test_to_topk_from_full(self, full_run_set, mask_run_set):
        assert np.array_equal(full_run_set.to_topk(EXAMPLE_K).matrix, mask_run_set.matrix)

    def test_to_topk_from_partial(self, partial_run_set, mask_run_set):
        assert np.array_equal(partial_run_set.to_topk().matrix, mask_run_set.matrix)

    def test_to_topk_requires_k_for_full(self, full_run_set):
        with pytest.raises(ValueError, match="requires k"):
            full_run_set.to_topk()

    def test_example_partial_matches_conversion(self, full_run_set):
        converted = [
            full_to_partial(FullRanking(run), EXAMPLE_K).ranks for run in EXAMPLE_FULL
        ]
        assert tuple(converted) == EXAMPLE_PARTIAL

    def test_example_masks_match_conversion(self):
        converted = [
            full_to_topk(FullRanking(run), EXAMPLE_K).selected for run in EXAMPLE_FULL
        ]
        assert tuple(converted) == EXAMPLE_MASKS
