"""Rank-to-probability map tests against brute-force oracles.

The oracles of ``tests/oracles.py`` evaluate the defining sums term by term
with exact (compensated) summation, independently of the cumulative-sum
implementation under test. Each list is mapped as a row of a run set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrank import (
    RunSet,
    normalizer,
    run_probabilities,
)
from stabrank.probability import _rank_weights
from conftest import random_run_set, read_as
from oracles import oracle_normalizer, oracle_row, oracle_weight
from test_refusals import check_refusal, table_rows


def mapped(kind: str, row, k: int | None = None) -> np.ndarray:
    """``run_probabilities`` of one list (a run set holds it twice)."""
    return run_probabilities(RunSet(kind, [row, row], k))[0]


def weights(t: int) -> np.ndarray:
    """Probability of ranks 1..t in a full ranking over t features."""
    return mapped("full", range(1, t + 1))


class TestProbOfRank:
    def test_hand_evaluated_t2(self):
        assert weights(2) == pytest.approx([0.625, 0.375], abs=1e-15)

    @pytest.mark.parametrize("t", [1, 2, 3, 7, 50, 600, 2000])
    def test_matches_oracle(self, t):
        w = weights(t)
        for rank in {r for r in (1, 2, t // 2, t - 1, t) if 1 <= r <= t}:
            assert w[rank - 1] == pytest.approx(oracle_weight(rank, t), abs=1e-14)

    @pytest.mark.parametrize("t", [1, 2, 5, 33])
    def test_last_rank_closed_form(self, t):
        assert weights(t)[-1] == pytest.approx((1 + 1 / t) / (2 * t), abs=1e-15)

    @pytest.mark.parametrize("t", [1, 2, 3, 10, 211])
    def test_sums_to_one(self, t):
        assert math.fsum(weights(t)) == pytest.approx(1.0, abs=1e-12)


class TestMapFull:
    def test_two_feature_examples(self):
        probs = run_probabilities(RunSet("full", [[1, 2], [2, 1]]))
        assert probs == pytest.approx(np.array([[0.625, 0.375], [0.375, 0.625]]), abs=1e-15)

    @given(st.permutations(list(range(1, 13))))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, perm):
        probs = mapped("full", perm)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)
        assert probs == pytest.approx(oracle_row("full", perm, 12), abs=1e-14)

    def test_strictly_monotone_in_rank(self):
        assert np.all(np.diff(weights(40)) < 0)

    @given(st.permutations(list(range(1, 10))), st.permutations(list(range(9))))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, perm, sigma):
        base = mapped("full", perm)
        relabeled = mapped("full", [perm[i] for i in sigma])
        assert relabeled == pytest.approx([base[i] for i in sigma], abs=0)


class TestMapPartialAndTopk:
    def test_partial_reduces_to_k_long_mapping(self):
        probs = mapped("partial", [1, 2, 0, 0], 2)
        assert probs == pytest.approx([0.625, 0.375, 0.0, 0.0], abs=1e-15)

    def test_partial_with_k_equals_t_matches_full(self):
        ranks = (4, 1, 3, 2)
        assert mapped("partial", ranks, 4) == pytest.approx(mapped("full", ranks), abs=0)

    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partial_sums_to_one_and_zero_support(self, perm, k):
        ranks = read_as("partial", perm, k).tolist()
        probs = mapped("partial", ranks, k)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        assert np.all((probs > 0) == (np.array(ranks) > 0))
        assert probs == pytest.approx(oracle_row("partial", ranks, k), abs=1e-14)

    def test_topk_uniform(self):
        assert mapped("topk", [1, 0, 1, 0], 2) == pytest.approx([0.5, 0.0, 0.5, 0.0], abs=0)

    def test_topk_all_selected_is_uniform(self):
        assert mapped("topk", [1, 1, 1], 3) == pytest.approx([1 / 3] * 3, abs=1e-16)

    def test_example_mask_column(self):
        mask = (1, 1, 1, 0, 0, 0, 0, 0, 1, 0)
        expected = np.where(np.array(mask) == 1, 0.25, 0.0)
        assert mapped("topk", mask, 4) == pytest.approx(expected, abs=0)


class TestRunProbabilities:
    def test_rows_match_per_list_mapping(self, full_run_set, partial_run_set, mask_run_set):
        for rs in (full_run_set, partial_run_set, mask_run_set):
            stacked = run_probabilities(rs)
            assert stacked.shape == (rs.runs, rs.t)
            for row, ranks in zip(stacked, rs.matrix.tolist()):
                assert row == pytest.approx(oracle_row(rs.kind, ranks, rs.k), abs=1e-15)

    @given(
        st.sampled_from(["full", "partial", "topk"]),
        st.sampled_from([1, 2, 7, 10, 11, 12, 181, 182, 999, 2000]),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_the_direct_formulas(self, kind, t, runs, seed):
        """One gather through ``_lookup`` for every kind gives the bits of
        ``matrix / k`` for masks and of indexing ``[0, w_1..w_k]`` by the
        int64 ranks, at every storage width."""
        rng = np.random.default_rng(seed)
        k = t if kind == "full" else int(rng.integers(1, t + 1))
        rs = random_run_set(rng, kind, t, k, runs)
        if kind == "topk":
            want = rs.matrix / float(k)
        else:
            want = _rank_weights(k)[rs.matrix.astype(np.int64)]
        got = run_probabilities(rs)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestNormalizer:
    def test_topk_closed_form_exact(self):
        for t, k in [(10, 4), (2000, 600), (5, 1)]:
            assert normalizer("topk", t, k) == math.log(t) - math.log(k)

    def test_topk_reference_value(self):
        assert normalizer("topk", 2000, 600) == pytest.approx(
            math.log(10 / 3), abs=1e-12
        )

    def test_full_t2_direct_evaluation(self):
        expected = 0.625 * math.log(1.25) + 0.375 * math.log(0.75)
        assert normalizer("full", 2) == pytest.approx(expected, abs=1e-15)
        assert normalizer("full", 2) == pytest.approx(0.0315839424019633, abs=1e-12)

    @pytest.mark.parametrize("t", [2, 3, 10, 77, 600])
    def test_full_matches_brute_force(self, t):
        assert normalizer("full", t) == pytest.approx(oracle_normalizer(t, t), abs=1e-12)

    @pytest.mark.parametrize("t,k", [(10, 3), (2000, 600), (50, 49)])
    def test_partial_matches_brute_force(self, t, k):
        assert normalizer("partial", t, k) == pytest.approx(
            oracle_normalizer(k, t), abs=1e-12
        )

    def test_partial_with_k_equals_t_matches_full(self):
        assert normalizer("partial", 17, 17) == normalizer("full", 17)

    def test_positive_for_proper_sublists(self):
        for t, k in [(3, 1), (3, 2), (100, 99), (100, 1)]:
            assert normalizer("topk", t, k) > 0
            assert normalizer("partial", t, k) > 0

    @table_rows("normalizer-", "k=2.5", "k=2.0", "k=True", "t=10.5", "full-t=10.0", "t='10'")
    def test_non_integer_shape_raises_type_error(self, row):
        check_refusal(row)

    def test_integer_types_accepted(self):
        assert normalizer("topk", np.int64(10), np.int32(2)) == normalizer("topk", 10, 2)
