"""Baseline similarity metrics and the pairwise-average reduction.

Brute-force oracles: set arithmetic for the mask metrics (enumerated
exhaustively at small t) and a literal term-by-term sum for Spearman. The
column-sum means of ``pairwise_stability`` are held to the compensated mean
of the ``similarity_matrix`` upper triangle, and the float32 mask Gram to
the float64 one.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrank import (
    MetricMismatchError,
    RunSet,
    jaccard,
    kuncheva,
    pairwise_stability,
    similarity_matrix,
    spearman,
)
from stabrank import baselines
from conftest import EXAMPLE_MASKS, random_run_set, traced_peak
from oracles import oracle_spearman


class TestSpearman:
    def test_identical_is_one(self):
        assert spearman((1, 3, 2), (1, 3, 2)) == 1.0

    def test_reversal_reaches_minus_one(self):
        # the coefficient is computed as defined, without clamping to [0, 1]
        assert spearman((1, 2, 3), (3, 2, 1)) == pytest.approx(-1.0, abs=1e-15)
        assert spearman((1, 2), (2, 1)) == pytest.approx(-1.0, abs=1e-15)

    def test_requires_two_features(self):
        with pytest.raises(ValueError):
            spearman((1,), (1,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman((1, 2), (1, 2, 3))

    @given(st.permutations(list(range(1, 8))), st.permutations(list(range(1, 8))))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_oracle(self, a, b):
        value = spearman(a, b)
        assert value == spearman(b, a)
        assert value == pytest.approx(oracle_spearman(a, b), abs=1e-12)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((1, 2, 3), (1, 1, 1), "^second list is not a full ranking: duplicate rank 1$"),
            ((0, 1, 2), (1, 2, 3), "^first list is not a full ranking: rank 0 out of range 1..3$"),
            ((1.5, 2, 3), (1, 2, 3), "^first list: entry 1.5 is not an int64 integer$"),
            ([[1, 2], [2, 1]], (1, 2), r"^first list must be 1-dimensional \(features\)$"),
            ((1.0, 2**53 + 1), (1, 2),
             f"^first list is not a full ranking: rank {2**53 + 1} out of range 1..2$"),
        ],
        ids=["duplicate", "zero-rank", "fraction", "two-dimensional", "int-above-2**53"],
    )
    def test_rejects_non_permutations(self, first, second, message):
        with pytest.raises(ValueError, match=message):
            spearman(first, second)


class TestKuncheva:
    def test_identical_masks_score_exactly_one(self):
        mask = (1, 0, 1, 1, 0, 0)
        assert kuncheva(mask, mask) == 1.0

    def test_chance_level_overlap_scores_zero(self):
        # t=8, k=4: chance overlap k^2/t = 2 features
        a = (1, 1, 1, 1, 0, 0, 0, 0)
        b = (0, 0, 1, 1, 1, 1, 0, 0)
        assert kuncheva(a, b) == 0.0

    def test_example_runs_1_and_2(self):
        assert kuncheva(EXAMPLE_MASKS[0], EXAMPLE_MASKS[1]) == pytest.approx(
            1 / 6, abs=1e-15
        )

    def test_negative_below_chance(self):
        a = (1, 1, 0, 0)
        b = (0, 0, 1, 1)
        assert kuncheva(a, b) < 0

    def test_degenerate_k(self):
        with pytest.raises(ValueError):
            kuncheva((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            kuncheva((1, 1, 1), (1, 1, 1))

    def test_mismatched_counts(self):
        with pytest.raises(ValueError):
            kuncheva((1, 1, 0, 0), (1, 0, 0, 0))

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((2, 0, 0, 0), (0, 1, 1, 0), "^first list is not a 0/1 mask: entry 2 is not 0 or 1$"),
            ((1, 1, 0, 0), (1, -1, 1, 1), "^second list is not a 0/1 mask: entry -1 is not 0 or 1$"),
            ((1, 0.5, 0, 0), (1, 0, 0, 0), "^first list: entry 0.5 is not an int64 integer$"),
            ((1, 0, 1), (1, 1), r"^length mismatch: \(3,\) vs \(2,\)$"),
        ],
        ids=["two", "negative", "fraction", "length-mismatch"],
    )
    def test_rejects_non_binary(self, first, second, message):
        with pytest.raises(ValueError, match=message):
            kuncheva(first, second)

    def test_exhaustive_set_arithmetic_oracle(self):
        t = 6
        for k in (1, 2, 3, 5):
            for sa in itertools.combinations(range(t), k):
                for sb in itertools.combinations(range(t), k):
                    a = tuple(1 if i in sa else 0 for i in range(t))
                    b = tuple(1 if i in sb else 0 for i in range(t))
                    o = len(set(sa) & set(sb))
                    expected = (o * t - k * k) / (k * (t - k))
                    assert kuncheva(a, b) == pytest.approx(expected, abs=1e-14)


class TestJaccard:
    def test_identical_is_one(self):
        assert jaccard((1, 0, 1), (1, 0, 1)) == 1.0

    def test_disjoint_is_zero(self):
        assert jaccard((1, 1, 0, 0), (0, 0, 1, 1)) == 0.0

    def test_example_runs_1_and_2(self):
        assert jaccard(EXAMPLE_MASKS[0], EXAMPLE_MASKS[1]) == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            jaccard((0, 0), (0, 0))

    def test_exhaustive_set_arithmetic_oracle(self):
        t = 5
        for k in (1, 2, 4):
            for sa in itertools.combinations(range(t), k):
                for sb in itertools.combinations(range(t), k):
                    a = tuple(1 if i in sa else 0 for i in range(t))
                    b = tuple(1 if i in sb else 0 for i in range(t))
                    o = len(set(sa) & set(sb))
                    union = len(set(sa) | set(sb))
                    assert jaccard(a, b) == pytest.approx(o / union, abs=1e-14)
                    assert 0.0 <= jaccard(a, b) <= 1.0

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((2, 0, 0), (1, 0, 0), "^first list is not a 0/1 mask: entry 2 is not 0 or 1$"),
            ((1, 0, 0), (1, 0, -1), "^second list is not a 0/1 mask: entry -1 is not 0 or 1$"),
            ((1, 0, 0), (1.5, 0, 0), "^second list: entry 1.5 is not an int64 integer$"),
            ((1, 0), (1, 0, 0), r"^length mismatch: \(2,\) vs \(3,\)$"),
        ],
        ids=["two", "negative", "fraction", "length-mismatch"],
    )
    def test_rejects_non_binary(self, first, second, message):
        with pytest.raises(ValueError, match=message):
            jaccard(first, second)


class TestPairwiseStability:
    def test_identical_lists_give_phi_one(self):
        rows = np.tile([2, 1, 4, 3, 5], (6, 1))
        rs = RunSet("full", rows)
        assert pairwise_stability(rs, "spearman").phi == 1.0

    def test_two_runs_equal_single_pair(self, mask_run_set):
        rs = RunSet("topk", mask_run_set.matrix[:2], mask_run_set.k)
        result = pairwise_stability(rs, "kuncheva")
        assert result.phi == pytest.approx(1 / 6, abs=1e-15)

    def test_pair_values_mean_matches_phi(self, mask_run_set):
        pairs = similarity_matrix(mask_run_set, "kuncheva")[np.triu_indices(5, 1)]
        assert len(pairs) == 10
        assert pairwise_stability(mask_run_set, "kuncheva").phi == pytest.approx(
            math.fsum(pairs) / 10, abs=1e-12
        )
        assert pairs[0] == pytest.approx(1 / 6, abs=1e-15)

    def test_vectorised_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        rows = np.array([rng.permutation(9) + 1 for _ in range(6)])
        full = RunSet("full", rows)
        masks = full.to_topk(3)
        for run_set, metric, func in (
            (full, "spearman", spearman),
            (masks, "kuncheva", kuncheva),
            (masks, "jaccard", jaccard),
        ):
            got = similarity_matrix(run_set, metric)
            want = np.array(
                [[func(run_set.matrix[i], run_set.matrix[j]) for j in range(6)] for i in range(6)]
            )
            assert got == pytest.approx(want, abs=0)

    def test_list_order_invariance(self, mask_run_set):
        reference = pairwise_stability(mask_run_set, "jaccard").phi
        shuffled = RunSet("topk", mask_run_set.matrix[::-1], mask_run_set.k)
        assert pairwise_stability(shuffled, "jaccard").phi == pytest.approx(
            reference, abs=1e-13
        )

    def test_kind_mismatch_raises(self, full_run_set, mask_run_set):
        with pytest.raises(MetricMismatchError):
            pairwise_stability(full_run_set, "kuncheva")
        with pytest.raises(MetricMismatchError):
            pairwise_stability(mask_run_set, "spearman")

    def test_unknown_metric(self, full_run_set):
        with pytest.raises(ValueError, match="unknown metric"):
            pairwise_stability(full_run_set, "kendall")

    def test_similarity_matrix_is_symmetric_with_unit_diagonal(self, full_run_set, mask_run_set):
        for run_set, metric in (
            (full_run_set, "spearman"),
            (mask_run_set, "kuncheva"),
            (mask_run_set, "jaccard"),
        ):
            got = similarity_matrix(run_set, metric)
            assert got.shape == (run_set.runs, run_set.runs)
            assert np.array_equal(got, got.T)
            assert np.all(np.diag(got) == 1.0)

    def test_similarity_matrix_degenerate_shapes(self):
        with pytest.raises(ValueError, match="at least 2 features"):
            similarity_matrix(RunSet("full", [[1], [1]]), "spearman")
        with pytest.raises(ValueError, match="undefined for k=3 of t=3"):
            similarity_matrix(RunSet("topk", [[1, 1, 1], [1, 1, 1]], 3), "kuncheva")

    @given(
        st.sampled_from(["spearman", "kuncheva"]),
        st.integers(2, 40),
        st.integers(2, 15),
        st.integers(0, 15),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_column_sum_means_match_triangle_fsum(self, metric, t, runs, fixed, seed):
        rng = np.random.default_rng(seed)
        rows = np.array([rng.permutation(t) + 1 for _ in range(runs)])
        rows[:fixed] = rows[0]
        run_set = RunSet("full", rows)
        if metric == "kuncheva":
            run_set = run_set.to_topk(int(rng.integers(1, t)))
        pairs = similarity_matrix(run_set, metric)[np.triu_indices(runs, 1)]
        assert pairwise_stability(run_set, metric).phi == pytest.approx(
            math.fsum(pairs) / len(pairs), abs=1e-15
        )

    def test_column_sum_means_raise_like_similarity_matrix(self, full_run_set, mask_run_set):
        for run_set, metric in (
            (RunSet("full", [[1], [1]]), "spearman"),
            (RunSet("topk", [[1, 1, 1], [1, 1, 1]], 3), "kuncheva"),
            (full_run_set, "kuncheva"),
            (mask_run_set, "spearman"),
            (full_run_set, "kendall"),
        ):
            with pytest.raises(ValueError) as want:
                similarity_matrix(run_set, metric)
            with pytest.raises(ValueError) as got:
                pairwise_stability(run_set, metric)
            assert (got.type, str(got.value)) == (want.type, str(want.value))

    def test_random_rankings_average_near_zero(self):
        rng = np.random.default_rng(77)
        rows = np.array([rng.permutation(2000) + 1 for _ in range(100)])
        phi = pairwise_stability(RunSet("full", rows), "spearman").phi
        assert abs(phi) <= 0.05


def copy_width(rs: RunSet) -> float:
    """Peak bytes per cell of one ``_gram`` call: with t much larger than K,
    the width of the float copy it multiplies the lists in."""
    return traced_peak(baselines._gram, rs.kind, rs.matrix)[1] / rs.matrix.size


class TestGram:
    """Mask Grams multiply in float32 below 2**24 features, and exactly, in
    feature blocks that change no entry; every Gram is returned in float64."""

    @pytest.mark.parametrize("t, k, runs", [(300, 90, 40), (20000, 15000, 8)])
    def test_float32_gram_equals_float64_gram(self, t, k, runs):
        rs = random_run_set(np.random.default_rng(t), "topk", t, k, runs)
        gram = baselines._gram(rs.kind, rs.matrix)
        assert gram.dtype == np.float64
        m = rs.matrix.astype(np.float64)
        np.testing.assert_array_equal(gram, m @ m.T)

    @pytest.mark.parametrize("limit, dtype", [(0, np.float64), (1, np.float32)])
    def test_guard_on_either_side_of_the_limit(self, monkeypatch, limit, dtype):
        rs = random_run_set(np.random.default_rng(5), "topk", 3000, 900, 40)
        expected = {m: similarity_matrix(rs, m) for m in ("kuncheva", "jaccard")}
        monkeypatch.setattr(baselines, "_FLOAT32_EXACT", rs.t + limit)
        assert int(copy_width(rs)) == np.dtype(dtype).itemsize
        for metric, want in expected.items():
            np.testing.assert_array_equal(similarity_matrix(rs, metric), want)

    def test_rankings_stay_float64(self):
        rs = random_run_set(np.random.default_rng(4), "full", 3000, 3000, 40)
        assert int(copy_width(rs)) == 8

    @pytest.mark.parametrize("t, tolerance", [(300_000, 0.0), (1_000_000, 1e-13)])
    def test_ranking_gram_exact_up_to_its_stated_bound(self, t, tolerance):
        # the sum of squared ranks is just below 2**53 at t = 3e5 and past it at 1e6
        assert (t * (t + 1) * (2 * t + 1) // 6 < 2**53) == (tolerance == 0.0)
        rs = random_run_set(np.random.default_rng(8), "full", t, t, 3)
        got = similarity_matrix(rs, "spearman")
        for i, j in itertools.combinations(range(3), 2):
            want = spearman(rs.matrix[i], rs.matrix[j])
            assert abs(got[i, j] - want) <= tolerance, (i, j, got[i, j] - want)

    @pytest.mark.parametrize("kind", ["topk", "full"])
    @pytest.mark.parametrize("block", ["one", "runs", "7 runs"])
    def test_feature_blocks_leave_the_gram_unchanged(self, monkeypatch, kind, block):
        rs = random_run_set(np.random.default_rng(6), kind, 300, 90, 40)  # full ignores k
        want = baselines._gram(rs.kind, rs.matrix)
        monkeypatch.setattr(baselines, "_GRAM_BLOCK", {"one": 1, "runs": 40, "7 runs": 280}[block])
        got = baselines._gram(rs.kind, rs.matrix)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("block", [None, 200 * 500])
    def test_float_copy_is_bounded_by_the_block(self, monkeypatch, block):
        # K=200, t=5000 fits in one default block; the smaller block shows the
        # bound below the 4 MB float32 copy of the whole matrix
        if block is not None:
            monkeypatch.setattr(baselines, "_GRAM_BLOCK", block)
        rs = random_run_set(np.random.default_rng(7), "topk", 5000, 1000, 200)
        runs, t = rs.matrix.shape
        _, peak = traced_peak(baselines._gram, rs.kind, rs.matrix)
        copy = 4 * min(runs * t, max(baselines._GRAM_BLOCK, runs))
        assert peak <= copy + 2 * 4 * runs * runs + 64 * 1024
