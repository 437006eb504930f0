"""Distance-matrix construction and classical-MDS projection tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stabrank.mds
from stabrank import (
    DistanceMatrix,
    Embedding,
    ExperimentConfig,
    RunSet,
    classical_mds,
    distance_matrix,
    gen_ranking_family,
    gen_subset_family,
    js_pair,
    run_probabilities,
)
from conftest import random_lists, random_run_set, record_calls
from test_refusals import check_refusal, table_rows

SQRT_LN2 = math.sqrt(math.log(2.0))


def pairwise(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def stable_and_random(seed=0, t=40, k=8, runs=5):
    stable = gen_subset_family(ExperimentConfig(t=t, k=k, runs=runs, seed=seed, fixed=runs))
    random_ = gen_subset_family(ExperimentConfig(t=t, k=k, runs=runs, seed=seed + 1, fixed=0))
    return stable, random_


def js_pair_loop(labeled_run_sets) -> np.ndarray:
    """sqrt-JS between every two lists, one scalar ``js_pair`` call per pair."""
    points = np.vstack([run_probabilities(rs) for _, rs in labeled_run_sets])
    d = np.zeros((len(points), len(points)))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d[i, j] = d[j, i] = math.sqrt(max(0.0, js_pair(points[i], points[j])))
    return d


def mask_sets(k, *sets):
    """Labeled topk run sets, one per list of 0/1 rows."""
    return [(f"s{n}", RunSet("topk", np.array(rows), k)) for n, rows in enumerate(sets)]


@st.composite
def labeled_mask_run_sets(draw):
    """1-3 topk run sets of one shape, 2-6 runs each, rows drawn from a small
    pool of masks so that identical rows are common."""
    t = draw(st.integers(1, 30))
    k = draw(st.integers(1, t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = random_lists(rng, "topk", t, k, draw(st.integers(1, 8)))
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    return mask_sets(k, *(pool[rng.integers(0, len(pool), size)] for size in sizes))


class TestSqrtJsOnMasks:
    """Masks read sqrt-JS from the Gram overlaps, bit for bit the ``js_pair`` loop."""

    @given(labeled_mask_run_sets())
    @example(mask_sets(1, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]]))
    @example(mask_sets(5, [[1, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1, 1]]))
    @example(mask_sets(4, [[1, 1, 1, 1], [1, 1, 1, 1]], [[1, 1, 1, 1], [1, 1, 1, 1]]))
    @example(mask_sets(2, [[0, 1, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0]]))
    @example(mask_sets(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    @settings(max_examples=200, deadline=None)
    def test_matches_js_pair_loop(self, labeled):
        np.testing.assert_array_equal(distance_matrix(labeled).d, js_pair_loop(labeled))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 40, 199])
    def test_matches_js_pair_loop_at_t200(self, seed, k):
        rng = np.random.default_rng(seed)
        labeled = []
        for label, fixed in (("a", 20), ("b", 0)):
            labeled.append((label, random_run_set(rng, "full", 200, 200, 30, fixed).to_topk(k)))
        np.testing.assert_array_equal(distance_matrix(labeled).d, js_pair_loop(labeled))

    def test_no_js_pair_calls_on_masks(self, monkeypatch):
        calls = record_calls(monkeypatch, stabrank.mds, "js_pair")
        stable, random_ = stable_and_random()
        distance_matrix([("s", stable), ("r", random_)])
        assert calls == []
        full = gen_ranking_family(ExperimentConfig(t=20, k=20, runs=6, seed=1))
        distance_matrix([("f", full)])
        assert len(calls) == 6 * 5 // 2


class TestDistanceMatrix:
    def test_identical_lists_at_distance_zero(self):
        stable, _ = stable_and_random()
        dm = distance_matrix([("s", stable)])
        assert np.all(dm.d == 0)

    def test_disjoint_masks_at_sqrt_ln2(self):
        rs = RunSet("topk", np.array([[1, 1, 0, 0], [0, 0, 1, 1]]), 2)
        dm = distance_matrix([("x", rs)])
        assert dm.d[0, 1] == pytest.approx(SQRT_LN2, abs=1e-12)

    def test_labels_carry_origin(self):
        stable, random_ = stable_and_random()
        dm = distance_matrix([("alpha", stable), ("beta", random_)])
        assert dm.labels[0] == ("alpha", 0)
        assert dm.labels[5] == ("beta", 0)
        assert dm.n == 10

    def test_triangle_inequality_on_random_triples(self):
        _, random_ = stable_and_random(seed=5)
        dm = distance_matrix([("r", random_)])
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, l = rng.integers(0, dm.n, size=3)
            assert dm.d[i, j] <= dm.d[i, l] + dm.d[l, j] + 1e-12

    def test_one_minus_kuncheva_distance(self):
        stable, _ = stable_and_random()
        dm = distance_matrix([("s", stable)], distance="one-minus-kuncheva")
        assert np.all(dm.d == 0)

    @table_rows("DistanceMatrix-label-", "None", ("x", "bytes"), "0")
    def test_label_must_be_a_str(self, row):
        check_refusal(row)

    @table_rows("DistanceMatrix-nan-and-", "nan", ("1.0", "1"))
    def test_nan_named_before_symmetry(self, row):
        check_refusal(row)

    def test_callers_array_stays_writable_and_independent(self):
        # the array rule makes no copy, so DistanceMatrix must take its own
        # before it freezes it
        given = np.ones((3, 3)) - np.eye(3)
        dm = DistanceMatrix(given, (("a", 0), ("a", 1), ("a", 2)))
        assert given.flags.writeable and not dm.d.flags.writeable
        assert not np.shares_memory(given, dm.d)
        given[0, 1] = given[1, 0] = 5.0
        assert dm.d[0, 1] == 1.0

    def test_asymmetry_beyond_absolute_tolerance_rejected(self):
        # a relative tolerance would let 1.0 vs 1.00001 through, and
        # classical_mds reads only one triangle of the matrix
        labels = (("a", 0), ("a", 1))
        with pytest.raises(ValueError) as refused:
            DistanceMatrix(np.array([[0, 1.0], [1.00001, 0]]), labels)
        assert str(refused.value) == "distance matrix must be symmetric"
        DistanceMatrix(np.array([[0, 1.0], [1.0 + 1e-13, 0]]), labels)


class TestEmbedding:
    @table_rows("Embedding-", "coords-1d", "coords-3-columns", "coords-nan", "coords-inf",
                "eigvals-one", "eigvals-three", "eigvals-scalar", "eigvals-negative",
                "eigvals-nan", "eigvals-inf", "eigvals-string", "stress-negative", "stress-nan",
                "stress-inf", "stress-bool", "stress-None")
    def test_refuses_malformed_fields(self, row):
        check_refusal(row)

    def test_coords_cast_and_frozen_like_distance_matrix(self):
        source = np.array([[1, 2], [3, 4], [5, 6]])
        emb = Embedding(source, np.array([2, 1]), 0)
        assert emb.coords.dtype == np.float64 and not emb.coords.flags.writeable
        assert emb.eigvals == (2.0, 1.0) and type(emb.eigvals[0]) is float
        assert type(emb.stress) is float
        source[0, 0] = 9
        assert emb.coords[0, 0] == 1.0

    def test_callers_float64_array_stays_writable_and_independent(self):
        # the array rule makes no copy, so Embedding must take its own before
        # it freezes it
        given = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        emb = Embedding(given, (2.0, 1.0), 0.0)
        assert given.flags.writeable and not np.shares_memory(given, emb.coords)
        given[0, 0] = 9.0
        assert emb.coords[0, 0] == 1.0


def equilateral_dm():
    d = np.ones((3, 3)) - np.eye(3)
    return DistanceMatrix(d, (("p", 0), ("p", 1), ("p", 2)))


class TestClassicalMds:
    def test_equilateral_triangle_reconstructs(self):
        emb = classical_mds(equilateral_dm())
        recon = pairwise(emb.coords)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.max(np.abs(recon - expected)) < 1e-6
        assert emb.eigvals[0] == pytest.approx(0.5, abs=1e-8)
        assert emb.eigvals[1] == pytest.approx(0.5, abs=1e-8)
        assert emb.stress < 1e-7

    def test_all_identical_points_collapse(self):
        d = np.zeros((4, 4))
        emb = classical_mds(DistanceMatrix(d, tuple(("a", i) for i in range(4))))
        assert np.all(emb.coords == emb.coords[0])
        assert emb.eigvals == (0.0, 0.0)

    def test_duplicated_point_coincides(self):
        # points {A, A, B} at distance 1: the two A copies embed together, on a
        # line whose second axis, rounding noise in eigh, is exactly 0
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        emb = classical_mds(DistanceMatrix(d, (("a", 0), ("a", 1), ("b", 0))))
        assert np.linalg.norm(emb.coords[0] - emb.coords[1]) < 1e-8
        assert np.linalg.norm(emb.coords[0] - emb.coords[2]) == pytest.approx(1.0, abs=1e-6)
        assert np.all(emb.coords[:, 1] == 0) and not np.signbit(emb.coords[:, 1]).any()
        assert emb.eigvals[1] == 0.0
        assert emb.stress < 1e-15

    def test_planar_euclidean_input_reproduced(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(8, 2))
        d = pairwise(points)
        emb = classical_mds(DistanceMatrix(d, tuple(("p", i) for i in range(8))))
        assert np.max(np.abs(pairwise(emb.coords) - d)) < 1e-6
        assert emb.stress < 1e-6

    def test_relabeling_invariance_up_to_isometry(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(7, 2))
        d = pairwise(points)
        labels = tuple(("p", i) for i in range(7))
        perm = rng.permutation(7)
        emb_a = classical_mds(DistanceMatrix(d, labels))
        emb_b = classical_mds(DistanceMatrix(d[np.ix_(perm, perm)], labels))
        da = pairwise(emb_a.coords)[np.ix_(perm, perm)]
        db = pairwise(emb_b.coords)
        assert np.max(np.abs(da - db)) < 1e-6

    def test_deterministic(self):
        emb_a = classical_mds(equilateral_dm())
        emb_b = classical_mds(equilateral_dm())
        assert np.array_equal(emb_a.coords, emb_b.coords)
        # sign convention: each axis's largest-magnitude entry is positive
        for axis in emb_a.coords.T:
            assert axis[np.argmax(np.abs(axis))] > 0

    def test_near_tied_trailing_eigenvalues(self):
        # 30 centred points in 3D with axis powers 4, 1 and 1 - 1e-6: the 2nd
        # and 3rd eigenvalues nearly tie, which an iterative solver may not
        # separate in any number of steps
        rng = np.random.default_rng(0)
        points = rng.standard_normal((30, 3))
        points -= points.mean(axis=0)
        axes, _ = np.linalg.qr(points)
        points = axes * np.sqrt([4.0, 1.0, 1.0 - 1e-6])
        emb = classical_mds(DistanceMatrix(pairwise(points), tuple(("p", i) for i in range(30))))
        assert emb.eigvals[0] == pytest.approx(4.0, abs=1e-9)
        assert emb.eigvals[1] == pytest.approx(1.0, abs=1e-9)

    def test_negative_eigenvalues_clamped(self):
        # a 4-point star metric that is not Euclidean-embeddable in 2D
        d = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 2.0, 2.0],
                [1.0, 2.0, 0.0, 2.0],
                [1.0, 2.0, 2.0, 0.0],
            ]
        )
        emb = classical_mds(DistanceMatrix(d, tuple(("a", i) for i in range(4))))
        assert emb.eigvals[0] >= emb.eigvals[1] >= 0.0
        assert np.all(np.isfinite(emb.coords))

    def test_stable_cluster_tight_random_cluster_spread(self):
        stable, random_ = stable_and_random(seed=11, t=60, k=12, runs=6)
        dm = distance_matrix([("stable", stable), ("random", random_)])
        emb = classical_mds(dm)
        within_stable = pairwise(emb.coords[:6])[np.triu_indices(6, 1)].mean()
        within_random = pairwise(emb.coords[6:])[np.triu_indices(6, 1)].mean()
        assert within_random > 0
        assert within_stable / within_random < 0.01
