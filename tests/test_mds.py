"""Distance-matrix construction and classical-MDS projection tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stabrank.mds
from stabrank import (
    DistanceMatrix,
    Embedding,
    ExperimentConfig,
    MdsConvergenceError,
    MetricMismatchError,
    RunSet,
    classical_mds,
    distance_matrix,
    gen_ranking_family,
    gen_subset_family,
    js_pair,
    run_probabilities,
)
from conftest import random_lists, random_run_set, read_as, record_calls

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

    def test_mixed_kinds_rejected(self):
        stable, _ = stable_and_random()
        full = gen_ranking_family(ExperimentConfig(t=40, k=40, runs=3, seed=2))
        with pytest.raises(ValueError, match="mixed"):
            distance_matrix([("a", stable), ("b", full)])
        # one check per rule: kinds that differ at one (t, k), one kind at two k
        partial = RunSet("partial", read_as("partial", full.matrix, 8), 8)
        wider, _ = stable_and_random(k=10)
        for other, message in [(partial, "mixed run set kinds: ['partial', 'topk']"),
                               (wider, "mixed run set shapes (t, k): [(40, 8), (40, 10)]")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                distance_matrix([("a", stable), ("b", other)])

    def test_unknown_distance_and_no_input_rejected(self):
        stable, _ = stable_and_random()
        with pytest.raises(ValueError, match="^unknown distance 'euclid', expected one of "):
            distance_matrix([("a", stable)], distance="euclid")
        with pytest.raises(ValueError, match="^need at least one run set$"):
            distance_matrix([])

    def test_metric_distance_requires_matching_kind(self):
        stable, _ = stable_and_random()
        with pytest.raises(MetricMismatchError):
            distance_matrix([("a", stable)], distance="one-minus-spearman")

    def test_one_minus_kuncheva_distance(self):
        stable, _ = stable_and_random()
        dm = distance_matrix([("s", stable)], distance="one-minus-kuncheva")
        assert np.all(dm.d == 0)

    def test_validation_of_raw_matrices(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(np.array([[0, 1.0], [2.0, 0]]), (("a", 0), ("a", 1)))
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(np.array([[1.0, 1.0], [1.0, 0]]), (("a", 0), ("a", 1)))
        with pytest.raises(ValueError, match="non-negative"):
            DistanceMatrix(np.array([[0, -1.0], [-1.0, 0]]), (("a", 0), ("a", 1)))
        ragged = "^distances must be one rectangular array, not ragged nesting$"
        with pytest.raises(ValueError, match=ragged):
            DistanceMatrix([[0, 1], [1]], (("a", 0), ("a", 1)))  # ragged
        with pytest.raises(ValueError, match="^distance matrix must be square$"):
            DistanceMatrix(np.zeros((2, 3)), (("a", 0), ("a", 1)))
        with pytest.raises(ValueError, match="^one label per point required$"):
            DistanceMatrix(np.zeros((2, 2)), (("a", 0),))
        with pytest.raises(TypeError, match="^labels must be \\(label, run\\) pairs, got 'a'$"):
            DistanceMatrix(np.zeros((2, 2)), ("a", "b"))  # not pairs
        for labels in (None, 5):  # len() would have named no field
            with pytest.raises(TypeError, match=rf"^labels must be a sequence of \(label, run\) "
                                                rf"pairs, got {labels}$"):
                DistanceMatrix(np.zeros((2, 2)), labels)

    def test_run_tag_must_be_an_integer(self):
        # int() would have made run 0.7 into run 0
        with pytest.raises(TypeError, match=r"^run must be an integer, got 0\.7$"):
            DistanceMatrix(np.zeros((2, 2)), (("a", 0.7), ("a", 1)))

    @pytest.mark.parametrize("label", [None, b"x", 0])
    def test_label_must_be_a_str(self, label):
        # str() would have printed None as 'None' and b'x' as "b'x'"
        with pytest.raises(TypeError, match=rf"^label must be a str, got {re.escape(repr(label))}$"):
            DistanceMatrix(np.zeros((2, 2)), (("a", 0), (label, 1)))

    def test_non_numeric_distances_rejected(self):
        # a float cast would have read the strings '1' as 1.0
        with pytest.raises(ValueError, match="distances must be real numbers, got dtype <U1"):
            DistanceMatrix(np.array([["0", "1"], ["1", "0"]]), (("a", 0), ("a", 1)))

    @pytest.mark.parametrize("other", [math.nan, 1.0])
    def test_nan_named_before_symmetry(self, other):
        d = np.array([[0, math.nan], [other, 0]])
        with pytest.raises(ValueError, match="must not contain NaN"):
            DistanceMatrix(d, (("a", 0), ("a", 1)))

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
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(np.array([[0, 1.0], [1.00001, 0]]), labels)
        DistanceMatrix(np.array([[0, 1.0], [1.0 + 1e-13, 0]]), labels)


# an id that names the field and its fault: (coords, eigvals, stress)
MALFORMED_EMBEDDINGS = {
    "coords-1d": (np.zeros(3), (1.0, 2.0), 0.0),
    "coords-3-columns": (np.zeros((3, 3)), (1.0, 2.0), 0.0),
    "coords-nan": (np.array([[0.0, math.nan]]), (1.0, 2.0), 0.0),
    "coords-inf": (np.array([[0.0, math.inf]]), (1.0, 2.0), 0.0),
    "eigvals-one": (np.zeros((3, 2)), (1.0,), 0.0),
    "eigvals-three": (np.zeros((3, 2)), (1.0, 2.0, 3.0), 0.0),
    "eigvals-scalar": (np.zeros((3, 2)), 1.0, 0.0),
    "eigvals-negative": (np.zeros((3, 2)), (1.0, -2.0), 0.0),
    "eigvals-nan": (np.zeros((3, 2)), (math.nan, 2.0), 0.0),
    "eigvals-inf": (np.zeros((3, 2)), (math.inf, 2.0), 0.0),
    "eigvals-string": (np.zeros((3, 2)), ("1", 2.0), 0.0),
    "stress-negative": (np.zeros((3, 2)), (1.0, 2.0), -1.0),
    "stress-nan": (np.zeros((3, 2)), (1.0, 2.0), math.nan),
    "stress-inf": (np.zeros((3, 2)), (1.0, 2.0), math.inf),
    "stress-bool": (np.zeros((3, 2)), (1.0, 2.0), True),
    "stress-None": (np.zeros((3, 2)), (1.0, 2.0), None),
}


class TestEmbedding:
    @pytest.mark.parametrize("case", MALFORMED_EMBEDDINGS)
    def test_refuses_malformed_fields(self, case):
        field = case.split("-")[0]
        with pytest.raises(ValueError, match=f"^{field} must be "):
            Embedding(*MALFORMED_EMBEDDINGS[case])

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

    def test_infinite_distance_raises(self):
        d = np.ones((3, 3)) - np.eye(3)
        d[0, 1] = d[1, 0] = np.inf
        dm = DistanceMatrix(d, (("p", 0), ("p", 1), ("p", 2)))
        with pytest.raises(MdsConvergenceError, match="not finite"):
            classical_mds(dm)

    def test_needs_three_points(self):
        d = np.zeros((2, 2))
        with pytest.raises(ValueError, match="at least 3"):
            classical_mds(DistanceMatrix(d, (("a", 0), ("a", 1))))

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
