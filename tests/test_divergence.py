"""Divergence and stability-score tests.

``js_multi`` is held to ``fsum_js_multi`` and to an O(t) bound on its
working memory, and the mask scores to ``decimal_d_js``; the oracles are
described in ``tests/oracles.py``, and criterion 08 holds ``s_js`` to the
entropy identity. ``TestRowBlocks`` holds the d_js of rankings mapped a
block of rows at a time to that of the whole matrix, by ``float.hex``.
``kl``, ``js_pair`` and ``js_multi`` are held bit for bit to their 0.5.2
bodies (``v052_*``), which form the KL terms one row at a time, and so is
``TestChunks``' reduction a chunk of rows at a time. Every input their check
refuses has a row in ``tests/test_refusals.py`` or in the cross table of
``tests/test_array_rule.py``.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabrank import (
    RunSet,
    SupportMismatchError,
    js_multi,
    js_pair,
    js_stability,
    kl,
    run_probabilities,
)
from stabrank import divergence
from stabrank.lists import _integers
from conftest import random_lists, random_run_set, record_calls, traced_peak
from oracles import decimal_d_js, fsum_js_multi
from test_refusals import check_refusal, table_rows

LN2 = math.log(2.0)


@st.composite
def run_sets_with_fixed_rows(draw):
    kind = draw(st.sampled_from(["full", "partial", "topk"]))
    t = draw(st.integers(2, 30))
    k = t if kind == "full" else draw(st.integers(1, t - 1))
    runs = draw(st.integers(2, 12))
    fixed = draw(st.integers(0, runs))
    return random_run_set(draw(st.integers(0, 2**32 - 1)), kind, t, k, runs, fixed)


@st.composite
def prob_vector_pairs(draw):
    n = draw(st.integers(2, 12))
    def vec():
        raw = draw(
            st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=n, max_size=n)
        )
        arr = np.array(raw)
        return arr / arr.sum()
    return vec(), vec()


class TestKl:
    def test_zero_for_identical(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl(p, p) == 0.0

    def test_single_term_value(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    @given(prob_vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, pq):
        p, q = pq
        assert kl(p, q) >= 0.0


class TestJsPair:
    def test_zero_for_identical(self):
        p = np.array([0.25, 0.75])
        assert js_pair(p, p) == 0.0

    def test_disjoint_support_reaches_ln2(self):
        assert js_pair([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-15)

    @given(prob_vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, pq):
        p, q = pq
        forward = js_pair(p, q)
        assert forward == pytest.approx(js_pair(q, p), abs=1e-13)
        assert -1e-15 <= forward <= LN2 + 1e-12


class TestJsMulti:
    def test_identical_rows_give_exact_zero(self):
        p = np.tile([0.25, 0.5, 0.25], (7, 1))
        assert js_multi(p) == 0.0

    def test_two_rows_match_js_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert js_multi([p, q]) == pytest.approx(js_pair(p, q), abs=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(6)
        rows = rng.dirichlet(np.ones(5), size=4)
        reference = js_multi(rows)
        for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)]:
            assert js_multi(rows[list(perm)]) == pytest.approx(reference, abs=1e-13)

    def test_empty_vectors_give_zero(self):
        # all rows equal, as before the reduction read blocks of rows
        assert js_multi([[], []]) == 0.0
        assert js_multi(np.zeros((3, 0))) == 0.0

    @given(run_sets_with_fixed_rows())
    @example(random_run_set(14, "full", t=7, k=7, runs=2))
    @example(random_run_set(18, "topk", t=9, k=8, runs=2))
    @example(random_run_set(59, "partial", t=9, k=8, runs=6, fixed=5))
    @example(random_run_set(64, "topk", t=12, k=11, runs=5, fixed=4))
    @example(random_run_set(64, "full", t=12, k=12, runs=5, fixed=4))
    @example(random_run_set(18, "partial", t=5, k=2, runs=3, fixed=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_all_terms_fsum(self, run_set):
        probs = run_probabilities(run_set)
        got = js_multi(probs)
        if np.all(run_set.matrix == run_set.matrix[0]):
            assert got == 0.0
        else:
            assert got == pytest.approx(fsum_js_multi(probs), abs=1e-13)

    def test_working_memory_is_a_quarter_of_the_input(self):
        probs = np.random.default_rng(8).dirichlet(np.ones(5000), size=200)
        _, peak = traced_peak(js_multi, probs)
        assert peak <= probs.nbytes / 4


class TestJsStability:
    def test_identical_full_rankings_score_exactly_one(self):
        report = js_stability(random_run_set(0, "full", 30, 30, 10, fixed=10))
        assert report.s_js == 1.0
        assert report.d_js == 0.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(1)
        for kind in ("full", "partial", "topk"):
            rs = random_run_set(rng, kind, t=20, k=20 if kind == "full" else 6, runs=5)
            report = js_stability(rs)
            assert report.kind == kind
            assert report.t == 20
            assert report.runs == 5
            assert 0.0 <= report.s_js <= 1.0
            assert 0.0 <= report.d_js <= report.d_star + 1e-12
            assert report.s_js == pytest.approx(1 - report.d_js / report.d_star, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rs = random_run_set(rng, "partial", t=15, k=5, runs=6)
        sigma = rng.permutation(15)
        relabeled = RunSet("partial", rs.matrix[:, sigma], 5)
        assert js_stability(relabeled).s_js == pytest.approx(
            js_stability(rs).s_js, abs=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_bounded_on_random_run_sets(self, seed):
        rng = np.random.default_rng(seed)
        kind = rng.choice(["full", "partial", "topk"])
        t = int(rng.integers(2, 25))
        k = t if kind == "full" else int(rng.integers(1, t))
        runs = int(rng.integers(2, 10))
        report = js_stability(random_run_set(rng, kind, t, k, runs))
        assert 0.0 <= report.s_js <= 1.0


@st.composite
def blocked_rankings(draw):
    """Full or partial rankings at a t on either side of a storage width
    (int8 up to t = 11, int16 up to 181, int32 above), with a block size in
    cells that puts K below, at or above one block of ``step`` rows."""
    kind = draw(st.sampled_from(["full", "partial"]))
    t = draw(st.sampled_from([2, 11, 12, 181, 182, 1000]))
    k = t if kind == "full" else draw(st.integers(1, t))
    runs = draw(st.integers(2, 12))
    fixed = draw(st.integers(0, runs))
    step = draw(st.integers(1, runs + 1))
    cells = step * t + draw(st.integers(0, t - 1))  # floor division gives step rows
    return random_run_set(draw(st.integers(0, 2**32 - 1)), kind, t, k, runs, fixed), cells


class TestRowBlocks:
    """``js_stability`` maps rankings to probabilities a block of rows at a
    time; the result is that of the whole K x t matrix, bit for bit."""

    @given(blocked_rankings())
    @example((random_run_set(60, "full", t=12, k=12, runs=5), 2 * 12))  # last block: 1 row
    @example((random_run_set(1281, "partial", t=182, k=60, runs=7, fixed=7), 3 * 182))  # identical
    @example((random_run_set(47, "full", t=11, k=11, runs=4, fixed=3), 11))  # one row per block
    @settings(max_examples=150, deadline=None)
    def test_blocks_give_the_whole_matrix_d_js(self, drawn):
        run_set, cells = drawn
        probs = run_probabilities(run_set)
        assert probs.size <= divergence._BLOCK_CELLS  # so the reference is one whole block
        whole = divergence._js_rows(probs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_BLOCK_CELLS", cells)
            blocked = js_stability(run_set).d_js
        assert blocked.hex() == whole.hex()

    @given(run_sets_with_fixed_rows(), st.integers(-14, 14), st.integers(-14, 14))
    @settings(max_examples=100, deadline=None)
    def test_a_range_of_rows_maps_as_in_the_whole_map(self, run_set, start, stop):
        rows = slice(start, stop)
        part, whole = run_probabilities(run_set, rows=rows), run_probabilities(run_set)[rows]
        assert part.shape == whole.shape and part.dtype == whole.dtype == np.float64
        assert part.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("runs, t, maps", [(100, 2000, 1), (524, 2000, 1), (525, 2000, 4)])
    def test_one_block_is_mapped_once_and_more_once_per_pass(self, monkeypatch, runs, t, maps):
        """The paper shape (K=100, t=2000) is one block, mapped once as
        before blocks; 525 rows of 2000 cells are two blocks, each mapped in
        both passes."""
        calls = record_calls(monkeypatch, divergence, "run_probabilities")
        js_stability(random_run_set(13, "full", t, t, runs))
        assert len(calls) == maps

    def test_working_memory_is_two_blocks_and_o_of_t(self):
        """At K=200, t=20000 the float64 matrix spans about four blocks; the
        score holds two at most (the last row read of one block is still
        referenced while the next is mapped) and O(t) work arrays."""
        runs, t = 200, 20000
        rs = random_run_set(12, "full", t, t, runs)
        _, peak = traced_peak(js_stability, rs)
        whole = runs * t * 8
        assert whole > 3 * divergence._BLOCK_CELLS * 8
        assert peak <= 2 * divergence._BLOCK_CELLS * 8 + 32 * 8 * t < whole


def masks_run_set(rows) -> RunSet:
    rows = np.array(rows)
    return RunSet("topk", rows, int(rows[0].sum()))


@st.composite
def mask_run_sets(draw):
    t = draw(st.integers(2, 40))
    k = draw(st.integers(1, t - 1))
    runs = draw(st.integers(2, 12))
    fixed = draw(st.integers(0, runs))
    return random_run_set(draw(st.integers(0, 2**32 - 1)), "topk", t, k, runs, fixed)


def within_two_ulps(got: float, exact: Decimal) -> bool:
    """``got`` within 2 ulps of the 50-digit ``exact``, plus 1e-40 for an exact 0."""
    return abs(Decimal(got) - exact) <= Decimal(2 * math.ulp(float(exact))) + Decimal("1e-40")


class TestJsMasks:
    """``js_stability`` on masks reads d_js from the selection counts."""

    @given(mask_run_sets())
    @example(random_run_set(18, "topk", t=9, k=1, runs=2))
    @example(random_run_set(18, "topk", t=9, k=8, runs=2))
    @example(random_run_set(483, "topk", t=40, k=39, runs=12, fixed=3))
    @example(masks_run_set([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]))
    @settings(max_examples=200, deadline=None)
    def test_counts_form_matches_js_multi(self, run_set):
        got = js_stability(run_set).d_js
        want = js_multi(run_probabilities(run_set))
        # js_multi takes the log of ratios near 1 at k close to t, and is
        # off by up to a few ulps of 1 there; the counts form is not (below)
        assert abs(got - want) <= 4 * math.ulp(1.0)
        assert got >= 0.0

    @pytest.mark.parametrize("t, k, runs", [(9, 1, 2), (9, 8, 2), (30, 7, 10)])
    def test_identical_rows_score_exactly_one(self, t, k, runs):
        rs = random_run_set(t * runs + runs, "topk", t, k, runs, fixed=runs)
        report = js_stability(rs)
        assert report.d_js == 0.0
        assert report.s_js == 1.0

    def test_unanimous_feature_adds_nothing(self):
        # feature 0 is selected by every run, so it adds no divergence: the
        # score equals that of the same run set without it and with k - 1
        with_it = masks_run_set([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        without = masks_run_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert js_stability(with_it).d_js * 2 == pytest.approx(js_stability(without).d_js)
        assert js_stability(without).d_js == pytest.approx(math.log(3), rel=1e-15)

    def test_matches_decimal_at_paper_shape(self):
        for seed in range(6):
            rs = random_run_set(seed, "topk", 2000, 600, 100, fixed=20 * seed)
            assert within_two_ulps(js_stability(rs).d_js, decimal_d_js(rs))

    @given(mask_run_sets())
    # nearly unanimous features: ln(K/c_f) is near 0 and needs the exact ratio
    @example(random_run_set(20399, "topk", t=50, k=10, runs=400, fixed=399))
    @example(random_run_set(30990, "topk", t=30, k=29, runs=1000, fixed=990))
    @settings(max_examples=100, deadline=None)
    def test_matches_decimal_within_two_ulps(self, run_set):
        assert within_two_ulps(js_stability(run_set).d_js, decimal_d_js(run_set))

    def test_working_memory_is_a_fifth_of_the_masks(self):
        rs = random_run_set(9, "topk", t=5000, k=1500, runs=200)
        _, peak = traced_peak(js_stability, rs)
        assert peak <= 0.2 * rs.matrix.nbytes


# The 0.5.2 bodies of kl, js_pair and js_multi, which cast their
# input with np.asarray(..., dtype=np.float64) and checked nothing else.
def v052_distributions(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return p, q


def v052_kl(p, q):
    p, q = v052_distributions(p, q)
    mask = p > 0
    if np.any(q[mask] == 0):
        raise SupportMismatchError("p has probability mass where q has none")
    return math.fsum(p[mask] * np.log(p[mask] / q[mask]))


def v052_js_pair(p, q):
    p, q = v052_distributions(p, q)
    if np.array_equal(p, q):
        return 0.0
    m = 0.5 * (p + q)
    return 0.5 * (v052_kl(p, m) + v052_kl(q, m))


def v052_column_sums(rows, t):
    total, carry, y, s = (np.zeros(t) for _ in range(4))
    for row in rows:
        np.subtract(row, carry, out=y)
        np.add(total, y, out=s)
        np.subtract(s, total, out=carry)
        carry -= y
        total, s = s, total
    return total


def v052_js_multi(ps):
    m = np.asarray(ps, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a sequence of probability vectors")
    runs, t = m.shape
    if runs < 2:
        raise ValueError(f"need at least 2 distributions, got {runs}")
    if np.all(m == m[0]):
        return 0.0
    mean = v052_column_sums(m, t) / runs
    terms = (row * np.log(np.divide(row, mean, out=np.ones(t), where=row > 0)) for row in m)
    return math.fsum(v052_column_sums(terms, t)) / runs


def outcome(function, *args):
    """``float.hex`` of the value, or the class of the ``ValueError`` raised."""
    try:
        return float.hex(function(*args))
    except ValueError as exc:
        return type(exc)


@st.composite
def vectors_with_zeros(draw):
    """K = 2..8 non-negative vectors of t = 1..300 entries, a drawn share of
    them zero; normalised to sum to 1 or left as drawn, and sometimes with
    the second vector a copy of the first."""
    t = draw(st.integers(1, 300))
    runs = draw(st.integers(2, 8))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.where(rng.random((runs, t)) < zeros, 0.0, rng.random((runs, t)))
    if draw(st.booleans()):
        sums = m.sum(axis=1, keepdims=True)
        m = np.divide(m, sums, out=m, where=sums > 0)
    if draw(st.booleans()):
        m[1] = m[0]
    return m


class TestSameBitsAsBefore:
    @given(vectors_with_zeros())
    @example(np.array([[1.0, 0.0], [0.0, 1.0]]))
    @example(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.25, 0.5]]))
    @example(np.array([[0.0], [0.0]]))
    @settings(max_examples=200, deadline=None)
    def test_kl_js_pair_and_js_multi(self, m):
        p, q = m[0], m[1]
        for args in ((p, q), (q, p), (p.tolist(), q.tolist())):
            assert outcome(kl, *args) == outcome(v052_kl, *args)
            assert outcome(js_pair, *args) == outcome(v052_js_pair, *args)
        assert outcome(js_multi, m) == outcome(v052_js_multi, m)
        assert outcome(js_multi, m.tolist()) == outcome(v052_js_multi, m)

    @pytest.mark.parametrize("kind", ["full", "partial"])
    @pytest.mark.parametrize("fixed", [0, 50, 99])
    def test_unmasked_terms_keep_the_bits_at_paper_shape(self, kind, fixed):
        """Full rankings have no zero probability and take the unmasked KL
        terms; the 0.5.2 body masks every row, so it checks them independently."""
        rs = random_run_set(fixed, kind, 2000, 600, 100, fixed)
        assert js_stability(rs).d_js.hex() == v052_js_multi(run_probabilities(rs)).hex()


def chunk_and_block(draw, t: int, runs: int) -> tuple[int, int]:
    """A chunk of 1, t - 1, t, t + 1 or 3t cells, and a block of ``runs * t``
    cells, all the rows, or of one cell fewer, which takes ``runs - 1`` rows."""
    return draw(st.sampled_from([1, t - 1, t, t + 1, 3 * t])), runs * t - draw(st.integers(0, 1))


@st.composite
def chunked_rankings(draw):
    """Full or partial rankings at a t on either side of a storage width, the
    partial ones at k = 1, k = t or between and some with a feature that no
    run ranks; K = 2 often and all rows identical at times; with
    ``chunk_and_block``."""
    kind = draw(st.sampled_from(["full", "partial"]))
    t = draw(st.sampled_from([2, 11, 12, 181, 182, 600]))
    unranked = kind == "partial" and draw(st.booleans())
    ranked = t - unranked
    k = ranked if kind == "full" else draw(st.sampled_from([1, ranked]) | st.integers(1, ranked))
    runs = draw(st.just(2) | st.integers(2, 12))
    lists = random_lists(draw(st.integers(0, 2**32 - 1)), kind, ranked, k, runs,
                         draw(st.integers(0, runs)))
    if unranked:  # its cells are 0/0 in the KL terms
        lists = np.insert(lists, draw(st.integers(0, ranked)), 0, axis=1)
    return RunSet(kind, lists, None if kind == "full" else k), *chunk_and_block(draw, t, runs)


@st.composite
def chunked_vectors(draw):
    """``vectors_with_zeros`` with one entry zero in every vector, and
    ``chunk_and_block``."""
    m = draw(vectors_with_zeros())
    m[:, draw(st.integers(0, m.shape[1] - 1))] = 0.0
    return m, *chunk_and_block(draw, *m.shape[::-1])


class TestChunks:
    """``_js_rows`` forms the KL terms a chunk of whole rows at a time; the
    result is that of the per-row body ``v052_js_multi``, bit for bit, at
    every chunk size and on either side of one block."""

    @given(chunked_rankings())
    @example((random_run_set(3, "full", 2, 2, 2), 1, 3))
    @example((RunSet("partial", [[1, 0, 0], [0, 0, 1]], 1), 4, 5))  # feature 1 unranked
    @example((random_run_set(5, "partial", 12, 12, 7, fixed=7), 36, 84))  # identical rows
    @settings(max_examples=150, deadline=None)
    def test_chunks_keep_the_per_row_bits(self, drawn):
        run_set, chunk, block = drawn
        probs = run_probabilities(run_set)
        want = v052_js_multi(probs).hex()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_CHUNK_CELLS", chunk)
            patch.setattr(divergence, "_BLOCK_CELLS", block)
            assert js_stability(run_set).d_js.hex() == want
            assert js_multi(probs).hex() == want

    @given(chunked_vectors())
    @settings(max_examples=150, deadline=None)
    def test_shared_zeros_keep_the_bits_and_warn_of_nothing(self, drawn):
        """The 0/0 cells of a zero that every vector shares; a warning would
        fail the test, since the suite turns warnings into errors."""
        m, chunk, block = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_CHUNK_CELLS", chunk)
            patch.setattr(divergence, "_BLOCK_CELLS", block)
            assert outcome(js_multi, m) == outcome(v052_js_multi, m)
        for p, q in ((m[0], m[1]), (m[1], m[0])):
            assert outcome(kl, p, q) == outcome(v052_kl, p, q)
            assert outcome(js_pair, p, q) == outcome(v052_js_pair, p, q)


@table_rows("", "js_pair-bool-p", "kl-nan-in-p", "js_multi-nan-entry", "js_pair-inf-in-q",
            "kl-minus-inf-in-p", "kl-negative-p", "js_pair-negative-q", "js_multi-negative-entry",
            "js_pair-2d-p", "js_pair-scalar-p", "kl-short-p", "js_pair-midpoint-underflow",
            "js_multi-midpoint-underflow", "kl-2d-q", "js_pair-nan-in-q")
def test_refusals_name_their_problem(row):
    check_refusal(row)


def test_the_check_runs_once_per_input(monkeypatch):
    calls = record_calls(monkeypatch, divergence, "_distribution")
    p, q = [0.25, 0.75, 0.0], [0.5, 0.0, 0.5]
    for function, args, runs in ((js_pair, (p, q), [1, 1]), (kl, (p, p), [1, 1]),
                                 (js_multi, ([p, q, p],), [2])):
        calls.clear()
        function(*args)
        assert [call["ndim"] for call in calls] == runs, function.__name__
    # the probabilities js_stability maps from a checked run set are not checked again
    calls.clear()
    js_stability(RunSet("full", [[1, 2, 3], [3, 1, 2]]))
    assert calls == []


def test_a_float64_array_is_not_copied():
    p = np.array([0.25, 0.75])
    assert divergence._distribution(p, 1, "p") is p
    m = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert divergence._distribution(m, 2, "probabilities") is m
    # the rule beneath both checks: a native int64 matrix is not copied either
    ranks = np.array([[1, 2], [2, 1]], dtype=np.int64)
    assert _integers(ranks, "matrix", ("runs", "features")) is ranks
