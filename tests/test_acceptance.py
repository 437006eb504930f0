"""Acceptance suite: one test per release criterion, stated tolerances only.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so a red criterion is visible both ways.
Seeds are fixed for reproducibility; runtime bounds are asserted where the
criterion pins one.
"""

import itertools
import math
import time

import numpy as np

from stabrank import (
    DistanceMatrix,
    ExperimentConfig,
    RunSet,
    classical_mds,
    distance_matrix,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
    jaccard,
    js_stability,
    kuncheva,
    normalizer,
    pairwise_stability,
    parse_runset,
    spearman,
)
from conftest import EXAMPLE_FULL, EXAMPLE_MASKS, random_run_set
from oracles import oracle_s_js, per_cell_text


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _curve(generator, metric, seeds, grid, **cfg_kwargs):
    """Seed-averaged (s_js, phi) curves over the fixed-output grid."""
    sjs = np.zeros(len(grid))
    phi = np.zeros(len(grid))
    for seed in seeds:
        for idx, fixed in enumerate(grid):
            rs = generator(ExperimentConfig(seed=seed, fixed=fixed, **cfg_kwargs))
            sjs[idx] += js_stability(rs).s_js
            phi[idx] += pairwise_stability(rs, metric).phi
    return sjs / len(seeds), phi / len(seeds)


def test_criterion_01_stable_endpoint():
    start = time.perf_counter()
    rs = gen_ranking_family(ExperimentConfig(t=2000, k=2000, runs=100, seed=0, fixed=100))
    score = js_stability(rs).s_js
    elapsed = time.perf_counter() - start
    ok = abs(score - 1.0) <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"identical rankings score s_js={score} in {elapsed:.2f}s")


def test_criterion_02_random_endpoint():
    start = time.perf_counter()
    scores = [
        js_stability(
            gen_ranking_family(ExperimentConfig(t=2000, k=2000, runs=100, seed=seed, fixed=0))
        ).s_js
        for seed in range(10)
    ]
    elapsed = time.perf_counter() - start
    mean = float(np.mean(scores))
    ok = 0.0 <= mean <= 0.05 and elapsed < 5.0
    _report(2, ok, f"random rankings mean s_js={mean:.4f} over 10 seeds in {elapsed:.2f}s")


GRID = list(range(0, 101, 10))


def test_criterion_03_ranking_curve_tracks_spearman():
    start = time.perf_counter()
    sjs, phi = _curve(
        gen_ranking_family, "spearman", seeds=range(10), grid=GRID, t=2000, k=2000, runs=100
    )
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(sjs) >= 0))
    corr = float(np.corrcoef(sjs, phi)[0, 1])
    ok = monotone and corr >= 0.99 and elapsed < 30.0
    _report(
        3,
        ok,
        f"s_js monotone={monotone}, corr(s_js, phi_spearman)={corr:.5f} in {elapsed:.1f}s",
    )


def test_criterion_04_subset_curve_tracks_kuncheva():
    start = time.perf_counter()
    sjs, phi = _curve(
        gen_subset_family, "kuncheva", seeds=range(10), grid=GRID, t=2000, k=600, runs=100
    )
    elapsed = time.perf_counter() - start
    corr = float(np.corrcoef(sjs, phi)[0, 1])
    endpoints = (
        abs(sjs[0]) <= 0.05
        and abs(phi[0]) <= 0.05
        and sjs[-1] == 1.0
        and phi[-1] == 1.0
    )
    ok = corr >= 0.99 and endpoints and elapsed < 30.0
    _report(
        4,
        ok,
        f"corr(s_js, phi_kuncheva)={corr:.5f}, endpoints ({sjs[0]:.4f}, {sjs[-1]}) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_05_overlap_separation():
    start = time.perf_counter()
    lams = (0.0, 0.25, 0.5, 0.75, 1.0)
    partial, topk, phi = [], [], []
    for lam in lams:
        rs = gen_overlap_family(
            ExperimentConfig(t=2000, k=600, runs=100, seed=0, overlap=350, lam=lam)
        )
        masks = rs.to_topk()
        partial.append(js_stability(rs).s_js)
        topk.append(js_stability(masks).s_js)
        phi.append(pairwise_stability(masks, "kuncheva").phi)
    elapsed = time.perf_counter() - start
    topk_spread = max(topk) - min(topk)
    phi_spread = max(phi) - min(phi)
    monotone = bool(np.all(np.diff(partial) <= 0))
    drop = partial[0] - partial[-1]
    ok = (
        topk_spread < 0.02
        and phi_spread < 0.02
        and monotone
        and drop >= 0.05
        and elapsed < 30.0
    )
    _report(
        5,
        ok,
        f"topk spread={topk_spread:.2e}, phi spread={phi_spread:.2e}, "
        f"partial drop={drop:.3f} (monotone={monotone}) in {elapsed:.1f}s",
    )


def test_criterion_06_rank_shuffle_anchor():
    start = time.perf_counter()
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    partial, topk, phi = [], [], []
    for q in qs:
        rs = gen_rank_shuffle_family(
            ExperimentConfig(t=2000, k=600, runs=100, seed=0, q=q)
        )
        masks = rs.to_topk()
        partial.append(js_stability(rs).s_js)
        topk.append(js_stability(masks).s_js)
        phi.append(pairwise_stability(masks, "kuncheva").phi)
    elapsed = time.perf_counter() - start
    anchor = topk[-1] == 1.0 and phi[-1] == 1.0 and 0.90 < partial[-1] < 0.95
    monotone = bool(np.all(np.diff(partial) <= 0)) and partial[0] == 1.0
    ok = anchor and monotone and elapsed < 30.0
    _report(
        6,
        ok,
        f"q=1: topk={topk[-1]}, phi={phi[-1]}, partial={partial[-1]:.4f}; "
        f"monotone to 1 at q=0={monotone} in {elapsed:.1f}s",
    )


def test_criterion_07_normalizer_closed_form():
    value = normalizer("topk", 2000, 600)
    expected = math.log(10.0 / 3.0)
    ok = abs(value - expected) <= 1e-12
    _report(7, ok, f"normalizer(topk, 2000, 600)={value!r} vs ln(10/3)={expected!r}")


def test_criterion_08_entropy_identity_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for index in range(100):
        kind = ("full", "partial", "topk")[index % 3]
        t = int(rng.integers(2, 51))
        k = t if kind == "full" else int(rng.integers(1, min(t, 21)))
        if kind != "full" and k == t:
            k = t - 1
        runs = int(rng.integers(2, 21))
        rs = random_run_set(rng, kind, t, k, runs)
        worst = max(worst, abs(js_stability(rs).s_js - oracle_s_js(rs)))
    ok = worst <= 1e-10
    _report(8, ok, f"max |direct - entropy identity| = {worst:.2e} over 100 run sets")


def test_criterion_09a_bounds_on_fuzzed_run_sets():
    rng = np.random.default_rng(99)
    low, high = 1.0, 0.0
    for _ in range(1000):
        kind = str(rng.choice(["full", "partial", "topk"]))
        t = int(rng.integers(2, 31))
        k = t if kind == "full" else int(rng.integers(1, t))
        runs = int(rng.integers(2, 13))
        score = js_stability(random_run_set(rng, kind, t, k, runs)).s_js
        low, high = min(low, score), max(high, score)
    ok = 0.0 <= low and high <= 1.0
    _report(9, ok, f"(a) fuzzed s_js range [{low:.4f}, {high:.4f}] within [0, 1]")


def test_criterion_09b_maximum_iff_identical():
    perms = list(itertools.permutations((1, 2, 3, 4)))
    failures = 0
    for a, b, c in itertools.product(range(24), repeat=3):
        rows = np.array([perms[a], perms[b], perms[c]])
        score = js_stability(RunSet("full", rows)).s_js
        identical = a == b == c
        if identical != (score == 1.0):
            failures += 1
    ok = failures == 0
    _report(9, ok, f"(b) s_js == 1 iff identical, {failures} failures over 24^3 triples")


def test_criterion_09c_correction_for_chance():
    means = {}
    for kind in ("topk", "partial"):
        scores = []
        for seed in range(20):
            rs = random_run_set(8000 + seed, kind, t=200, k=60, runs=500)
            scores.append(js_stability(rs).s_js)
        means[kind] = float(np.mean(scores))
    ok = all(abs(m) <= 0.02 for m in means.values())
    _report(
        9,
        ok,
        f"(c) mean random s_js topk={means['topk']:.4f}, partial={means['partial']:.4f}",
    )


def test_criterion_10_example_matrix_regression():
    full = parse_runset(per_cell_text("full", 10, EXAMPLE_FULL))
    masks = parse_runset(per_cell_text("topk", 4, EXAMPLE_MASKS))
    ki = kuncheva(masks.matrix[0], masks.matrix[1])
    ji = jaccard(masks.matrix[0], masks.matrix[1])
    rho = spearman(full.matrix[0], full.matrix[0])
    ok = (
        abs(ki - 1 / 6) <= 1e-12
        and abs(ji - 1 / 3) <= 1e-12
        and rho == 1.0
    )
    _report(10, ok, f"parsed example matrices: KI={ki:.6f}, JI={ji:.6f}, rho={rho}")


def test_criterion_11_mds_fidelity():
    triangle = DistanceMatrix(
        np.ones((3, 3)) - np.eye(3), (("p", 0), ("p", 1), ("p", 2))
    )
    emb = classical_mds(triangle)
    diff = emb.coords[:, None, :] - emb.coords[None, :, :]
    recon = np.sqrt((diff**2).sum(axis=2))
    triangle_err = float(np.max(np.abs(recon - triangle.d)))

    stable = gen_subset_family(ExperimentConfig(t=100, k=20, runs=8, seed=1, fixed=8))
    random_ = gen_subset_family(ExperimentConfig(t=100, k=20, runs=8, seed=2, fixed=0))

    solo = classical_mds(distance_matrix([("stable", stable)]))
    solo_spread = float(np.max(np.abs(solo.coords - solo.coords[0])))

    both = classical_mds(distance_matrix([("stable", stable), ("random", random_)]))
    iu = np.triu_indices(8, 1)

    def mean_within(coords):
        diff = coords[:, None, :] - coords[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2))[iu].mean())

    within_stable = mean_within(both.coords[:8])
    within_random = mean_within(both.coords[8:])
    ratio = within_stable / within_random
    ok = triangle_err < 1e-6 and solo_spread == 0.0 and within_random > 0 and ratio < 0.01
    _report(
        11,
        ok,
        f"triangle err={triangle_err:.2e}, identical-list spread={solo_spread}, "
        f"cluster ratio={ratio:.2e}",
    )
