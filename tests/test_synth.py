"""Generator determinism, validity and scenario-shape tests."""

import numpy as np
import pytest

from stabrank import synth
from stabrank import (
    ExperimentConfig,
    RunSet,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
    js_stability,
    row_violations,
)
from test_refusals import check_refusal, table_rows


def cfg(**kwargs) -> ExperimentConfig:
    defaults = dict(t=40, k=10, runs=6, seed=123)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    @table_rows("ExperimentConfig-", "t-0", "k-0", "k-41", "runs-1", "fixed--1", "fixed-7",
                "lam-1.5", "q--0.1", "overlap-0", "overlap-11")
    def test_rejects_out_of_range(self, row):
        check_refusal(row)

    @table_rows("ExperimentConfig-", "k-10.5", "runs-True", "seed-3.0", "fixed-1.0")
    def test_rejects_non_integers(self, row):
        check_refusal(row)

    @table_rows("ExperimentConfig-", "lam-True", "q-True", ("q-0.5", "q-'0.5'"), "lam-None",
                ("q-value4", "q-False"), "lam-0.5j")
    def test_rejects_non_real_knobs(self, row):
        check_refusal(row)

    def test_real_knobs_accepted(self):
        config = cfg(lam=1, q=np.float64(0.25))
        assert (config.lam, config.q) == (1, 0.25)

    def test_numpy_integers_become_ints(self):
        config = cfg(t=np.int64(40), fixed=np.int32(2), overlap=np.uint8(5))
        assert (type(config.t), type(config.fixed), type(config.overlap)) == (int, int, int)

    def test_defaults_are_valid(self):
        ExperimentConfig()


class TestRankingFamily:
    def test_deterministic(self):
        a = gen_ranking_family(cfg(k=40, fixed=3))
        b = gen_ranking_family(cfg(k=40, fixed=3))
        assert np.array_equal(a.matrix, b.matrix)

    def test_all_rows_valid(self):
        rs = gen_ranking_family(cfg(k=40, fixed=2))
        assert row_violations(rs.kind, rs.matrix, rs.k) == [None] * rs.runs

    def test_fixed_block_repeats_one_row(self):
        rs = gen_ranking_family(cfg(k=40, fixed=4))
        assert np.all(rs.matrix[:4] == rs.matrix[0])

    def test_all_fixed_is_fully_stable(self):
        rs = gen_ranking_family(cfg(k=40, fixed=6))
        assert js_stability(rs).s_js == 1.0

    def test_no_fixed_rows_are_distinct(self):
        rs = gen_ranking_family(cfg(t=100, k=100, runs=10, fixed=0))
        rows = {tuple(row) for row in rs.matrix}
        assert len(rows) == 10

    def test_random_part_independent_of_fixed_count(self):
        # run j > fixed uses the same per-run stream regardless of `fixed`
        a = gen_ranking_family(cfg(k=40, fixed=0))
        b = gen_ranking_family(cfg(k=40, fixed=3))
        assert np.array_equal(a.matrix[3:], b.matrix[3:])


class TestSubsetFamily:
    def test_masks_are_thresholded_rankings(self):
        config = cfg(fixed=2)
        rankings = gen_ranking_family(config)
        masks = gen_subset_family(config)
        assert np.array_equal(masks.matrix, (rankings.matrix <= config.k).astype(int))

    def test_each_mask_has_k_ones(self):
        masks = gen_subset_family(cfg(fixed=1))
        assert np.all(masks.matrix.sum(axis=1) == 10)
        assert masks.kind == "topk"


class TestOverlapFamily:
    def test_deterministic_and_valid(self):
        a = gen_overlap_family(cfg(overlap=6, lam=0.3))
        b = gen_overlap_family(cfg(overlap=6, lam=0.3))
        assert np.array_equal(a.matrix, b.matrix)
        assert a.kind == "partial"
        assert row_violations(a.kind, a.matrix, a.k) == [None] * a.runs

    def test_core_always_selected(self):
        rs = gen_overlap_family(cfg(overlap=6, lam=0.7))
        masks = rs.to_topk().matrix
        shared = np.all(masks == 1, axis=0)
        assert shared.sum() >= 6

    def test_masks_identical_across_lam(self):
        sets = [
            gen_overlap_family(cfg(overlap=6, lam=lam)).to_topk().matrix
            for lam in (0.0, 0.4, 1.0)
        ]
        assert np.array_equal(sets[0], sets[1])
        assert np.array_equal(sets[1], sets[2])

    def test_lam_places_disagreement(self):
        # lam=0: the shared core occupies the top ranks of every run;
        # lam=1: the run-specific features do
        bottom = gen_overlap_family(cfg(overlap=6, lam=0.0))
        top = gen_overlap_family(cfg(overlap=6, lam=1.0))
        core = np.all(bottom.to_topk().matrix == 1, axis=0)
        assert core.sum() == 6
        for rs, core_ranks in ((bottom, {1, 2, 3, 4, 5, 6}), (top, {5, 6, 7, 8, 9, 10})):
            for row in rs.matrix:
                assert {int(r) for r in row[core]} == core_ranks


class TestRankShuffleFamily:
    def test_q_zero_is_identical(self):
        rs = gen_rank_shuffle_family(cfg(q=0.0))
        assert np.all(rs.matrix == rs.matrix[0])
        assert js_stability(rs).s_js == 1.0

    def test_same_mask_for_all_runs_and_all_q(self):
        masks = [
            gen_rank_shuffle_family(cfg(q=q)).to_topk().matrix for q in (0.0, 0.5, 1.0)
        ]
        for m in masks:
            assert np.all(m == m[0])
        assert np.array_equal(masks[0], masks[2])

    def test_valid_and_deterministic(self):
        a = gen_rank_shuffle_family(cfg(q=0.6))
        b = gen_rank_shuffle_family(cfg(q=0.6))
        assert np.array_equal(a.matrix, b.matrix)
        assert row_violations(a.kind, a.matrix, a.k) == [None] * a.runs

    def test_q_one_rows_differ(self):
        rs = gen_rank_shuffle_family(cfg(t=200, k=60, runs=8, q=1.0))
        rows = {tuple(row) for row in rs.matrix}
        assert len(rows) == 8


class TestConsistencyWithRunSetModel:
    @pytest.mark.parametrize(
        "generator,kwargs",
        [
            (gen_ranking_family, dict(k=40, fixed=2)),
            (gen_subset_family, dict(fixed=2)),
            (gen_overlap_family, dict(overlap=4, lam=0.5)),
            (gen_rank_shuffle_family, dict(q=0.5)),
        ],
    )
    def test_round_trips_through_runset_constructor(self, generator, kwargs):
        rs = generator(cfg(**kwargs))
        rebuilt = RunSet(rs.kind, rs.matrix, rs.k)
        assert np.array_equal(rebuilt.matrix, rs.matrix)


@pytest.mark.parametrize(
    "generator, kwargs",
    [
        (gen_ranking_family, dict(fixed=2)),
        (gen_subset_family, dict(fixed=2)),
        (gen_overlap_family, dict(overlap=4, lam=0.5)),
        (gen_rank_shuffle_family, dict(q=0.5)),
    ],
)
def test_cached_children_give_the_fresh_spawn_bytes(monkeypatch, generator, kwargs):
    """Run sets from the cached children are those of a fresh
    ``SeedSequence(seed).spawn(runs + 1)``, byte for byte: for one seed at two
    ``runs``, on the call that fills the cache, on one that hits it and on
    one after other configs evicted it; no cached child has spawned."""
    configs = [cfg(runs=runs, **kwargs) for runs in (6, 9)]
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_children",
                      lambda seed, runs: np.random.SeedSequence(seed).spawn(runs + 1))
        fresh = [generator(config).matrix.tobytes() for config in configs]
    synth._children.cache_clear()
    for _ in range(2):  # the first round fills the cache, the second hits it
        assert [generator(config).matrix.tobytes() for config in configs] == fresh
    assert synth._children.cache_info()[:2] == (2, 2)  # hits, misses
    maxsize = synth._children.cache_info().maxsize
    for seed in range(maxsize):  # seeds other than cfg's evict both configs
        generator(cfg(seed=seed, **kwargs))
    assert [generator(config).matrix.tobytes() for config in configs] == fresh
    assert synth._children.cache_info().misses == 2 + maxsize + 2
    children = [child for config in configs for child in synth._children(config.seed, config.runs)]
    assert len(children) == 7 + 10
    assert all(child.n_children_spawned == 0 for child in children)
