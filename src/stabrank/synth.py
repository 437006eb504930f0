"""Seeded generators for controlled stability experiments.

Four scenario families, each returning one ``RunSet``:

* ``gen_ranking_family`` -- ``fixed`` identical full rankings plus
  ``runs - fixed`` independent uniform ones (from fully random at
  fixed=0 to fully stable at fixed=runs).
* ``gen_subset_family``  -- the same rankings cut to top-k masks.
* ``gen_overlap_family`` -- partial lists sharing a common core of
  ``overlap`` features; ``lam`` slides the run-specific features from the
  bottom ranks (lam=0) to the top ranks (lam=1) while the selected sets
  stay identical across lam for a given seed.
* ``gen_rank_shuffle_family`` -- all runs select the same k features;
  ``q`` is the fraction of rank positions re-drawn per run, from identical
  rankings (q=0) to independently shuffled ones (q=1).

Randomness comes from numpy's PCG64 generator. Per-run streams are derived
by ``SeedSequence(seed).spawn``: child 0 drives the shared arrangement,
child j+1 drives run j. Identical configs therefore reproduce bit-identical
run sets, and the stream layout is part of the golden-file contract.

No per-run draw reads ``fixed`` or ``lam``, which gives two exact identities
that ``_curve`` uses to build a sweep from one or two generator calls:

* the ranking and subset families at ``fixed=x`` are the first x rows of
  the run set at ``fixed=runs`` stacked on rows x.. of the one at
  ``fixed=0``;
* the overlap family at ``lam`` relabels the ranks of the one at ``lam=0``:
  the i-th core slot becomes the i-th core slot at ``lam``, the i-th
  block slot the i-th block slot, and 0 stays 0.

The rank-shuffle family shares no draws across ``q``: ``round(q * k)`` sets
how many positions each run draws, so every ``q`` reads its streams anew.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .lists import RunSet, _exact_int, _lookup, _storage_dtype


@dataclass(frozen=True)
class ExperimentConfig:
    """Shape and knobs of one synthetic scenario.

    t, k, runs: feature count, sublist length and number of lists.
    seed: PRNG seed, a non-negative integer.
    fixed: how many of the runs repeat one fixed output (ranking family).
    lam: where run-specific features sit in the ranking, 0 = bottom,
         1 = top (overlap family).
    q: fraction of rank positions re-drawn per run (rank-shuffle family).
    overlap: size of the common core shared by every run (overlap family
             only; leave None for the other scenarios).

    t, k, runs, seed, fixed and a non-None overlap must be integers; a
    float, a bool or None among them raises ``TypeError`` naming the field.
    lam and q must be real numbers; a bool, a string or None raises
    ``TypeError`` the same way.
    """

    t: int = 2000
    k: int = 600
    runs: int = 100
    seed: int = 0
    fixed: int = 0
    lam: float = 0.0
    q: float = 0.0
    overlap: int | None = None

    def __post_init__(self):
        for name in ("t", "k", "runs", "seed", "fixed", "overlap"):
            value = getattr(self, name)
            if name != "overlap" or value is not None:
                object.__setattr__(self, name, _exact_int(value, name))
        for name in ("lam", "q"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if not 1 <= self.k <= self.t:
            raise ValueError(f"k={self.k} out of range 1..{self.t}")
        if self.runs < 2:
            raise ValueError(f"runs must be >= 2, got {self.runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.fixed <= self.runs:
            raise ValueError(f"fixed={self.fixed} out of range 0..{self.runs}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam={self.lam} out of range [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q={self.q} out of range [0, 1]")
        if self.overlap is not None and not 1 <= self.overlap <= self.k:
            raise ValueError(f"overlap={self.overlap} out of range 1..k={self.k}")


def _rngs(cfg: ExperimentConfig) -> tuple[np.random.Generator, list[np.random.Generator]]:
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.runs + 1)
    shared = np.random.default_rng(children[0])
    per_run = [np.random.default_rng(c) for c in children[1:]]
    return shared, per_run


def gen_ranking_family(cfg: ExperimentConfig) -> RunSet:
    """``fixed`` copies of one seeded permutation + independent uniform rest."""
    shared, per_run = _rngs(cfg)
    fixed_row = shared.permutation(cfg.t) + 1
    rows = np.empty((cfg.runs, cfg.t), dtype=_storage_dtype("full", cfg.t))
    rows[: cfg.fixed] = fixed_row
    for j in range(cfg.fixed, cfg.runs):
        rows[j] = per_run[j].permutation(cfg.t) + 1
    return RunSet._trusted("full", rows, cfg.t)


def gen_subset_family(cfg: ExperimentConfig) -> RunSet:
    """Top-k masks of the ranking family (same seed, same rankings)."""
    return gen_ranking_family(cfg).to_topk(cfg.k)


def gen_overlap_family(cfg: ExperimentConfig) -> RunSet:
    """Partial lists with a shared core and lam-placed disagreement.

    A seeded arrangement designates ``overlap`` core features and a
    draw pool of the t - k features outside the reference top-k; each run
    selects the core plus ``k - overlap`` pool features. ``lam`` positions
    the run-specific block within the rank slots; rank order inside each
    region is shuffled per run. The per-run feature draws never consume
    lam, so the selected sets (and any mask-level metric) are identical
    across lam for one seed.
    """
    if cfg.overlap is None:
        raise ValueError("the overlap family requires cfg.overlap")
    if cfg.overlap >= cfg.k:
        raise ValueError(f"overlap={cfg.overlap} must be smaller than k={cfg.k}")
    extra = cfg.k - cfg.overlap
    pool_size = cfg.t - cfg.k
    if pool_size < extra:
        raise ValueError(
            f"pool exhausted: need {extra} run-specific features per run "
            f"but only {pool_size} outside the reference top-{cfg.k}"
        )
    shared, per_run = _rngs(cfg)
    arrangement = shared.permutation(cfg.t)
    core = arrangement[: cfg.overlap]
    pool = arrangement[cfg.k :]
    core_slots, block = _slots(cfg.k, cfg.overlap, cfg.lam)

    rows = np.zeros((cfg.runs, cfg.t), dtype=_storage_dtype("partial", cfg.t))
    for j, rng in enumerate(per_run):
        drawn = rng.choice(pool, size=extra, replace=False)
        rows[j, rng.permutation(core)] = core_slots + 1
        rows[j, rng.permutation(drawn)] = block + 1
    return RunSet._trusted("partial", rows, cfg.k)


def _slots(k: int, overlap: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based rank slots of the core and of the run-specific block at lam."""
    slots = np.arange(k)
    start = round((1.0 - lam) * overlap)
    end = start + k - overlap
    return np.concatenate([slots[:start], slots[end:]]), slots[start:end]


def gen_rank_shuffle_family(cfg: ExperimentConfig) -> RunSet:
    """Identical top-k sets whose ranks are re-drawn on a q-fraction of slots."""
    shared, per_run = _rngs(cfg)
    features = shared.permutation(cfg.t)[: cfg.k]
    reference = shared.permutation(cfg.k) + 1
    redraw = round(cfg.q * cfg.k)
    rows = np.zeros((cfg.runs, cfg.t), dtype=_storage_dtype("partial", cfg.t))
    for j, rng in enumerate(per_run):
        ranks = reference.copy()
        if redraw > 0:
            positions = rng.choice(cfg.k, size=redraw, replace=False)
            ranks[positions] = ranks[positions][rng.permutation(redraw)]
        rows[j, features] = ranks
    return RunSet._trusted("partial", rows, cfg.k)


def _curve(
    generate: Callable[[ExperimentConfig], RunSet], base: ExperimentConfig, field: str, grid: Iterable
) -> Iterator[RunSet]:
    """``generate(replace(base, field=x))`` for each x of ``grid``, in order.

    Over ``fixed`` (ranking and subset families), ``generate`` runs at
    ``fixed=0`` and ``fixed=runs`` and every point stacks rows of the two;
    over ``lam`` (overlap family) it runs at ``lam=0`` and every point
    relabels its ranks through ``_lookup``. Any other field calls ``generate``
    at every point. Each point owns a new matrix, adopted unchecked.
    """
    if field == "fixed":
        random = generate(replace(base, fixed=0))
        # a copy: a view of one row would keep the whole fixed=runs run set alive
        stable_row = generate(replace(base, fixed=base.runs)).matrix[0].copy()
        for x in grid:
            matrix = random.matrix.copy()  # C order, as the generators' own
            matrix[:x] = stable_row
            yield RunSet._trusted(random.kind, matrix, random.k)
    elif field == "lam":
        anchor = generate(replace(base, lam=0.0))
        core0, block0 = _slots(base.k, base.overlap, 0.0)
        for x in grid:
            core, block = _slots(base.k, base.overlap, x)
            table = np.zeros(base.k + 1, dtype=anchor.matrix.dtype)  # 0 (unranked) stays 0
            table[core0 + 1], table[block0 + 1] = core + 1, block + 1
            yield RunSet._trusted(anchor.kind, _lookup(table, anchor.matrix), anchor.k)
    else:
        for x in grid:
            yield generate(replace(base, **{field: x}))
