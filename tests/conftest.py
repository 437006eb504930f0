"""Shared fixtures: a small worked example of five runs over ten features.

EXAMPLE_FULL holds one full ranking per run. The partial and mask variants
are the same runs truncated at k=4; they double as regression anchors for
the conversion and baseline metrics. ``random_run_set`` is the one seeded
generator of random run sets. The Hypothesis profile loaded here makes
every property test deterministic.
"""

import numpy as np
import pytest
from hypothesis import settings

from stabrank import RunSet

# Every property test draws the same examples on every run, so a Tier-1
# failure reproduces; tests that need more or fewer examples override
# max_examples.
settings.register_profile(
    "stabrank", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("stabrank")

# one tuple per run (t = 10, K = 5)
EXAMPLE_FULL = (
    (3, 2, 4, 9, 5, 10, 7, 8, 1, 6),
    (9, 1, 7, 6, 3, 5, 10, 2, 4, 8),
    (7, 2, 3, 10, 5, 8, 9, 6, 1, 4),
    (8, 3, 5, 9, 1, 7, 10, 6, 2, 4),
    (7, 3, 2, 8, 4, 9, 10, 5, 1, 6),
)

EXAMPLE_K = 4

EXAMPLE_PARTIAL = tuple(
    tuple(r if r <= EXAMPLE_K else 0 for r in run) for run in EXAMPLE_FULL
)

EXAMPLE_MASKS = tuple(
    tuple(1 if r <= EXAMPLE_K else 0 for r in run) for run in EXAMPLE_FULL
)


def random_run_set(rng: np.random.Generator, kind: str, t: int, k: int, runs: int) -> RunSet:
    """``runs`` uniformly random rankings of t features from ``rng``, cut to
    their top k as partial rankings or as masks."""
    rows = np.array([rng.permutation(t) + 1 for _ in range(runs)])
    if kind == "full":
        return RunSet("full", rows)
    if kind == "partial":
        return RunSet("partial", np.where(rows <= k, rows, 0), k)
    return RunSet("topk", (rows <= k).astype(np.int64), k)


@pytest.fixture
def full_run_set() -> RunSet:
    return RunSet("full", np.array(EXAMPLE_FULL))


@pytest.fixture
def partial_run_set() -> RunSet:
    return RunSet("partial", np.array(EXAMPLE_PARTIAL), EXAMPLE_K)


@pytest.fixture
def mask_run_set() -> RunSet:
    return RunSet("topk", np.array(EXAMPLE_MASKS), EXAMPLE_K)
