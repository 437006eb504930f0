"""Stability metrics for feature rankings, partial rankings and top-k subsets."""

from .baselines import (
    METRIC_KINDS,
    MetricMismatchError,
    PairwiseStability,
    jaccard,
    kuncheva,
    pairwise_stability,
    similarity_matrix,
    spearman,
)
from .divergence import (
    StabilityReport,
    SupportMismatchError,
    js_multi,
    js_pair,
    js_stability,
    kl,
)
from .experiments import (
    EXPERIMENT_NAMES,
    run_experiment,
)
from .lists import (
    KINDS,
    RunSet,
    row_violations,
)
from .mds import (
    DISTANCES,
    DistanceMatrix,
    Embedding,
    MdsConvergenceError,
    classical_mds,
    distance_matrix,
)
from .probability import (
    DegenerateNormalizerError,
    normalizer,
    run_probabilities,
)
from .runset_io import (
    RunSetParseError,
    RunSetValidationError,
    load_runset,
    parse_runset,
    save_runset,
    serialize_runset,
)
from .synth import (
    ExperimentConfig,
    gen_overlap_family,
    gen_ranking_family,
    gen_rank_shuffle_family,
    gen_subset_family,
)

__version__ = "0.5.4"

__all__ = [
    "DISTANCES",
    "DegenerateNormalizerError",
    "DistanceMatrix",
    "EXPERIMENT_NAMES",
    "Embedding",
    "ExperimentConfig",
    "KINDS",
    "METRIC_KINDS",
    "MdsConvergenceError",
    "MetricMismatchError",
    "PairwiseStability",
    "RunSet",
    "RunSetParseError",
    "RunSetValidationError",
    "StabilityReport",
    "SupportMismatchError",
    "classical_mds",
    "distance_matrix",
    "gen_overlap_family",
    "gen_ranking_family",
    "gen_rank_shuffle_family",
    "gen_subset_family",
    "jaccard",
    "js_multi",
    "js_pair",
    "js_stability",
    "kl",
    "kuncheva",
    "load_runset",
    "normalizer",
    "pairwise_stability",
    "parse_runset",
    "row_violations",
    "run_experiment",
    "run_probabilities",
    "save_runset",
    "serialize_runset",
    "similarity_matrix",
    "spearman",
]
