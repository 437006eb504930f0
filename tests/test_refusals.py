"""One table of refusals: each row calls one entry point on one input.

``REFUSALS`` maps an id, ``<function>-<input>``, to ``(call, args, error,
message)``; ``test_refusal`` asserts that ``call(*args)`` raises exactly
``error`` and that its text is exactly ``message``. ``rows`` builds the rows
of one call. A parametrized family of refusals in another module keeps its
name and case ids by running its rows through ``check_refusal`` under
``table_rows``. A message that prints a number is given a Python scalar, so that
no message depends on the numpy version.
``test_every_refusal_in_src_is_reached`` runs every row, and every call of
the cross table of ``tests/test_array_rule.py``, under ``sys.settrace``:
each ``raise`` in ``src/stabrank``, and each ``return`` of a message in
``lists``' ``_shape_problem``, ``_scan`` and ``_validate_permutation``, is
reached by a row or listed in ``EXEMPT`` with the test that reaches it.
"""

import ast
import importlib
import math
import sys
from argparse import Namespace
from collections import Counter
from contextlib import suppress
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import stabrank
from stabrank import (
    DegenerateNormalizerError,
    DistanceMatrix,
    Embedding,
    ExperimentConfig,
    MdsConvergenceError,
    MetricMismatchError,
    RunSet,
    RunSetParseError,
    RunSetValidationError,
    SupportMismatchError,
    classical_mds,
    distance_matrix,
    gen_overlap_family,
    gen_ranking_family,
    gen_subset_family,
    jaccard,
    js_multi,
    js_pair,
    js_stability,
    kl,
    kuncheva,
    normalizer,
    pairwise_stability,
    parse_runset,
    row_violations,
    run_experiment,
    similarity_matrix,
    spearman,
)
from stabrank.cli import cmd_stability
from conftest import EXAMPLE_FULL, EXAMPLE_K, EXAMPLE_MASKS, EXAMPLE_PARTIAL, read_as
from test_array_rule import ENTRY_POINTS, INPUTS

NAN, INF = math.nan, math.inf
FULL = RunSet("full", EXAMPLE_FULL)
PARTIAL = RunSet("partial", EXAMPLE_PARTIAL, EXAMPLE_K)
MASKS = RunSet("topk", EXAMPLE_MASKS, EXAMPLE_K)
ALL_SELECTED = RunSet("topk", [[1, 1, 1], [1, 1, 1]], 3)
STABLE = [("a", gen_subset_family(ExperimentConfig(t=40, k=8, runs=5, seed=0, fixed=5)))]
RANKINGS = gen_ranking_family(ExperimentConfig(t=40, k=40, runs=3, seed=2))
WIDER = gen_subset_family(ExperimentConfig(t=40, k=10, runs=5, seed=0, fixed=5))
CUT = RunSet("partial", read_as("partial", RANKINGS.matrix, 8), 8)
PAIRS, THREE = (("a", 0), ("a", 1)), (("p", 0), ("p", 1), ("p", 2))
ZEROS, SMALL, FAIR = np.zeros((2, 2)), np.zeros((3, 2)), (1.0, 2.0)
FULL_2 = "#stabrank v1 kind=full t=2 k=2 K=2\n"
HEADER = "line 1: expected header '#stabrank v1 kind=<full|partial|topk> t=<int> k=<int> K=<int>'"
KINDS = "expected one of ('full', 'partial', 'topk')"
EIGVALS = "eigvals must be two finite, non-negative numbers, got "
STRESS = "stress must be a finite, non-negative number, got "
FINITE = " must be finite and non-negative, got "
INT64 = " is not an int64 integer"
RANKING = " is not a full ranking: "
MASK = " is not a 0/1 mask: "
SUPPORT = "p has probability mass where q has none"
POOL = ("pool exhausted: need 5 run-specific features per run "
        "but only 2 outside the reference top-10")
EXPERIMENT = dict(t=40, k=8, runs=6)


def rows(call, cases: dict, name: str = "") -> dict:
    """The rows ``<name>-<case>`` of one call, the name by default the call's, from
    ``{case: (args, message)}`` for a ``ValueError`` or ``(args, message, error)``."""
    name = name or call.__name__
    return {f"{name}-{case}": (call, args, error[0] if error else ValueError, message)
            for case, (args, message, *error) in cases.items()}


def to_topk(run_set: RunSet, *k) -> RunSet:
    return run_set.to_topk(*k)


def config(fields: dict) -> ExperimentConfig:
    return ExperimentConfig(**{**dict(t=40, k=10, runs=6, seed=123), **fields})


def experiment(name: str, seed, shape: dict):
    return run_experiment(name, seed, **shape)


def degenerate(kind: str, t: int, k: int) -> str:
    return f"random-baseline divergence is 0 for kind={kind}, t={t}, k={k}; stability is undefined"


def integer(name: str, value) -> tuple[str, type]:
    """The message and the class of ``lists._exact_int``'s refusal of ``value``."""
    return f"{name} must be an integer, got {value!r}", TypeError


REFUSALS = {
    # lists: the shape rules, the row check and the integer rule
    **rows(RunSet, {
        "ranked-kind": (("ranked", np.array([[1, 2], [2, 1]])), f"unknown kind 'ranked', {KINDS}"),
        "no-features": (("full", np.zeros((2, 0), dtype=int)),
                        "lists must contain at least one feature"),
        "full-k-99": (("full", [[1, 2, 3], [3, 2, 1]], 99),
                      "kind=full requires k == t, got k=99, t=3"),
        "partial-k-above-t": (("partial", FULL.matrix, 11), "k=11 out of range 1..10"),
        "one-list": (("full", np.array([[1, 2, 3]])), "a run set needs at least 2 lists, got 1"),
        "duplicate-rank": (("full", np.array([[1, 2, 3], [1, 1, 3]])), "run 1: duplicate rank 1"),
        "rank-0": (("full", [[0, 1, 2, 3, 4]] * 2), "run 0: rank 0 out of range 1..5"),
        "rank-6": (("full", [[1, 2, 3, 4, 6]] * 2), "run 0: rank 6 out of range 1..5"),
        "partial-count": (("partial", np.array([[1, 2, 0], [1, 0, 0]]), 2),
                          "run 1: 1 ranked entries, expected 2"),
        "partial-negative-rank": (("partial", [[1, 2, 0], [-1, 1, 2]], 2),
                                  "run 1: negative rank -1"),
        "topk-k-read-from-run-0": (("topk", [[1, 0, 1, 0], [1, 1, 1, 0]]),
                                   "run 1: 3 ones, expected 2"),
        "fraction": (("full", [[1.9, 2.2], [2, 1]]), "run 0: entry 1.9" + INT64),
        "fraction-run-1": (("full", [[1, 2], [2, 1.5]]), "run 1: entry 1.5" + INT64),
        "fraction-beside-integral-floats": (("full", [[1.0, 2.5], [2.0, 1.0]]),
                                            "run 0: entry 2.5" + INT64),
        "string": (("full", [["1", "2"], ["2", "1"]]),
                   "matrix must be real numbers, got dtype <U1"),
        "nan": (("full", [[1, 2], [NAN, 1]]), "run 1: entry nan" + INT64),
        "inf": (("full", [[1, 2], [2, INF]]), "run 1: entry inf" + INT64),
        "complex": (("full", [[1, 2], [2, 1 + 0j]]),
                    "matrix must be real numbers, got dtype complex128"),
        "python-int-beyond-int64": (("full", [[1, 2], [2, 2**70]]), f"run 1: entry {2**70}" + INT64),
        "python-int-read-as-float": (("full", [[1, 2**63], [2, 1]]), f"run 0: entry {2**63}" + INT64),
        "uint64-beyond-int64": (("full", np.array([[1, 2**63], [2, 1]], dtype=np.uint64)),
                                f"run 0: entry {2**63}" + INT64),
        # asarray reads this list as floats and rounds 2**53 + 1 to 2**53
        "python-int-above-2**53": (("full", [[1.0, 2**53 + 1], [2**53 + 1, 1.0]]),
                                   f"run 0: rank {2**53 + 1} out of range 1..2"),
        "ragged": (("full", [[1, 2], [1]]), "matrix must be one rectangular array, not ragged nesting"),
        "1d": (("full", [1.5, 2]), "matrix must be 2-dimensional (runs x features)"),
        "masked": (("full", np.ma.array([[1, 2], [2, 1]], mask=[[1, 0], [0, 0]])),
                   "matrix must not be a masked array"),
        **{f"k-{case}": (("topk", [[1, 0], [0, 1]], k), *integer("k", k))
           for case, k in [("fraction", 1.5), ("float", 1.0), ("bool", True)]},
    }),
    **rows(row_violations, {
        "fraction": (("full", [[1.5, 2]], 2), "run 0: entry 1.5" + INT64),
        "nan-in-run-1": (("topk", [[1, 0], [NAN, 1]], 1), "run 1: entry nan" + INT64),
    }),
    **rows(to_topk, {
        "full-no-k": ((FULL,), "converting full rankings to masks requires k"),
        "full-k-0": ((FULL, 0), "k=0 out of range 1..10"),
        "full-k-11": ((FULL, 11), "k=11 out of range 1..10"),
        "partial-other-k": ((PARTIAL, 3), "partial run sets keep their own k=4, got k=3"),
        "topk-other-k": ((MASKS, 3), "topk run sets keep their own k=4, got k=3"),
        **{f"{run_set.kind}-k-{case}": ((run_set, k), *integer("k", k)) for run_set, case, k in [
            (FULL, "fraction", 1.5), (FULL, "float", 1.0), (FULL, "bool", True),
            (PARTIAL, "float", 4.0), (MASKS, "float", 4.0)]},
    }),
    # probability: the random baseline
    **rows(normalizer, {
        "full-k-3-of-5": (("full", 5, 3), "kind=full requires k == t, got k=3, t=5"),
        "topk-no-k": (("topk", 5), "topk kind requires k"),
        "partial-no-k": (("partial", 5), "partial kind requires k"),
        "topk-k-6-of-5": (("topk", 5, 6), "k=6 out of range 1..5"),
        "banana-kind": (("banana", 5, 3), f"unknown kind 'banana', {KINDS}"),
        "x-kind": (("x", 3), f"unknown kind 'x', {KINDS}"),
        "k=2.5": (("topk", 10, 2.5), *integer("k", 2.5)),
        "k=2.0": (("topk", 10, 2.0), *integer("k", 2.0)),
        "k=True": (("partial", 10, True), *integer("k", True)),
        "t=10.5": (("topk", 10.5, 2), *integer("t", 10.5)),
        "full-t=10.0": (("full", 10.0), *integer("t", 10.0)),
        "t='10'": (("full", "10"), *integer("t", "10")),
        "topk-all-selected": (("topk", 9, 9), degenerate("topk", 9, 9), DegenerateNormalizerError),
        "full-one-feature": (("full", 1), degenerate("full", 1, 1), DegenerateNormalizerError),
        "partial-one-feature": (("partial", 1, 1), degenerate("partial", 1, 1),
                                DegenerateNormalizerError),
    }),
    # divergence: every input that _distribution and the reduction refuse
    **rows(kl, {
        "nan-in-p": (([NAN, 1.0], [0.5, 0.5]), "p" + FINITE + "nan"),
        "minus-inf-in-p": (([-INF, 1.0], [0.5, 0.5]), "p" + FINITE + "-inf"),
        "negative-p": (([-0.5, 1.5], [0.5, 0.5]), "p" + FINITE + "-0.5"),
        "short-p": (([1.0], [0.5, 0.5]), "length mismatch: (1,) vs (2,)"),
        # the second vector is named as the one at fault
        "2d-q": (([0.5, 0.5], [[0.5, 0.5]]), "q must be 1-dimensional (features)"),
        "2d-p-and-q": (([[1, 0]], [[0.5, 0.5]]), "p must be 1-dimensional (features)"),
        "support-mismatch": (([0.5, 0.5], [1.0, 0.0]), SUPPORT, SupportMismatchError),
    }),
    **rows(js_pair, {
        "bool-p": (([True, False], [0.5, 0.5]), "p must be real numbers, got dtype bool"),
        "inf-in-q": (([0.5, 0.5], [INF, 0.0]), "q" + FINITE + "inf"),
        "negative-q": (([0.5, 0.5], [1.5, -0.5]), "q" + FINITE + "-0.5"),
        "2d-p": (([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [1.0, 0.0]]),
                 "p must be 1-dimensional (features)"),
        "scalar-p": ((0.5, 0.5), "p must be 1-dimensional (features)"),
        "short-q": (([0.5, 0.5], [1.0]), "length mismatch: (2,) vs (1,)"),
        "nan-in-q": (([0.5, 0.5], [0.5, NAN]), "q" + FINITE + "nan"),
        # the midpoint 0.5 * 5e-324 underflows to 0 where p > 0
        "midpoint-underflow": (([1.0, 5e-324], [1.0, 0.0]), SUPPORT, SupportMismatchError),
    }),
    **rows(js_multi, {
        "nan-entry": (([[0.5, 0.5], [0.5, NAN]],), "probabilities" + FINITE + "nan"),
        "negative-entry": (([[0.5, 0.5], [-0.5, 1.5]],), "probabilities" + FINITE + "-0.5"),
        "one-row": (([[0.5, 0.5]],), "need at least 2 distributions, got 1"),
        "one-vector": (([0.5, 0.5],), "probabilities must be 2-dimensional (vectors x features)"),
        "ragged-rows": (([[0.5, 0.5], [1.0]],),
                        "probabilities must be one rectangular array, not ragged nesting"),
        "masked-row": (([np.ma.array([0.9, 0.1], mask=[1, 0]), [0.5, 0.5]],),
                       "probabilities must not be a masked array"),
        "midpoint-underflow": (([[1.0, 5e-324], [1.0, 0.0]],), SUPPORT, SupportMismatchError),
    }),
    **rows(js_stability, {"all-selected": ((ALL_SELECTED,), degenerate("topk", 3, 3),
                                           DegenerateNormalizerError)}),
    # baselines: each metric's domain and the lists it accepts
    **rows(spearman, {
        "one-feature": (((1,), (1,)), "Spearman correlation needs at least 2 features"),
        "length-mismatch": (((1, 2), (1, 2, 3)), "length mismatch: (2,) vs (3,)"),
        "duplicate": (((1, 2, 3), (1, 1, 1)), "second list" + RANKING + "duplicate rank 1"),
        "zero-rank": (((0, 1, 2), (1, 2, 3)), "first list" + RANKING + "rank 0 out of range 1..3"),
        "fraction": (((1.5, 2, 3), (1, 2, 3)), "first list: entry 1.5" + INT64),
        "strings": ((["1", "2"], [1, 2]), "first list must be real numbers, got dtype <U1"),
        "two-dimensional": (([[1, 2], [2, 1]], (1, 2)),
                            "first list must be 1-dimensional (features)"),
        "int-above-2**53": (((1.0, 2**53 + 1), (1, 2)),
                            "first list" + RANKING + f"rank {2**53 + 1} out of range 1..2"),
    }),
    **rows(kuncheva, {
        "none-selected": (((0, 0, 0), (0, 0, 0)), "Kuncheva index is undefined for k=0 of t=3"),
        "all-selected": (((1, 1, 1), (1, 1, 1)), "Kuncheva index is undefined for k=3 of t=3"),
        "mismatched-counts": (((1, 1, 0, 0), (1, 0, 0, 0)),
                              "masks select different counts: 2 vs 1"),
        "two": (((2, 0, 0, 0), (0, 1, 1, 0)), "first list" + MASK + "entry 2 is not 0 or 1"),
        "negative": (((1, 1, 0, 0), (1, -1, 1, 1)), "second list" + MASK + "entry -1 is not 0 or 1"),
        "fraction": (((1, 0.5, 0, 0), (1, 0, 0, 0)), "first list: entry 0.5" + INT64),
        "length-mismatch": (((1, 0, 1), (1, 1)), "length mismatch: (3,) vs (2,)"),
    }),
    **rows(jaccard, {
        "both-empty": (((0, 0), (0, 0)), "Jaccard index is undefined for two empty masks"),
        "two": (((2, 0, 0), (1, 0, 0)), "first list" + MASK + "entry 2 is not 0 or 1"),
        "negative": (((1, 0, 0), (1, 0, -1)), "second list" + MASK + "entry -1 is not 0 or 1"),
        "fraction": (((1, 0, 0), (1.5, 0, 0)), "second list: entry 1.5" + INT64),
        "length-mismatch": (((1, 0), (1, 0, 0)), "length mismatch: (2,) vs (3,)"),
    }),
    **rows(pairwise_stability, {
        "kuncheva-on-full": ((FULL, "kuncheva"),
                             "metric 'kuncheva' applies to topk run sets, got 'full'",
                             MetricMismatchError),
        "spearman-on-topk": ((MASKS, "spearman"),
                             "metric 'spearman' applies to full run sets, got 'topk'",
                             MetricMismatchError),
        "kendall": ((FULL, "kendall"),
                    "unknown metric 'kendall', expected one of ['jaccard', 'kuncheva', 'spearman']"),
    }),
    **rows(similarity_matrix, {
        "spearman-one-feature": ((RunSet("full", [[1], [1]]), "spearman"),
                                 "Spearman correlation needs at least 2 features"),
        "kuncheva-all-selected": ((ALL_SELECTED, "kuncheva"),
                                  "Kuncheva index is undefined for k=3 of t=3"),
    }),
    # mds: distances, embeddings and the projection
    **rows(distance_matrix, {
        "topk-and-full": ((STABLE + [("b", RANKINGS)],), "mixed run set kinds: ['full', 'topk']"),
        "topk-and-partial": ((STABLE + [("b", CUT)],), "mixed run set kinds: ['partial', 'topk']"),
        "k-8-and-10": ((STABLE + [("b", WIDER)],),
                       "mixed run set shapes (t, k): [(40, 8), (40, 10)]"),
        "euclid": ((STABLE, "euclid"), "unknown distance 'euclid', expected one of ('sqrt-js', "
                   "'one-minus-spearman', 'one-minus-kuncheva', 'one-minus-jaccard')"),
        "no-run-sets": (([],), "need at least one run set"),
        "one-minus-spearman-on-topk": ((STABLE, "one-minus-spearman"),
                                       "metric 'spearman' applies to full run sets, got 'topk'",
                                       MetricMismatchError),
    }),
    **rows(DistanceMatrix, {
        "asymmetric": ((np.array([[0, 1.0], [2.0, 0]]), PAIRS), "distance matrix must be symmetric"),
        "diagonal": ((np.array([[1.0, 1.0], [1.0, 0]]), PAIRS),
                     "distance matrix diagonal must be zero"),
        "negative": ((np.array([[0, -1.0], [-1.0, 0]]), PAIRS), "distances must be non-negative"),
        "ragged": (([[0, 1], [1]], PAIRS),
                   "distances must be one rectangular array, not ragged nesting"),
        "2x3": ((np.zeros((2, 3)), PAIRS), "distance matrix must be square"),
        "one-label-for-two": ((ZEROS, (("a", 0),)), "one label per point required"),
        "strings": ((np.array([["0", "1"], ["1", "0"]]), PAIRS),
                    "distances must be real numbers, got dtype <U1"),
        **{f"nan-and-{case}": ((np.array([[0, NAN], [other, 0]]), PAIRS),
                               "distance matrix must not contain NaN")
           for case, other in [("nan", NAN), ("1", 1.0)]},
        "labels-not-pairs": ((ZEROS, ("a", "b")), "labels must be (label, run) pairs, got 'a'",
                             TypeError),
        **{f"labels-{labels}": ((ZEROS, labels), "labels must be a sequence of (label, run) pairs, "
                                f"got {labels}", TypeError) for labels in (None, 5)},
        "run-0.7": ((ZEROS, (("a", 0.7), ("a", 1))), *integer("run", 0.7)),
        **{f"label-{case}": ((ZEROS, (("a", 0), (label, 1))), f"label must be a str, got {label!r}",
                             TypeError)
           for case, label in [("None", None), ("bytes", b"x"), ("0", 0)]},
    }),
    **rows(Embedding, {
        "coords-1d": ((np.zeros(3), FAIR, 0.0), "coords must be an (n, 2) array, got shape (3,)"),
        "coords-3-columns": ((np.zeros((3, 3)), FAIR, 0.0),
                             "coords must be an (n, 2) array, got shape (3, 3)"),
        "coords-ragged": (([[0.0, 1.0], [2.0]], FAIR, 0.0),
                          "coords must be one rectangular array, not ragged nesting"),
        "coords-nan": ((np.array([[0.0, NAN]]), FAIR, 0.0), "coords must be finite"),
        "coords-inf": ((np.array([[0.0, INF]]), FAIR, 0.0), "coords must be finite"),
        "eigvals-one": ((SMALL, (1.0,), 0.0), EIGVALS + "(1.0,)"),
        "eigvals-three": ((SMALL, (1.0, 2.0, 3.0), 0.0), EIGVALS + "(1.0, 2.0, 3.0)"),
        "eigvals-scalar": ((SMALL, 1.0, 0.0), EIGVALS + "1.0"),
        "eigvals-negative": ((SMALL, (1.0, -2.0), 0.0), EIGVALS + "(1.0, -2.0)"),
        "eigvals-nan": ((SMALL, (NAN, 2.0), 0.0), EIGVALS + "(nan, 2.0)"),
        "eigvals-inf": ((SMALL, (INF, 2.0), 0.0), EIGVALS + "(inf, 2.0)"),
        "eigvals-string": ((SMALL, ("1", 2.0), 0.0), EIGVALS + "('1', 2.0)"),
        **{f"stress-{case}": ((SMALL, FAIR, stress), STRESS + repr(stress)) for case, stress in
           [("negative", -1.0), ("nan", NAN), ("inf", INF), ("bool", True), ("None", None)]},
    }),
    **rows(classical_mds, {
        "two-points": ((DistanceMatrix(ZEROS, PAIRS),), "need at least 3 points, got 2"),
        "infinite-distance": ((DistanceMatrix(np.array([[0, INF, 1], [INF, 0, 1], [1, 1, 0]]),
                                              THREE),),
                              "double-centred distance matrix is not finite", MdsConvergenceError),
    }),
    # runset_io: the file grammar, then the lists it holds
    **rows(parse_runset, {
        **{case: ((text,), message, RunSetParseError) for case, text, message in [
            ("empty", "", "empty file"),
            ("v2-header", "#stabrank v2 kind=full t=3 k=3 K=2\n1,1\n2,2\n3,3\n", HEADER),
            *((f"header-{case}", f"{header}\n1,2\n2,1\n", HEADER) for case, header in [
                ("trailing-space", FULL_2[:-1] + " "), ("carriage-return", FULL_2[:-1] + "\r"),
                ("leading-zero", "#stabrank v1 kind=full t=02 k=2 K=2"),
                ("arabic-indic-two", "#stabrank v1 kind=full t=٢ k=2 K=2"),
                ("huge-K", FULL_2[:-2] + "9" * 5000)]),
            ("header-t-0", "#stabrank v1 kind=full t=0 k=0 K=2\n",
             "line 1: lists must contain at least one feature"),
            ("header-k-0", "#stabrank v1 kind=topk t=3 k=0 K=2\n0,0\n0,0\n0,0\n",
             "line 1: k=0 out of range 1..3"),
            ("header-K-0", "#stabrank v1 kind=full t=2 k=2 K=0\n\n\n", "line 1: K must be positive"),
            ("topk-header-k-4-of-3", "#stabrank v1 kind=topk t=3 k=4 K=2\n1,1\n1,1\n1,1\n",
             "line 1: k=4 out of range 1..3"),
            ("full-header-k-4-of-3", "#stabrank v1 kind=full t=3 k=4 K=2\n1,1\n2,2\n3,3\n",
             "line 1: kind=full requires k == t, got k=4, t=3"),
            ("full-header-k-2-of-3", "#stabrank v1 kind=full t=3 k=2 K=2\n1,1\n2,2\n3,3\n",
             "line 1: kind=full requires k == t, got k=2, t=3"),
            ("one-data-row-of-10", "#stabrank v1 kind=full t=10 k=10 K=5\n1,2,3,4,5\n",
             "expected 10 data rows, found 1"),
            ("one-column-of-2", FULL_2 + "1,2\n2\n", "line 3: expected 2 columns, found 1"),
            ("letter-cell", FULL_2 + "1,2\n2,x\n", "line 3, column 2: invalid integer 'x'"),
            ("oversized-cell", FULL_2 + "1,99999999999999999999999\n2,1\n",
             "line 2, column 2: invalid integer '99999999999999999999999'"),
            *((f"cell-{case}", f"{FULL_2}1,2\n2,{cell}\n",
               f"line 3, column 2: invalid integer {cell!r}") for case, cell in [
                ("plus", "+1"), ("space", " 0"), ("tab", "\t1"), ("leading-zeros", "007"),
                ("underscore", "1_0"), ("arabic-indic-one", "١"), ("minus-zero", "-0"),
                ("int64-max-plus-one", "9223372036854775808")]),
            ("no-final-newline", FULL_2 + "1,2\n2,1", "line 3: no newline at the end of the file")]},
        "duplicate-in-column-2": (("#stabrank v1 kind=full t=3 k=3 K=2\n1,1\n2,1\n3,3\n",),
                                  "column 2: duplicate rank 1", RunSetValidationError),
        "one-list": (("#stabrank v1 kind=full t=2 k=2 K=1\n1\n2\n",),
                     "a run set needs at least 2 lists, got 1", RunSetValidationError),
    }),
    # cli: the metric list, judged before the file is read
    **rows(cmd_stability, {case: ((Namespace(file="unread.csv", metrics=metrics),), message)
                           for case, metrics, message in [
        ("kendall", "sjs,kendall",
         "unknown metric(s) kendall; expected a subset of sjs,spearman,kuncheva,jaccard"),
        ("sjs-twice", "sjs,kuncheva,sjs", "metric(s) sjs requested more than once"),
        ("no-metrics", ",", "no metrics requested")]}),
    # synth: every field of ExperimentConfig, then the overlap family
    **rows(config, {
        **{f"{field}-{value}": ((dict([(field, value)]),), message) for field, value, message in [
            ("t", 0, "t must be >= 1, got 0"), ("k", 0, "k=0 out of range 1..40"),
            ("k", 41, "k=41 out of range 1..40"), ("runs", 1, "runs must be >= 2, got 1"),
            ("fixed", -1, "fixed=-1 out of range 0..6"), ("fixed", 7, "fixed=7 out of range 0..6"),
            ("lam", 1.5, "lam=1.5 out of range [0, 1]"), ("q", -0.1, "q=-0.1 out of range [0, 1]"),
            ("overlap", 0, "overlap=0 out of range 1..k=10"),
            ("overlap", 11, "overlap=11 out of range 1..k=10"),
            # numpy's SeedSequence would refuse it later without naming the field
            ("seed", -1, "seed must be >= 0, got -1")]},
        **{f"{field}-{value!r}": ((dict([(field, value)]),), *integer(field, value))
           for field, value in [("k", 10.5), ("runs", True), ("seed", 3.0), ("fixed", 1.0)]},
        **{f"{field}-{value!r}": ((dict([(field, value)]),),
                                  f"{field} must be a real number, got {value!r}", TypeError)
           for field, value in [("lam", True), ("q", True), ("q", "0.5"), ("lam", None),
                                ("q", False), ("lam", 0.5j)]},
    }, "ExperimentConfig"),
    **rows(gen_overlap_family, {
        "no-overlap": ((config({}),), "the overlap family requires cfg.overlap"),
        "overlap-equals-k": ((config(dict(overlap=10)),), "overlap=10 must be smaller than k=10"),
        "pool-exhausted": ((ExperimentConfig(t=12, k=10, runs=4, seed=0, overlap=5),), POOL),
    }),
    # experiments: the presets and their keywords
    **rows(experiment, {
        **{f"{name}-overlap": ((name, 0, {**EXPERIMENT, "overlap": 4}),
                               "--overlap only applies to fig6")
           for name in ("fig4", "fig5", "fig7")},
        **{f"{keyword}-{value}": (("fig4", 0, {**EXPERIMENT, keyword: value}),
                                  f"run_experiment() got an unexpected keyword argument '{keyword}'",
                                  TypeError)
           for keyword, value in [("fixed", 3), ("lam", 0.5), ("q", 0.5), ("points", 6)]},
        "fig8": (("fig8", 0, EXPERIMENT), "unknown experiment 'fig8', expected fig4..fig7"),
        "fig6-overlap-equals-k": (("fig6", 0, dict(t=30, k=8, runs=4, overlap=8)),
                                  "overlap=8 must be smaller than k=8"),
        "fig6-pool-exhausted": (("fig6", 0, dict(t=12, k=10, runs=4, overlap=5)), POOL),
        "seed-None": (("fig5", None, dict(t=30, k=8, runs=4)), *integer("seed", None)),
        "t-30.5": (("fig5", 0, dict(t=30.5, k=8, runs=4)), *integer("t", 30.5)),
        "runs-4.0": (("fig5", 0, dict(t=30, k=8, runs=4.0)), *integer("runs", 4.0)),
        "overlap-3.5": (("fig6", 0, dict(t=30, k=8, runs=4, overlap=3.5)), *integer("overlap", 3.5)),
    }, "run_experiment"),
}


def check_refusal(row: str):
    """The call of ``REFUSALS[row]`` raises exactly its error, with exactly its message."""
    call, args, error, message = REFUSALS[row]
    with pytest.raises(error) as refused:
        call(*args)
    assert type(refused.value) is error
    assert str(refused.value) == message


def table_rows(prefix: str, *cases):
    """Parametrize ``row`` over the rows ``prefix + case``, each under its case as
    its id, or under ``id`` for a case given as ``(id, case)``: a family of cases
    in another module keeps its test name and ids while the table holds its rows."""
    cases = [(case, case) if isinstance(case, str) else case for case in cases]
    return pytest.mark.parametrize("row", [prefix + case for _, case in cases],
                                   ids=[case_id for case_id, _ in cases])


@pytest.mark.parametrize("row", REFUSALS)
def test_refusal(row):
    check_refusal(row)


# the statements that no row reaches, each with the test that reaches it
EXEMPT = {
    'mds.classical_mds: raise MdsConvergenceError(f"eigendecomposition failed: {exc}") from None':
        "test_io_cli.py::TestMdsCommand::test_failed_eigensolve_exits_5",
    "cli.main: raise": "test_io_cli.py::test_an_unmapped_exception_propagates",
    'runset_io.read_text: raise RunSetParseError(f"{path}: not UTF-8 text at byte {exc.start}") '
    "from None": "test_io_cli.py::TestParsing::test_non_utf8_file",
}
MESSAGE_FUNCTIONS = ("lists._shape_problem", "lists._scan", "lists._validate_permutation")


def refusal_statements() -> dict[tuple[str, str, int], str]:
    """Each ``raise`` under ``src/stabrank`` and each ``return`` of a string in
    ``MESSAGE_FUNCTIONS``, by (trace event, file, line) of each of its lines,
    named ``module.function: its source text`` (``#2`` after the second of one
    text in one function): the event is ``line`` for a raise and ``return``
    for a message."""
    statements, seen = {}, Counter()
    for path in sorted(Path(stabrank.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}")
                    continue
                message = (scope in MESSAGE_FUNCTIONS and isinstance(child, ast.Return)
                           and any(isinstance(n, ast.JoinedStr) or isinstance(n, ast.Constant)
                                   and isinstance(n.value, str) for n in ast.walk(child)))
                if isinstance(child, ast.Raise) or message:
                    name = f"{scope}: {' '.join(ast.get_source_segment(source, child).split())}"
                    seen[name] += 1
                    name += f" #{seen[name]}" if seen[name] > 1 else ""
                    for line in range(child.lineno, child.end_lineno + 1):
                        statements["return" if message else "line", str(path), line] = name
                visit(child, scope)

        visit(ast.parse(source), path.stem)
    return statements


def test_every_refusal_in_src_is_reached():
    statements = refusal_statements()
    files = {file for _, file, _ in statements}
    reached = set()

    def local(frame, event, arg):
        if event == "line" or (event == "return" and isinstance(arg, str)):
            reached.add(statements.get((event, frame.f_code.co_filename, frame.f_lineno)))
        return local

    calls = [(call, args) for call, args, _, _ in REFUSALS.values()]
    calls += [(call, (make(np.array(valid)),))
              for call, valid, _, _ in ENTRY_POINTS.values() for make, _ in INPUTS.values()]
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        for call, args in calls:
            with suppress(Exception):
                call(*args)
    finally:
        sys.settrace(previous)
    names = set(statements.values())
    stale = sorted(set(EXEMPT) - (names - reached))  # gone from src/, or reached by a row
    assert not stale, "stale exemptions:\n" + "\n".join(stale)
    unreached = sorted(names - reached - set(EXEMPT))
    assert not unreached, "no row reaches:\n" + "\n".join(unreached)


@pytest.mark.parametrize("test", EXEMPT.values())
def test_each_exemption_names_a_test(test):
    module, *names = test.split("::")
    assert callable(reduce(getattr, names, importlib.import_module(module.removesuffix(".py"))))
