"""Outside-in layer trace: wraps stabrank's public functions from outside.

``Tracer.install()`` replaces each traced function in every stabrank module
namespace that holds it (modules import each other's functions by name) and
the two traced ``RunSet`` methods on the class; ``uninstall()`` puts the
originals back. Nothing under ``src/`` changes.

Each wrapped call is a span. Its self time is its duration minus the time of
the wrapped spans it caused; totals, call counts and byte/point counters are
kept in memory per layer. Spans are aggregated, not stored one by one, because
the embed workload makes about 40,000 ``js_pair`` calls per operation.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, module, attribute); "RunSet.x" names a method of lists.RunSet
TRACED = (
    ("runset_io.read_columns", "runset_io", "read_columns"),
    ("runset_io.column_violations", "runset_io", "column_violations"),
    ("runset_io.serialize_runset", "runset_io", "serialize_runset"),
    ("lists.RunSet", "lists", "RunSet.__init__"),
    ("lists.RunSet.to_topk", "lists", "RunSet.to_topk"),
    ("probability.run_probabilities", "probability", "run_probabilities"),
    ("probability.normalizer", "probability", "normalizer"),
    ("divergence.js_stability", "divergence", "js_stability"),
    ("divergence.js_pair", "divergence", "js_pair"),
    ("baselines.pairwise_stability", "baselines", "pairwise_stability"),
    ("synth.generate", "synth", "gen_ranking_family"),
    ("synth.generate", "synth", "gen_subset_family"),
    ("synth.generate", "synth", "gen_overlap_family"),
    ("synth.generate", "synth", "gen_rank_shuffle_family"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
    ("mds.distance_matrix", "mds", "distance_matrix"),
    ("mds.classical_mds", "mds", "classical_mds"),
    ("cli.main", "cli", "main"),
)


def _counters(layer: str, args: tuple, result) -> dict:
    if layer == "runset_io.read_columns":
        return {"bytes": len(args[0])}
    if layer == "mds.distance_matrix":
        return {"points": result.n}
    return {}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._children = []  # wrapped-child time of each open span
        self._saved = []  # (owner, attribute, original) to restore

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, layer: str, fn):
        children = self._children
        self_s, calls, counts = self.self_s, self.calls, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            for key, value in _counters(layer, args, result).items():
                counts[f"{layer}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "stabrank" or name.startswith("stabrank.")
        }
        for layer, module_name, attribute in TRACED:
            module = modules[f"stabrank.{module_name}"]
            if attribute.startswith("RunSet."):
                owner, name = module.RunSet, attribute.split(".", 1)[1]
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original)
            for holder in modules.values():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


PER_LAYER = (
    ("runset_io.read_columns.ms", "ms"),
    ("runset_io.column_violations.ms", "ms"),
    ("runset_io.parse_mb_per_s", "MB/s"),
    ("runset_io.serialize_runset.ms", "ms"),
    ("lists.RunSet.ms", "ms"),
    ("lists.RunSet.calls", "count"),
    ("lists.RunSet.to_topk.ms", "ms"),
    ("probability.run_probabilities.ms", "ms"),
    ("probability.normalizer.ms", "ms"),
    ("divergence.js_stability.ms", "ms"),
    ("divergence.js_stability.calls", "count"),
    ("divergence.js_pair.ms", "ms"),
    ("divergence.js_pair.calls", "count"),
    ("baselines.pairwise_stability.ms", "ms"),
    ("synth.generate.ms", "ms"),
    ("synth.generate.calls", "count"),
    ("experiments.run_experiment.ms", "ms"),
    ("mds.distance_matrix.ms", "ms"),
    ("mds.classical_mds.ms", "ms"),
    ("mds.points", "count"),
    ("cli.main.ms", "ms"),
)


def serialize_ms_per_file(setup: Tracer) -> float:
    """Mean self time of ``serialize_runset`` per file written at set-up."""
    files = setup.calls["runset_io.serialize_runset"]
    return 1e3 * setup.self_s["runset_io.serialize_runset"] / files if files else 0.0


def layer_metrics(ops: Tracer, ops_count: int, serialize_ms: float) -> dict:
    """Per-operation layer figures from the traced operations.

    ``serialize_runset`` is reported per file written at set-up (see
    ``serialize_ms_per_file``), since no operation writes run-set files.
    """
    values = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name == "runset_io.parse_mb_per_s":
            busy = ops.self_s["runset_io.read_columns"]
            value = ops.counts["runset_io.read_columns.bytes"] / 1e6 / busy if busy else 0.0
        elif name == "runset_io.serialize_runset.ms":
            value = serialize_ms
        elif name == "mds.points":
            value = ops.counts["mds.distance_matrix.points"] / ops_count
        elif stat == "ms":
            value = 1e3 * ops.self_s[layer] / ops_count
        else:
            value = ops.calls[layer] / ops_count
        values[name] = {"value": value, "unit": unit}
    return values
