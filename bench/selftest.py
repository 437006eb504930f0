"""Fast self-test of the benchmark (a few seconds): python3 bench/selftest.py

Runs every workload at tiny shapes and requires its checks to pass, with and
without the layer trace, and requires each traced layer to see calls on the
workloads that exercise it. Then it perturbs outputs and requires each check
to reject them: s_js off by 1e-6, one flipped cell in a written file, and the
MDS coordinates of two points swapped. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# layers each workload must reach (the README's table, at tiny shapes)
REACHES = {
    "score-files": ("runset_io.read_columns", "runset_io.column_violations", "lists.RunSet",
                    "probability.run_probabilities", "probability.normalizer",
                    "divergence.js_stability", "baselines.pairwise_stability", "cli.main"),
    "sweep": ("synth.generate", "experiments.run_experiment", "lists.RunSet.to_topk",
              "divergence.js_stability", "baselines.pairwise_stability", "cli.main"),
    "embed": ("runset_io.read_columns", "divergence.js_pair", "mds.distance_matrix",
              "mds.classical_mds", "cli.main"),
    "score-large": ("lists.RunSet", "lists.RunSet.to_topk", "divergence.js_stability",
                    "baselines.pairwise_stability"),
}


def run_tiny(name: str, workdir: Path, tracer=None):
    workload = WORKLOADS[name](seed=7, workdir=workdir, tiny=True)
    if tracer:
        tracer.install()
    try:
        workload.prepare()
        outputs = [workload.op(i) for i in range(2)]
    finally:
        if tracer:
            tracer.uninstall()
    return workload, outputs


def shift_sjs(text: str, delta: float = 1e-6) -> str:
    report = json.loads(text)
    report["metrics"]["sjs"]["s_js"] += delta
    return json.dumps(report)


def shift_csv(text: str, row: int, column: int, delta: float = 1e-6) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def perturbations(name: str, workload, outputs):
    """(description, apply) pairs; ``apply`` returns the perturbed outputs."""
    if name == "score-files":
        triple, results = outputs[0]

        def sjs_off():
            (code, text), rest = results[0], results[1:]
            return [(triple, [(code, shift_sjs(text)), *rest])] + outputs[1:]

        def flip_cell():
            path = workload.inputs[triple, "topk"][0]
            header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
            cells = first.split(",")
            cells[0] = "1" if cells[0] == "0" else "0"
            path.write_text(f"{header}\n{','.join(cells)}\n{rest}", encoding="utf-8")
            return outputs

        return [("s_js off by 1e-6", sjs_off), ("one flipped file cell", flip_cell)]
    if name == "sweep":
        seed, results = outputs[0]

        def sjs_off():
            code, text = results[0]  # fig4: row 6 is the interior point i=K/2
            return [(seed, [(code, shift_csv(text, 6, 1)), *results[1:]])] + outputs[1:]

        return [("s_js off by 1e-6", sjs_off)]
    if name == "embed":
        number, results = outputs[0]

        def swap_points():
            code, text = results[0]
            doc = json.loads(text)
            first, other = doc["points"][0], doc["points"][workload.runs]
            for axis in ("x", "y"):
                first[axis], other[axis] = other[axis], first[axis]
            return [(number, [(code, json.dumps(doc)), *results[1:]])] + outputs[1:]

        def swap_axes():
            code, text = results[1]
            doc = json.loads(text)
            for point in doc["points"]:
                point["x"], point["y"] = point["y"], point["x"]
            return [(number, [results[0], (code, json.dumps(doc))])] + outputs[1:]

        return [("two points' MDS coordinates swapped", swap_points),
                ("MDS axes swapped", swap_axes)]

    def sjs_off():
        first = list(outputs[0])
        first[0] += 1e-6
        return [tuple(first)] + outputs[1:]

    return [("s_js off by 1e-6", sjs_off)]


def main() -> int:
    failures = []
    base = ROOT / "bench" / "_work"
    base.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        for traced in (False, True):
            workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=base))
            try:
                tracer = layertrace.Tracer() if traced else None
                workload, outputs = run_tiny(name, workdir, tracer)
                problems = workload.check(outputs)
                if problems:
                    failures.append(f"{name}: clean outputs rejected: {problems[:3]}")
                if traced:
                    missing = [layer for layer in REACHES[name] if not tracer.calls[layer]]
                    if missing:
                        failures.append(f"{name}: trace saw no calls to {missing}")
                    continue
                for description, perturb in perturbations(name, workload, outputs):
                    if not workload.check(perturb()):
                        failures.append(f"{name}: check accepted {description}")
                    else:
                        print(f"ok  {name}: rejects {description}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        print(f"ok  {name}: tiny run passes its checks, traced and untraced")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
