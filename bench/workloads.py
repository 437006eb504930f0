"""The four workloads: how each builds its inputs, runs one operation and checks it.

A workload is made from ``(seed, workdir, tiny)``. ``prepare()`` builds its
inputs from the seed alone (the program receives only those inputs) and may be
called several times; each call does the same work. ``op(i)`` is one timed
operation and returns what the program produced; every operation does the same
work. ``check(outputs)`` compares those outputs with ``oracle`` and returns a
list of problems, empty when all are correct. ``tiny=True`` shrinks every shape
so the self-test runs in seconds. ``warmup`` says whether set-up ends with one
operation outside the timed loop.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import oracle
from stabrank import baselines, cli, divergence, lists, runset_io, synth


def ranking_matrix(rng: np.random.Generator, runs: int, t: int, fixed: int) -> np.ndarray:
    """``fixed`` rows repeat one random permutation of 1..t; the rest are independent."""
    m = np.tile(np.arange(1, t + 1, dtype=np.int64), (runs, 1))
    rng.permuted(m, axis=1, out=m)
    m[:fixed] = m[0]
    return m


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``stabrank <argv>`` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class ScoreFiles:
    """``stabrank stability --json`` on a full, a top-k and a partial file."""

    name = "score-files"
    warmup = True
    # (kind, metrics) of the three files one operation scores
    FILES = (("full", "sjs,spearman"), ("topk", "sjs,kuncheva,jaccard"), ("partial", "sjs"))

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed, self.workdir = seed, workdir
        self.t, self.k, self.runs = (60, 20, 10) if tiny else (2000, 600, 100)
        self.pool = 4  # distinct file triples; operation i scores triple i % pool
        self.inputs = {}  # (triple, kind) -> (path, k, matrix)

    def prepare(self) -> None:
        for triple in range(self.pool):
            for number, (kind, _) in enumerate(self.FILES):
                rng = np.random.default_rng([self.seed, triple, number])
                m = ranking_matrix(rng, self.runs, self.t, fixed=self.runs // 2)
                k = self.t if kind == "full" else self.k
                if kind == "topk":
                    m = (m <= k).astype(np.int64)
                elif kind == "partial":
                    m = np.where(m <= k, m, 0)
                path = self.workdir / f"{kind}{triple}.csv"
                runset_io.save_runset(lists.RunSet(kind, m, k), path)
                self.inputs[triple, kind] = (path, k, m)

    def op(self, i: int):
        triple = i % self.pool
        return triple, [
            call_cli(["stability", str(self.inputs[triple, kind][0]), "--metrics", metrics, "--json"])
            for kind, metrics in self.FILES
        ]

    def check(self, outputs) -> list[str]:
        problems = []
        for (triple, kind), (path, k, m) in self.inputs.items():
            if not oracle.file_matches(path.read_text(encoding="utf-8"), kind, k, m):
                problems.append(f"{path.name}: file differs from the matrix it was written from")
        expected = {}
        for triple, results in outputs:
            for (kind, metrics), (code, text) in zip(self.FILES, results):
                if (triple, kind) not in expected:
                    _, k, m = self.inputs[triple, kind]
                    expected[triple, kind] = _score_files_expected(kind, k, m, metrics)
                problem = _compare_report(code, text, expected[triple, kind])
                if problem:
                    problems.append(f"{kind}{triple}: {problem}")
        return problems


def _score_files_expected(kind: str, k: int, m: np.ndarray, metrics: str) -> dict:
    runs, t = m.shape
    values = {"sjs": oracle.sjs(kind, k, m)}
    if "spearman" in metrics:
        values["spearman"] = {"phi": oracle.spearman(m)}
    if "kuncheva" in metrics:
        values["kuncheva"] = {"phi": oracle.kuncheva(k, m)}
    if "jaccard" in metrics:
        values["jaccard"] = {"phi": oracle.jaccard(k, m)}
    return {"schema": 1, "kind": kind, "t": t, "k": k, "K": runs, "metrics": values}


def _compare_report(code: int, text: str, expected: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not JSON"
    shape = {key: report.get(key) for key in ("schema", "kind", "t", "k", "K")}
    if shape != {key: expected[key] for key in shape}:
        return f"shape {shape} differs"
    if set(report["metrics"]) != set(expected["metrics"]):
        return f"metrics {sorted(report['metrics'])} differ"
    for metric, fields in expected["metrics"].items():
        for field, want in fields.items():
            got = report["metrics"][metric].get(field)
            if not isinstance(got, (int, float)) or not oracle.close(got, want):
                return f"{metric}.{field} = {got}, oracle {want:.12g}"
    return None


class Sweep:
    """``stabrank experiment fig4..fig7`` at their paper defaults, as CSV."""

    name = "sweep"
    warmup = True
    PRESETS = ("fig4", "fig5", "fig6", "fig7")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        # the paper defaults, given explicitly; K stays 100 when tiny, since
        # with few runs s_js can dip between grid points
        self.t, self.k, self.runs, self.overlap = (100, 30, 100, 15) if tiny else (2000, 600, 100, 350)

    def prepare(self) -> None:
        """The inputs are the command lines; only the seed varies."""

    def op(self, i: int):
        seed = 1000 * self.seed + i
        shape = ["--t", str(self.t), "--k", str(self.k), "--runs", str(self.runs)]
        results = []
        for preset in self.PRESETS:
            overlap = ["--overlap", str(self.overlap)] if preset == "fig6" else []
            results.append(call_cli(["experiment", preset, "--seed", str(seed), *shape, *overlap]))
        return seed, results

    def check(self, outputs) -> list[str]:
        problems = []
        for seed, results in outputs:
            for preset, (code, text) in zip(self.PRESETS, results):
                problem = f"exit code {code}" if code else self._check_curve(preset, seed, text)
                if problem:
                    problems.append(f"{preset} seed {seed}: {problem}")
        return problems

    def _check_curve(self, preset: str, seed: int, text: str) -> str | None:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 11:
            return f"{len(rows)} points, expected 11"
        col = {name: [float(row[name]) for row in rows] for name in rows[0]}
        cfg = dict(t=self.t, k=self.k, runs=self.runs, seed=seed)
        mid = 5  # the interior point the oracle recomputes
        if preset in ("fig4", "fig5"):
            phi = "phi_spearman" if preset == "fig4" else "phi_kuncheva"
            if col["i"] != [float(round(x)) for x in np.linspace(0, self.runs, 11)]:
                return "unexpected grid of fixed outputs"
            if col["s_js"][-1] != 1.0 or col[phi][-1] != 1.0:
                return "s_js and phi are not 1 at i=K"
            if any(b < a for a, b in zip(col["s_js"], col["s_js"][1:])):
                return "s_js falls as i grows"
            fixed = int(col["i"][mid])
            if preset == "fig4":
                m = synth.gen_ranking_family(synth.ExperimentConfig(**{**cfg, "k": self.t}, fixed=fixed)).matrix
                want = (oracle.sjs("full", self.t, m)["s_js"], oracle.spearman(m))
            else:
                m = synth.gen_subset_family(synth.ExperimentConfig(**cfg, fixed=fixed)).matrix
                want = (oracle.sjs("topk", self.k, m)["s_js"], oracle.kuncheva(self.k, m))
            got = (col["s_js"][mid], col[phi][mid])
        else:
            knob = "lambda" if preset == "fig6" else "q"
            if col[knob] != [x / 10 for x in range(11)]:
                return f"unexpected grid of {knob}"
            if preset == "fig6":
                # the selected sets do not depend on lambda
                if len(set(col["s_js_topk"])) != 1 or len(set(col["phi_kuncheva"])) != 1:
                    return "s_js_topk or phi_kuncheva varies with lambda"
                rs = synth.gen_overlap_family(
                    synth.ExperimentConfig(**cfg, overlap=self.overlap, lam=0.5)
                )
            else:
                if set(col["s_js_topk"]) != {1.0} or set(col["phi_kuncheva"]) != {1.0}:
                    return "s_js_topk or phi_kuncheva is not 1 for every q"
                rs = synth.gen_rank_shuffle_family(synth.ExperimentConfig(**cfg, q=0.5))
            masks = (rs.matrix != 0).astype(np.int64)
            want = (
                oracle.sjs("partial", self.k, rs.matrix)["s_js"],
                oracle.sjs("topk", self.k, masks)["s_js"],
                oracle.kuncheva(self.k, masks),
            )
            got = (col["s_js_partial"][mid], col["s_js_topk"][mid], col["phi_kuncheva"][mid])
        for g, w in zip(got, want):
            if not oracle.close(g, w):
                return f"interior point {g} differs from oracle {w:.12g}"
        return None


class Embed:
    """Two ``stabrank mds`` calls (sqrt-JS, n=200): top-k masks, then full rankings.

    Each call embeds two mostly stable algorithms: in each, 80 of 100 runs
    repeat one output and 20 are random.
    """

    name = "embed"
    warmup = True
    KINDS = ("topk", "full")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed, self.workdir = seed, workdir
        if tiny:
            self.runs, self.fixed, self.mask_t, self.mask_k, self.rank_t = 10, 8, 40, 10, 20
        else:
            self.runs, self.fixed, self.mask_t, self.mask_k, self.rank_t = 100, 80, 500, 100, 200
        self.pool = 2  # distinct input sets; operation i embeds set i % pool
        self.inputs = {}  # (set, kind) -> (paths, k, stacked matrix of both algorithms)

    def prepare(self) -> None:
        for number in range(self.pool):
            for kind in self.KINDS:
                t = self.mask_t if kind == "topk" else self.rank_t
                k = self.mask_k if kind == "topk" else t
                paths, mats = [], []
                for algorithm, label in enumerate("ab"):
                    rng = np.random.default_rng([self.seed, number, algorithm, t])
                    m = ranking_matrix(rng, self.runs, t, self.fixed)
                    if kind == "topk":
                        m = (m <= k).astype(np.int64)
                    path = self.workdir / f"{kind}{number}{label}.csv"
                    runset_io.save_runset(lists.RunSet(kind, m, k), path)
                    paths.append(str(path))
                    mats.append(m)
                self.inputs[number, kind] = (paths, k, np.vstack(mats))

    def op(self, i: int):
        number = i % self.pool
        return number, [
            call_cli(["mds", *self.inputs[number, kind][0], "--json"]) for kind in self.KINDS
        ]

    def check(self, outputs) -> list[str]:
        problems, references = [], {}
        for number, results in outputs:
            for kind, (code, text) in zip(self.KINDS, results):
                key = number, kind
                if key not in references:
                    _, k, m = self.inputs[key]
                    references[key] = oracle.MdsReference(
                        oracle.sqrt_js_matrix(oracle.probabilities(kind, k, m))
                    )
                problem = self._check_embedding(code, text, references[key], number, kind)
                if problem:
                    problems.append(f"{kind}{number}: {problem}")
        return problems

    def _check_embedding(self, code, text, ref: oracle.MdsReference, number, kind) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        labels = [(p["label"], p["run"]) for p in doc["points"]]
        want = [(f"{kind}{number}{label}", run) for label in "ab" for run in range(self.runs)]
        if labels != want:
            return "points are not labelled in input order"
        if any(abs(g - w) > ref.eig_tol for g, w in zip(doc["eigvals"], ref.eigvals[:2])):
            return f"eigenvalues {doc['eigvals']} differ from eigh {ref.eigvals[:2]}"
        coords = np.array([[p["x"], p["y"]] for p in doc["points"]])
        if not ref.accepts(coords):
            return "coordinates do not match the eigh embedding"
        return None


class ScoreLarge:
    """The large shape through the library: full rankings, then their top-k masks."""

    name = "score-large"
    # each operation allocates its arrays afresh, so a first one would warm
    # nothing and cost about 6 s of every run
    warmup = False

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.runs, self.t, self.k = (20, 200, 20) if tiny else (1000, 20000, 2000)
        self.matrix = None

    def prepare(self) -> None:
        self.matrix = None  # let the previous build go first, as a fresh process would
        rng = np.random.default_rng([self.seed, self.t])
        self.matrix = ranking_matrix(rng, self.runs, self.t, fixed=self.runs // 2)

    def op(self, i: int):
        full = lists.RunSet("full", self.matrix)
        s_full = divergence.js_stability(full).s_js
        rho = baselines.pairwise_stability(full, "spearman").phi
        masks = full.to_topk(self.k)
        return (
            s_full,
            rho,
            divergence.js_stability(masks).s_js,
            baselines.pairwise_stability(masks, "kuncheva").phi,
            baselines.pairwise_stability(masks, "jaccard").phi,
        )

    def check(self, outputs) -> list[str]:
        m = self.matrix
        masks = (m <= self.k).astype(np.int8)
        want = (
            oracle.sjs("full", self.t, m)["s_js"],
            oracle.spearman(m),
            oracle.sjs("topk", self.k, masks)["s_js"],
            oracle.kuncheva(self.k, masks),
            oracle.jaccard(self.k, masks),
        )
        names = ("s_js full", "spearman", "s_js topk", "kuncheva", "jaccard")
        problems = []
        for number, got in enumerate(outputs):
            for name, g, w in zip(names, got, want):
                if not oracle.close(g, w):
                    problems.append(f"operation {number}: {name} = {g!r}, oracle {w:.12g}")
        return problems


WORKLOADS = {w.name: w for w in (ScoreFiles, Sweep, Embed, ScoreLarge)}
