"""Command-line interface.

    stabrank validate <file>
    stabrank stability <file> --metrics sjs,kuncheva [--json]
    stabrank experiment fig4|fig5|fig6|fig7 --seed N [--t N --k N --runs N] --out PATH
    stabrank mds <file>... --distance sqrt-js --out PATH

Exit codes: 0 success, 2 parse error, 3 validation error, 4 metric/kind
contract mismatch, 5 numeric degeneracy (a zero random baseline, or an MDS
eigenproblem that is not finite or fails). All commands are deterministic
for fixed arguments: repeated invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import MetricMismatchError, pairwise_stability
from .divergence import js_stability
from .experiments import EXPERIMENT_NAMES, run_experiment
from .lists import RunSet
from .mds import DISTANCES, MdsConvergenceError, classical_mds, distance_matrix
from .probability import DegenerateNormalizerError
from .runset_io import RunSetParseError, column_violations, load_runset, read_columns

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MISMATCH = 4
EXIT_DEGENERATE = 5

STABILITY_METRICS = ("sjs", "spearman", "kuncheva", "jaccard")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _round12(value: float) -> float:
    return float(_fmt(value))


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        header, matrix = read_columns(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RunSetParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    problems = column_violations(header, matrix)
    for col, problem in enumerate(problems, start=1):
        print(f"column {col}: {problem if problem else 'ok'}")
    if any(problems):
        print(f"{args.file}: INVALID")
        return EXIT_VALIDATION
    if header.runs < 2:
        print(f"{args.file}: INVALID (a run set needs at least 2 lists)")
        return EXIT_VALIDATION
    print(
        f"{args.file}: VALID kind={header.kind} t={header.t} k={header.k} K={header.runs}"
    )
    return EXIT_OK


def _stability_payload(run_set: RunSet, metrics: list[str]) -> dict:
    payload: dict = {
        "schema": 1,
        "kind": run_set.kind,
        "t": run_set.t,
        "k": run_set.k,
        "K": run_set.runs,
        "metrics": {},
    }
    for metric in metrics:
        if metric == "sjs":
            report = js_stability(run_set)
            payload["metrics"]["sjs"] = {
                "d_js": _round12(report.d_js),
                "d_star": _round12(report.d_star),
                "s_js": _round12(report.s_js),
            }
        else:
            result = pairwise_stability(run_set, metric)
            payload["metrics"][metric] = {"phi": _round12(result.phi)}
    return payload


def cmd_stability(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in metrics if m not in STABILITY_METRICS]
    if unknown:
        print(
            f"error: unknown metric(s) {', '.join(unknown)}; "
            f"expected a subset of {','.join(STABILITY_METRICS)}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    if not metrics:
        print("error: no metrics requested", file=sys.stderr)
        return EXIT_MISMATCH
    try:
        run_set = load_runset(args.file)
    except (OSError, RunSetParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        payload = _stability_payload(run_set, metrics)
    except MetricMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except DegenerateNormalizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"kind={payload['kind']} t={payload['t']} k={payload['k']} K={payload['K']}")
        for metric in metrics:
            fields = payload["metrics"][metric]
            rendered = " ".join(f"{name}={_fmt(value)}" for name, value in fields.items())
            print(f"{metric}: {rendered}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides: dict = {}
    if args.t is not None:
        overrides["t"] = args.t
    if args.k is not None:
        overrides["k"] = args.k
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.overlap is not None:
        if args.experiment != "fig6":
            print("error: --overlap only applies to fig6", file=sys.stderr)
            return EXIT_MISMATCH
        overrides["overlap"] = args.overlap
    try:
        curve = run_experiment(args.experiment, args.seed, **overrides)
    except (ValueError, DegenerateNormalizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateNormalizerError) else EXIT_MISMATCH
    if args.json or (args.out or "").endswith(".json"):
        document = {
            "schema": 1,
            "experiment": args.experiment,
            "seed": args.seed,
            "points": [
                {key: (_round12(v) if isinstance(v, float) else v) for key, v in point.items()}
                for point in curve
            ],
        }
        _write_out(json.dumps(document, indent=2, sort_keys=True) + "\n", args.out)
    else:
        names = list(curve[0].keys())
        lines = [",".join(names)]
        for point in curve:
            lines.append(
                ",".join(
                    _fmt(point[n]) if isinstance(point[n], float) else str(point[n])
                    for n in names
                )
            )
        _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_mds(args) -> int:
    labeled = []
    try:
        for path in args.files:
            stem = path.rsplit("/", 1)[-1]
            stem = stem[: -len(".csv")] if stem.endswith(".csv") else stem
            labeled.append((stem, load_runset(path)))
    except (OSError, RunSetParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        dm = distance_matrix(labeled, distance=args.distance)
        embedding = classical_mds(dm)
    except MetricMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except MdsConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.json or (args.out or "").endswith(".json"):
        document = {
            "schema": 1,
            "distance": args.distance,
            "eigvals": [_round12(v) for v in embedding.eigvals],
            "stress": _round12(embedding.stress),
            "points": [
                {
                    "label": label,
                    "run": run,
                    "x": _round12(float(embedding.coords[idx, 0])),
                    "y": _round12(float(embedding.coords[idx, 1])),
                }
                for idx, (label, run) in enumerate(dm.labels)
            ],
        }
        _write_out(json.dumps(document, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["label,run,x,y"]
        for idx, (label, run) in enumerate(dm.labels):
            x, y = embedding.coords[idx]
            lines.append(f"{label},{run},{_fmt(float(x))},{_fmt(float(y))}")
        _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabrank",
        description="Stability metrics for feature rankings and feature subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a run-set file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_validate)

    p_stab = sub.add_parser("stability", help="compute stability metrics for a run-set file")
    p_stab.add_argument("file")
    p_stab.add_argument(
        "--metrics",
        default="sjs",
        help=f"comma-separated subset of {','.join(STABILITY_METRICS)} (default: sjs)",
    )
    p_stab.add_argument("--json", action="store_true", help="emit a JSON report")
    p_stab.set_defaults(func=cmd_stability)

    p_exp = sub.add_parser("experiment", help="run a canned synthetic experiment")
    p_exp.add_argument("experiment", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--t", type=int, default=None)
    p_exp.add_argument("--k", type=int, default=None)
    p_exp.add_argument("--runs", type=int, default=None)
    p_exp.add_argument("--overlap", type=int, default=None, help="core size (fig6 only)")
    p_exp.add_argument("--out", default=None, help="output path (.csv or .json)")
    p_exp.add_argument("--json", action="store_true", help="force JSON output")
    p_exp.set_defaults(func=cmd_experiment)

    p_mds = sub.add_parser("mds", help="project run-set lists to 2D coordinates")
    p_mds.add_argument("files", nargs="+")
    p_mds.add_argument("--distance", choices=DISTANCES, default="sqrt-js")
    p_mds.add_argument("--out", default=None, help="output path (.csv or .json)")
    p_mds.add_argument("--json", action="store_true", help="force JSON output")
    p_mds.set_defaults(func=cmd_mds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
