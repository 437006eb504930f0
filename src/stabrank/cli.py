"""Command-line interface.

    stabrank validate <file>
    stabrank stability <file> --metrics sjs,kuncheva [--json]
    stabrank experiment fig4|fig5|fig6|fig7 --seed N [--t N --k N --runs N] --out PATH
    stabrank mds <file>... --distance sqrt-js --out PATH

Exit codes: 0 success, 2 parse or file error, 3 validation error, 4
metric/kind contract mismatch, 5 numeric degeneracy (a zero random baseline,
or an MDS eigenproblem that is not finite or fails). ``main`` maps every
failure to its code and a one-line stderr message through ``FAILURES``.
All commands are deterministic for fixed arguments: repeated invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .baselines import METRIC_KINDS, pairwise_stability
from .divergence import js_stability
from .experiments import EXPERIMENT_NAMES, run_experiment
from .mds import DISTANCES, MdsConvergenceError, classical_mds, distance_matrix
from .probability import DegenerateNormalizerError
from .runset_io import (
    RunSetParseError,
    RunSetValidationError,
    check_runset,
    load_runset,
    read_text,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MISMATCH = 4
EXIT_DEGENERATE = 5

# (exception types, exit code, stderr prefix); the first match wins, so the
# ValueError subclasses come before the bare ValueError of a contract mismatch
FAILURES = (
    ((RunSetParseError,), EXIT_PARSE, "parse error"),
    ((OSError,), EXIT_PARSE, "file error"),
    ((RunSetValidationError,), EXIT_VALIDATION, "validation error"),
    ((DegenerateNormalizerError, MdsConvergenceError), EXIT_DEGENERATE, "error"),
    ((ValueError,), EXIT_MISMATCH, "error"),
)

STABILITY_METRICS = ("sjs", *METRIC_KINDS)

SCHEMA = 1  # the version of every JSON document; docs/schema.md lists their fields


def _fmt(value) -> str:
    """A float in 12 significant digits; any other value as ``str``."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _rounded(value):
    """``value`` with every float rounded to the 12 printed digits."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _pairs(fields: dict) -> str:
    """``name=value`` for each field, space-separated."""
    return " ".join(f"{name}={_fmt(value)}" for name, value in fields.items())


def _stability_text(document: dict) -> str:
    """The shape line, then one line per metric in the order requested."""
    lines = [_pairs({name: document[name] for name in ("kind", "t", "k", "K")})]
    lines += [f"{metric}: {_pairs(values)}" for metric, values in document["metrics"].items()]
    return "".join(line + "\n" for line in lines)


def _csv(document: dict) -> str:
    """The document's ``points`` as CSV, under a header of the first one's keys."""
    points = document["points"]
    rows = [list(points[0])] + [[_fmt(v) for v in point.values()] for point in points]
    return "".join(",".join(row) + "\n" for row in rows)


def _emit(args, document: dict, text) -> None:
    """Write ``document`` as JSON (``--json`` or a ``.json`` ``--out``), with its ``schema``
    added, or else as ``text(document)``, to ``--out`` or stdout; only one form is built."""
    if args.json or (args.out or "").endswith(".json"):
        document = {"schema": SCHEMA, **document}
        out = json.dumps(_rounded(document), indent=2, sort_keys=True) + "\n"
    else:
        out = text(document)
    if args.out is None:
        sys.stdout.write(out)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)


def cmd_validate(args) -> int:
    header, _, problems, verdict = check_runset(read_text(args.file))
    for col, problem in enumerate(problems, start=1):
        print(f"column {col}: {problem if problem else 'ok'}")
    if verdict is not None:
        # a bad column is on its own line above; a shape verdict is named here
        print(f"{args.file}: INVALID" + ("" if any(problems) else f" ({verdict})"))
        return EXIT_VALIDATION
    print(f"{args.file}: VALID kind={header.kind} t={header.t} k={header.k} K={header.runs}")
    return EXIT_OK


def cmd_stability(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in metrics if m not in STABILITY_METRICS]
    if unknown:
        raise ValueError(f"unknown metric(s) {', '.join(unknown)}; "
                         f"expected a subset of {','.join(STABILITY_METRICS)}")
    repeated = sorted({m for m in metrics if metrics.count(m) > 1}, key=metrics.index)
    if repeated:
        raise ValueError(f"metric(s) {', '.join(repeated)} requested more than once")
    if not metrics:
        raise ValueError("no metrics requested")
    run_set = load_runset(args.file)
    scores = {}
    for metric in metrics:
        if metric == "sjs":
            report = js_stability(run_set)
            scores["sjs"] = {"d_js": report.d_js, "d_star": report.d_star, "s_js": report.s_js}
        else:
            scores[metric] = {"phi": pairwise_stability(run_set, metric).phi}
    shape = {"kind": run_set.kind, "t": run_set.t, "k": run_set.k, "K": run_set.runs}
    _emit(args, {**shape, "metrics": scores}, _stability_text)
    return EXIT_OK


def cmd_experiment(args) -> int:
    names = ("t", "k", "runs", "overlap")
    overrides = {name: value for name in names if (value := getattr(args, name)) is not None}
    curve = run_experiment(args.experiment, args.seed, **overrides)
    _emit(args, {"experiment": args.experiment, "seed": args.seed, "points": curve}, _csv)
    return EXIT_OK


def _labels(paths) -> list[str]:
    """Each input's base name without ``.csv``; when two inputs share a base
    name, every input is labelled by its path as given, without ``.csv``."""
    labels = [path.rsplit("/", 1)[-1].removesuffix(".csv") for path in paths]
    if len(set(labels)) < len(labels):
        labels = [path.removesuffix(".csv") for path in paths]
    return labels


def cmd_mds(args) -> int:
    labeled = [(label, load_runset(path)) for label, path in zip(_labels(args.files), args.files)]
    dm = distance_matrix(labeled, distance=args.distance)
    embedding = classical_mds(dm)
    points = [{"label": label, "run": run, "x": float(x), "y": float(y)}
              for (label, run), (x, y) in zip(dm.labels, embedding.coords)]
    _emit(args, {"distance": args.distance, "eigvals": embedding.eigvals,
                 "stress": embedding.stress, "points": points}, _csv)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``stabrank`` argument parser, built once and reused by every ``main`` call."""
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
    p_stab.set_defaults(func=cmd_stability, out=None)

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
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
