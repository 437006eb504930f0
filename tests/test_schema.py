"""Every JSON document that the CLI prints matches ``docs/schema.md``.

The table in ``docs/schema.md`` lists each field of the ``stability``,
``experiment`` and ``mds`` documents with its type and when it is present.
Each golden JSON output, and the ``--json`` output of every preset, every
metric on each kind it applies to and every distance, is held to it: a key
the table does not list, a listed key that is missing or present against
its condition, and a value of the wrong type all fail. The text form of
each variant must carry the same values as its JSON form, in the table's
field order.
"""

import json
import re
from pathlib import Path

import pytest

from stabrank.baselines import METRIC_KINDS
from stabrank.cli import STABILITY_METRICS, main
from stabrank.experiments import EXPERIMENT_NAMES
from stabrank.mds import DISTANCES
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
ROW = re.compile(r"^\| (\w+) \| `([^`]+)` \| (\w+) \| ([^|]+?) \|")
TYPES = {"int": int, "float": float, "str": str, "object": dict, "array": list}
KIND_FILES = {kind: f"example_{kind}.csv" for kind in ("full", "partial", "topk")}
EXPERIMENT_SHAPES = {
    "fig4": ["--t", "30", "--runs", "6"],
    "fig5": ["--t", "40", "--k", "8", "--runs", "5"],
    "fig6": ["--t", "60", "--k", "12", "--runs", "5", "--overlap", "8"],
    "fig7": ["--t", "40", "--k", "8", "--runs", "4"],
}
MDS_FILES = {kind: [f"mds_{kind}_a.csv", f"mds_{kind}_b.csv"] for kind in ("full", "topk")}


def schema_table() -> dict:
    """{document: {path: (type name, condition)}} from ``docs/schema.md``."""
    table = {}
    for line in (ROOT / "docs" / "schema.md").read_text(encoding="utf-8").splitlines():
        match = ROW.match(line)
        if match:
            document, path, type_name, condition = match.groups()
            assert type_name in TYPES, line
            assert path not in table.setdefault(document, {}), f"{path} listed twice"
            table[document][path] = (type_name, condition)
    return table


SCHEMA = schema_table()


def required(path: str, condition: str, document: dict, requested) -> bool:
    """Whether the row's condition holds for ``document``."""
    if condition == "always":
        return True
    if condition == "if requested":
        return path.split(".")[1] in requested
    presets = re.fullmatch(r"if experiment is (fig\d(?:, fig\d)*)", condition)
    assert presets, f"unknown condition {condition!r}"
    return document["experiment"] in presets.group(1).split(", ")


def walk(value, path: str = ""):
    """Yield (path, value) for every field below ``value``, ``[]`` for elements."""
    if isinstance(value, dict):
        for key, item in value.items():
            child = f"{path}.{key}" if path else key
            yield child, item
            yield from walk(item, child)
    elif isinstance(value, list):
        for item in value:
            yield f"{path}[]", item
            yield from walk(item, f"{path}[]")


def containers(value, path: str) -> list:
    """Every object that ``path``'s parent path reaches in ``value``."""
    parent = path.rsplit(".", 1)[0] if "." in path else ""
    return [value] if not parent else [v for p, v in walk(value) if p == parent]


def violations(command: str, document: dict, requested=()) -> list[str]:
    """What in ``document`` breaks the ``command`` table of docs/schema.md."""
    fields, problems = SCHEMA[command], []
    for path, value in walk(document):
        if path not in fields:
            problems.append(f"undocumented field {path}")
        elif type(value) is not TYPES[fields[path][0]]:
            problems.append(f"{path} is {type(value).__name__}, not {fields[path][0]}")
    for path, (_, condition) in fields.items():
        if path.endswith("[]"):
            continue
        wanted = required(path, condition, document, requested)
        key = path.rsplit(".", 1)[-1]
        for parent in containers(document, path):
            if wanted and key not in parent:
                problems.append(f"missing field {path}")
            elif not wanted and key in parent:
                problems.append(f"{path} present, but its condition is {condition!r}")
    return problems


def requested_metrics(argv) -> list[str]:
    return argv[argv.index("--metrics") + 1].split(",") if "--metrics" in argv else ["sjs"]


def variants() -> dict:
    """{id: argv without --json}: every preset, every metric on each kind it
    applies to, all metrics of a kind at once, and every distance."""
    cases = {f"experiment-{name}": ["experiment", name, "--seed", "3", *EXPERIMENT_SHAPES[name]]
             for name in EXPERIMENT_NAMES}
    for kind, path in KIND_FILES.items():
        metrics = [m for m in STABILITY_METRICS if METRIC_KINDS.get(m, kind) == kind]
        for metric in metrics:
            cases[f"stability-{kind}-{metric}"] = ["stability", path, "--metrics", metric]
        cases[f"stability-{kind}-all"] = ["stability", path, "--metrics", ",".join(metrics[::-1])]
    for distance in DISTANCES:
        metric = distance.removeprefix("one-minus-")
        for kind in [METRIC_KINDS[metric]] if metric in METRIC_KINDS else sorted(MDS_FILES):
            cases[f"mds-{kind}-{distance}"] = ["mds", *MDS_FILES[kind], "--distance", distance]
    return cases


VARIANTS = variants()


def run(argv, monkeypatch, capsys) -> str:
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    return capsys.readouterr().out


def test_table_covers_every_command_and_name():
    assert sorted(SCHEMA) == ["experiment", "mds", "stability"]
    for metric in STABILITY_METRICS:
        assert f"metrics.{metric}" in SCHEMA["stability"]
    assert sorted(EXPERIMENT_SHAPES) == sorted(EXPERIMENT_NAMES)


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.endswith("_json")))
def test_golden_json_matches_the_schema(case):
    argv = CASES[case][0]
    document = json.loads((GOLDEN / f"{case}.out").read_text(encoding="utf-8"))
    assert violations(argv[0], document, requested_metrics(argv)) == []


@pytest.mark.parametrize("case", sorted(VARIANTS))
def test_json_output_matches_the_schema(case, monkeypatch, capsys):
    argv = VARIANTS[case]
    document = json.loads(run([*argv, "--json"], monkeypatch, capsys))
    assert document["schema"] == 1
    assert violations(argv[0], document, requested_metrics(argv)) == []


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


@pytest.mark.parametrize("case", sorted(VARIANTS))
def test_text_form_carries_the_json_values(case, monkeypatch, capsys):
    argv = VARIANTS[case]
    document = json.loads(run([*argv, "--json"], monkeypatch, capsys))
    lines = run(argv, monkeypatch, capsys).splitlines()
    order = [path.rsplit(".", 1)[-1] for path in SCHEMA[argv[0]]]
    if argv[0] == "stability":
        shape = " ".join(f"{name}={document[name]}" for name in ("kind", "t", "k", "K"))
        expected = [shape] + [
            f"{metric}: " + " ".join(
                f"{name}={_fmt(document['metrics'][metric][name])}"
                for name in sorted(document["metrics"][metric], key=order.index)
            )
            for metric in requested_metrics(argv)
        ]
    else:
        header = sorted(document["points"][0], key=order.index)
        expected = [",".join(header)] + [
            ",".join(_fmt(point[name]) for name in header) for point in document["points"]
        ]
    assert lines == expected


@pytest.mark.parametrize(
    "command, document, problem",
    [
        ("mds", {"schema": 1, "distance": "sqrt-js", "eigvals": [1.0, 0.5], "stress": 0.0,
                 "points": [{"label": "a", "run": 0, "x": 0.0, "y": 0.0, "z": 0.0}]},
         "undocumented field points[].z"),
        ("mds", {"schema": 1, "distance": "sqrt-js", "eigvals": [1.0, 0.5],
                 "points": [{"label": "a", "run": 0, "x": 0.0, "y": 0.0}]},
         "missing field stress"),
        ("mds", {"schema": 1, "distance": "sqrt-js", "eigvals": [1.0, 0.5], "stress": 0.0,
                 "points": [{"label": "a", "run": 0.0, "x": 0.0, "y": 0.0}]},
         "points[].run is float, not int"),
        ("experiment", {"schema": 1, "experiment": "fig4", "seed": 0,
                        "points": [{"i": 0, "s_js": 0.5, "phi_spearman": 0.1, "q": 0.0}]},
         "points[].q present, but its condition is 'if experiment is fig7'"),
    ],
    ids=["undocumented", "missing", "wrong-type", "against-condition"],
)
def test_violations_are_named(command, document, problem):
    assert violations(command, document) == [problem]
