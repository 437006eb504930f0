"""Golden CLI bytes: ``validate``, ``stability``, ``experiment`` and ``mds`` are pinned.

Every case runs one command from inside ``tests/golden`` (so file names in
the output are relative) and compares its stdout, byte for byte, with
``tests/golden/<case>.out``. The validate inputs hold one valid column plus
one column per validation message of their kind; the ``mds`` inputs are
small generated run sets (two runs of each ``a`` file identical, the ``b``
files random), one case per distance. ``mds_topk200_sqrt_js_json`` is a
larger mask case from ``gen_subset_family`` (t=200, k=40, two files of 50
runs with 40 identical each), where sqrt-JS meets many distinct overlaps.
``mds_full_twice`` gives a file of two full rankings twice: four points on
a line, whose second axis is rounding noise and must print as ``0``.
``experiment_fig4_paper`` runs the default (paper) shape, where the 12th
printed digit of s_js depends on how accurately the divergence is reduced.
A change to these bytes must be deliberate and recorded in CHANGES.md.

The same bytes must come out of a second CPU code path. One subprocess per
variant runs all the cases: once with numpy's runtime dispatch limited to
its baseline (every dispatched feature this machine has is named in
``NPY_DISABLE_CPU_FEATURES``), and once with OpenBLAS forced to its
Sandybridge kernels (``OPENBLAS_CORETYPE``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabrank.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "validate_full": (["validate", "validate_full.csv"], 3),
    "validate_topk": (["validate", "validate_topk.csv"], 3),
    "validate_partial": (["validate", "validate_partial.csv"], 3),
    "validate_single": (["validate", "validate_single.csv"], 3),
    "validate_example": (["validate", "example_partial.csv"], 0),
    "stability_full": (["stability", "example_full.csv", "--metrics", "sjs,spearman"], 0),
    "stability_full_json": (
        ["stability", "example_full.csv", "--metrics", "sjs,spearman", "--json"],
        0,
    ),
    "stability_partial_json": (["stability", "example_partial.csv", "--json"], 0),
    "stability_topk_json": (
        ["stability", "example_topk.csv", "--metrics", "sjs,kuncheva,jaccard", "--json"],
        0,
    ),
    "experiment_fig4": (["experiment", "fig4", "--seed", "0", "--t", "30", "--runs", "6"], 0),
    "experiment_fig4_paper": (["experiment", "fig4", "--seed", "1"], 0),
    "experiment_fig5": (
        ["experiment", "fig5", "--seed", "0", "--t", "40", "--k", "8", "--runs", "5"],
        0,
    ),
    "experiment_fig6_json": (
        ["experiment", "fig6", "--seed", "0", "--t", "60", "--k", "12", "--runs", "5",
         "--overlap", "8", "--json"],
        0,
    ),
    "experiment_fig7": (
        ["experiment", "fig7", "--seed", "0", "--t", "40", "--k", "8", "--runs", "4"],
        0,
    ),
    "mds_topk_sqrt_js": (["mds", "mds_topk_a.csv", "mds_topk_b.csv"], 0),
    "mds_topk_kuncheva": (
        ["mds", "mds_topk_a.csv", "mds_topk_b.csv", "--distance", "one-minus-kuncheva"],
        0,
    ),
    "mds_topk_jaccard_json": (
        ["mds", "mds_topk_a.csv", "mds_topk_b.csv", "--distance", "one-minus-jaccard", "--json"],
        0,
    ),
    "mds_topk200_sqrt_js_json": (["mds", "mds_topk200_a.csv", "mds_topk200_b.csv", "--json"], 0),
    "mds_full_sqrt_js_json": (["mds", "mds_full_a.csv", "mds_full_b.csv", "--json"], 0),
    "mds_full_twice": (["mds", "mds_full_pair.csv", "mds_full_pair.csv"], 0),
    "mds_full_spearman": (
        ["mds", "mds_full_a.csv", "mds_full_b.csv", "--distance", "one-minus-spearman"],
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case, monkeypatch, capsys):
    argv, code = CASES[case]
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# runs every case given on stdin, then prints {"cases": {case: [code, stdout]},
# "probe": ...}: the state of the dispatched numpy features and the OpenBLAS
# core in use, so that the caller can see its variant took effect
RUNNER = r"""
import contextlib, ctypes, glob, io, json, os, sys
import numpy as np
from stabrank.cli import main
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
cases = {}
for case, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    cases[case] = [code, out.getvalue()]
core = None
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        if hasattr(lib, name):
            corename = getattr(lib, name)
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
features = {name: bool(umath.__cpu_features__.get(name)) for name in umath.__cpu_dispatch__}
json.dump({"cases": cases, "probe": {"features": features, "core": core}}, sys.stdout)
"""


def dispatched_features() -> list[str]:
    """numpy's dispatched CPU features that this machine has (names differ
    between numpy versions, so they are read, never listed)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


@pytest.mark.parametrize("variant", ["numpy-baseline", "openblas-sandybridge"])
def test_cli_bytes_on_a_second_cpu_path(variant):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    features = dispatched_features()
    if variant == "numpy-baseline":
        if not features:
            pytest.skip(f"numpy {np.__version__} dispatches no CPU feature on this machine")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
    else:
        env["OPENBLAS_CORETYPE"] = "Sandybridge"
    cases = {case: argv for case, (argv, _) in CASES.items()}
    result = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(cases), env=env, cwd=GOLDEN,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    if variant == "numpy-baseline":
        assert not any(report["probe"]["features"][name] for name in features)
    elif report["probe"]["core"] is not None:  # found only in numpy's bundled OpenBLAS
        assert report["probe"]["core"] == "Sandybridge"
    for case, (_, code) in CASES.items():
        expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
        assert report["cases"][case] == [code, expected], case
