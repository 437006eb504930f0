"""Golden CLI bytes: ``validate``, ``stability``, ``experiment`` and ``mds`` are pinned.

Every case runs one command from inside ``tests/golden`` (so file names in
the output are relative) and compares its stdout, byte for byte, with
``tests/golden/<case>.out``. The validate inputs hold one valid column plus
one column per validation message of their kind; the ``mds`` inputs are
small generated run sets (two runs of each ``a`` file identical, the ``b``
files random), one case per distance. ``mds_topk200_sqrt_js_json`` is a
larger mask case from ``gen_subset_family`` (t=200, k=40, two files of 50
runs with 40 identical each), where sqrt-JS meets many distinct overlaps.
``experiment_fig4_paper`` runs the default (paper) shape, where the 12th
printed digit of s_js depends on how accurately the divergence is reduced.
A change to these bytes must be deliberate and recorded in CHANGES.md.
"""

from pathlib import Path

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
