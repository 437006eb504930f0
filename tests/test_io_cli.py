"""Run-set file format and command-line interface tests."""

import json
import traceback

import numpy as np
import pytest

from stabrank import RunSetParseError, load_runset, parse_runset, serialize_runset
from stabrank.cli import main
from stabrank.runset_io import read_columns
from conftest import EXAMPLE_FULL, EXAMPLE_MASKS, random_run_set, traced_peak
from oracles import per_cell_text
from test_refusals import check_refusal, table_rows

FULL_TEXT = per_cell_text("full", 10, EXAMPLE_FULL)
MASK_TEXT = per_cell_text("topk", 4, EXAMPLE_MASKS)


class TestParsing:
    def test_parse_example_file(self):
        rs = parse_runset(FULL_TEXT)
        assert rs.kind == "full"
        assert (rs.t, rs.k, rs.runs) == (10, 10, 5)
        assert tuple(tuple(row) for row in rs.matrix) == EXAMPLE_FULL

    def test_round_trip_is_bit_identical(self):
        assert serialize_runset(parse_runset(FULL_TEXT)) == FULL_TEXT
        assert serialize_runset(parse_runset(MASK_TEXT)) == MASK_TEXT

    @table_rows("parse_runset-cell-", "plus", "space", "tab", "leading-zeros", "underscore",
                "arabic-indic-one", "minus-zero", "int64-max-plus-one")
    def test_cell_outside_grammar_named_raw(self, row):
        check_refusal(row)

    def test_int64_max_cell_reaches_validation(self, tmp_path, capsys):
        text = "#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,9223372036854775807\n"
        assert read_columns(text)[1].tolist() == [[1, 2], [2, 2**63 - 1]]
        path = tmp_path / "int64_max.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        assert "column 2: rank 9223372036854775807 out of range 1..2" in capsys.readouterr().out

    @table_rows("parse_runset-header-", "trailing-space", "carriage-return", "leading-zero",
                "arabic-indic-two", "huge-K")
    def test_header_outside_grammar(self, row):
        check_refusal(row)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,\xe91\n")
        with pytest.raises(RunSetParseError) as refused:
            load_runset(path)
        assert str(refused.value) == f"{path}: not UTF-8 text at byte 41"

    def test_crlf_file_reads_like_lf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(FULL_TEXT.replace("\n", "\r\n").encode())
        assert np.array_equal(load_runset(path).matrix, parse_runset(FULL_TEXT).matrix)


class TestGoldenFiles:
    """Serialized generator output is pinned: the PCG64 seed-derivation
    scheme is part of the file-format contract, so these bytes must not
    drift across versions or platforms."""

    def test_ranking_family_golden(self):
        from stabrank import ExperimentConfig, gen_ranking_family

        rs = gen_ranking_family(ExperimentConfig(t=6, k=6, runs=3, seed=42, fixed=1))
        assert serialize_runset(rs) == (
            "#stabrank v1 kind=full t=6 k=6 K=3\n"
            "4,6,5\n2,2,4\n5,3,6\n3,4,2\n6,1,3\n1,5,1\n"
        )

    def test_overlap_family_golden(self):
        from stabrank import ExperimentConfig, gen_overlap_family

        rs = gen_overlap_family(
            ExperimentConfig(t=8, k=3, runs=3, seed=7, overlap=2, lam=1.0)
        )
        assert serialize_runset(rs) == (
            "#stabrank v1 kind=partial t=8 k=3 K=3\n"
            "0,0,0\n3,3,3\n1,0,0\n0,0,0\n0,0,1\n0,0,0\n2,2,2\n0,1,0\n"
        )


@pytest.mark.parametrize("kind", ["full", "partial", "topk"])
def test_serialize_runset_peaks_below_its_bound(kind):
    """Peak memory of one write, in multiples of the text: the blocks and the
    joined text, with only one block's gathered table rows on top."""
    runs, t, k = 200, 5000, 1500  # five blocks of lines
    run_set = random_run_set(6, kind, t, k, runs)
    size = len(serialize_runset(run_set))
    _, peak = traced_peak(serialize_runset, run_set)
    assert peak <= 2.5 * size


@pytest.fixture
def mask_file(tmp_path):
    path = tmp_path / "masks.csv"
    path.write_text(MASK_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def identical_mask_file(tmp_path):
    rows = [EXAMPLE_MASKS[0]] * 4
    path = tmp_path / "stable.csv"
    path.write_text(per_cell_text("topk", 4, rows))
    return str(path)


class TestStabilityCommand:
    def test_identical_masks_score_one(self, identical_mask_file, capsys):
        assert main(["stability", identical_mask_file, "--metrics", "sjs"]) == 0
        assert "s_js=1" in capsys.readouterr().out

    def test_kuncheva_phi_on_example(self, mask_file, capsys):
        # pair KIs over the five example runs: 3 pairs at 1/6, 7 at 7/12,
        # so the mean is 11/24 (hand-computed from the intersection sizes)
        assert main(["stability", mask_file, "--metrics", "kuncheva", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["kind"] == "topk"
        assert payload["K"] == 5
        assert payload["metrics"]["kuncheva"]["phi"] == pytest.approx(11 / 24, abs=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_repeated_metric_refused(self, mask_file, capsys, flags):
        argv = ["stability", mask_file, "--metrics", "sjs,kuncheva,sjs", *flags]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: metric(s) sjs requested more than once\n"


class TestExperimentCommand:
    def test_fig4_endpoints(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["experiment", "fig4", "--seed", "1", "--t", "40", "--runs", "10", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert float(rows[-1][1]) == 1.0

    def test_fig6_json(self, tmp_path):
        out = tmp_path / "d.json"
        assert (
            main(
                [
                    "experiment", "fig6", "--seed", "2",
                    "--t", "60", "--k", "12", "--runs", "5",
                    "--overlap", "8", "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "fig6"
        assert len(payload["points"]) == 11
        assert {"lambda", "s_js_partial", "s_js_topk", "phi_kuncheva"} == set(
            payload["points"][0]
        )


class TestMdsCommand:
    def test_stable_vs_random_coordinates(self, tmp_path, identical_mask_file, mask_file, capsys):
        out = tmp_path / "coords.csv"
        assert main(["mds", identical_mask_file, mask_file, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,run,x,y"
        assert len(lines) == 1 + 4 + 5
        stable_pts = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:5]])
        spread = np.max(np.abs(stable_pts - stable_pts[0]))
        assert spread < 1e-9  # identical lists embed to one point

    def test_duplicate_input_coincides(self, tmp_path, mask_file):
        out = tmp_path / "coords.csv"
        assert main(["mds", mask_file, mask_file, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        first = [line.split(",")[2:] for line in lines[:5]]
        second = [line.split(",")[2:] for line in lines[5:]]
        for a, b in zip(first, second):
            assert float(a[0]) == pytest.approx(float(b[0]), abs=1e-9)
            assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-9)

    @pytest.mark.parametrize("files, expected", [
        (["d1/x.csv", "d2/x.csv", "y.csv"], ["d1/x", "d2/x", "y"]),
        # the paths without .csv clash too, so each keeps its path as given
        (["d/x.csv", "d/x"], ["d/x.csv", "d/x"]),
    ], ids=["base-names-clash", "paths-without-csv-clash"])
    def test_shared_base_names_labelled_by_path(self, files, expected, tmp_path, monkeypatch,
                                                capsys):
        for name in files:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(MASK_TEXT)
        monkeypatch.chdir(tmp_path)
        assert main(["mds", *files]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        labels = [tuple(row.split(",")[:2]) for row in rows]
        assert len(set(labels)) == 5 * len(files)
        assert [label for label, _ in labels[::5]] == expected

    def test_json_output(self, tmp_path, mask_file):
        out = tmp_path / "coords.json"
        assert main(["mds", mask_file, "--distance", "one-minus-jaccard", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["distance"] == "one-minus-jaccard"
        assert len(payload["points"]) == 5
        assert {"label", "run", "x", "y"} == set(payload["points"][0])

    def test_undefined_embedding_exits_5(self, monkeypatch, mask_file, capsys):
        # no run-set file yields an infinite distance, so inject one
        from stabrank import DistanceMatrix, cli

        def infinite_distances(labeled, distance):
            d = np.ones((3, 3)) - np.eye(3)
            d[0, 1] = d[1, 0] = np.inf
            return DistanceMatrix(d, (("x", 0), ("x", 1), ("x", 2)))

        monkeypatch.setattr(cli, "distance_matrix", infinite_distances)
        assert main(["mds", mask_file]) == 5
        assert "not finite" in capsys.readouterr().err

    def test_failed_eigensolve_exits_5(self, monkeypatch, mask_file, capsys):
        def fails(b):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        assert main(["mds", mask_file]) == 5
        assert capsys.readouterr().err == (
            "error: eigendecomposition failed: Eigenvalues did not converge\n"
        )


# Files the failure table's commands read; names resolve inside a temp dir.
FAILURE_FILES = {
    "full.csv": FULL_TEXT.encode(),
    "masks.csv": MASK_TEXT.encode(),
    "all_selected.csv": b"#stabrank v1 kind=topk t=3 k=3 K=2\n1,1\n1,1\n1,1\n",
    "overstated_k.csv": b"#stabrank v1 kind=full t=2 k=2 K=1000000000000\n1,2\n2,1\n",
    "oversized.csv": b"#stabrank v1 kind=full t=2 k=2 K=2\n1,99999999999999999999999\n2,1\n",
    "latin1.csv": b"#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,\xe91\n",
    "empty.csv": b"",
    "duplicate.csv": b"#stabrank v1 kind=full t=2 k=2 K=2\n1,1\n1,2\n",
    "one_run.csv": b"#stabrank v1 kind=full t=2 k=2 K=1\n1\n2\n",
    "zero_runs.csv": b"#stabrank v1 kind=full t=2 k=2 K=0\n\n\n",
}

# (id, argv, exit code, stderr prefix): one row per documented failure path;
# a prefix is the text before a ": " on the one stderr line, or all of the line
FAILURE_TABLE = [
    ("validate-missing", ["validate", "missing/x.csv"], 2, "file error"),
    ("stability-missing", ["stability", "missing/x.csv"], 2, "file error"),
    ("mds-missing", ["mds", "masks.csv", "missing/x.csv"], 2, "file error"),
    ("validate-empty", ["validate", "empty.csv"], 2, "parse error: empty file"),
    ("validate-oversized", ["validate", "oversized.csv"], 2, "parse error"),
    ("stability-oversized", ["stability", "oversized.csv"], 2, "parse error"),
    ("mds-oversized", ["mds", "oversized.csv"], 2, "parse error"),
    ("validate-overstated-k", ["validate", "overstated_k.csv"], 2, "parse error"),
    ("validate-latin1", ["validate", "latin1.csv"], 2, "parse error"),
    ("validate-zero-runs", ["validate", "zero_runs.csv"], 2,
     "parse error: line 1: K must be positive"),
    ("stability-zero-runs", ["stability", "zero_runs.csv"], 2,
     "parse error: line 1: K must be positive"),
    ("stability-latin1", ["stability", "latin1.csv"], 2, "parse error"),
    ("mds-latin1", ["mds", "latin1.csv"], 2, "parse error"),
    ("experiment-unwritable-out",
     ["experiment", "fig4", "--t", "30", "--runs", "6", "--out", "missing/x.csv"], 2, "file error"),
    ("stability-invalid-column", ["stability", "duplicate.csv"], 3,
     "validation error: column 1: duplicate rank 1"),
    ("stability-one-run", ["stability", "one_run.csv"], 3, "validation error"),
    ("mds-invalid-column", ["mds", "masks.csv", "duplicate.csv"], 3, "validation error"),
    ("stability-kind-mismatch", ["stability", "full.csv", "--metrics", "kuncheva"], 4,
     "error: metric 'kuncheva' applies to topk run sets, got 'full'"),
    ("stability-unknown-metric", ["stability", "full.csv", "--metrics", "kendall"], 4,
     "error: unknown metric(s) kendall; expected a subset of sjs,spearman,kuncheva,jaccard"),
    ("stability-no-metrics", ["stability", "full.csv", "--metrics", ","], 4,
     "error: no metrics requested"),
    ("stability-unknown-metric-before-read",
     ["stability", "missing/x.csv", "--metrics", "kendall"], 4, "error"),
    ("stability-kuncheva-k-equals-t",
     ["stability", "all_selected.csv", "--metrics", "kuncheva"], 4, "error"),
    ("mds-kuncheva-k-equals-t",
     ["mds", "all_selected.csv", "masks.csv", "--distance", "one-minus-kuncheva"], 4, "error"),
    ("mds-mixed-kinds", ["mds", "full.csv", "masks.csv"], 4,
     "error: mixed run set kinds: ['full', 'topk']"),
    ("mds-mixed-shapes", ["mds", "masks.csv", "all_selected.csv"], 4,
     "error: mixed run set shapes (t, k): [(3, 3), (10, 4)]"),
    ("experiment-overlap-outside-fig6", ["experiment", "fig4", "--overlap", "10"], 4,
     "error: --overlap only applies to fig6"),
    ("experiment-negative-seed",
     ["experiment", "fig4", "--seed", "-1", "--t", "20", "--runs", "4"], 4, "error"),
    ("stability-zero-baseline", ["stability", "all_selected.csv"], 5,
     "error: random-baseline divergence is 0 for kind=topk, t=3, k=3; stability is undefined"),
    ("experiment-zero-baseline",
     ["experiment", "fig5", "--t", "10", "--k", "10", "--runs", "4"], 5, "error"),
]


@pytest.mark.parametrize(
    "argv, code, prefix",
    [row[1:] for row in FAILURE_TABLE],
    ids=[row[0] for row in FAILURE_TABLE],
)
def test_failure_table(argv, code, prefix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in FAILURE_FILES.items():
        (tmp_path / name).write_bytes(data)
    try:
        got = main(argv)
    except Exception:  # what the interpreter would print before exiting 1
        traceback.print_exc()
        got = 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert got == code
    assert (err.removesuffix("\n") + ": ").startswith(prefix + ": ")


def test_an_unmapped_exception_propagates(monkeypatch, capsys):
    """An exception that no ``FAILURES`` row maps is raised, not turned into an exit code."""
    unmapped = KeyError("no row maps this")

    def fails(path):
        raise unmapped

    monkeypatch.setattr("stabrank.cli.read_text", fails)
    with pytest.raises(KeyError) as raised:
        main(["validate", "any.csv"])
    assert raised.value is unmapped
    assert capsys.readouterr().err == ""
