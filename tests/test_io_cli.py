"""Run-set file format and command-line interface tests."""

import json
import traceback

import numpy as np
import pytest

from stabrank import RunSet, RunSetParseError, load_runset, parse_runset, serialize_runset
from stabrank.cli import main
from stabrank.runset_io import read_columns
from conftest import EXAMPLE_FULL, EXAMPLE_MASKS, traced_peak

FULL_HEADER = "#stabrank v1 kind=full t=10 k=10 K=5"


def as_file_text(rows, header):
    columns = np.array(rows).T
    body = "\n".join(",".join(str(v) for v in row) for row in columns)
    return f"{header}\n{body}\n"


FULL_TEXT = as_file_text(EXAMPLE_FULL, FULL_HEADER)
MASK_TEXT = as_file_text(EXAMPLE_MASKS, "#stabrank v1 kind=topk t=10 k=4 K=5")


class TestParsing:
    def test_parse_example_file(self):
        rs = parse_runset(FULL_TEXT)
        assert rs.kind == "full"
        assert (rs.t, rs.k, rs.runs) == (10, 10, 5)
        assert tuple(tuple(row) for row in rs.matrix) == EXAMPLE_FULL

    def test_round_trip_is_bit_identical(self):
        assert serialize_runset(parse_runset(FULL_TEXT)) == FULL_TEXT
        assert serialize_runset(parse_runset(MASK_TEXT)) == MASK_TEXT

    def test_empty_file(self):
        with pytest.raises(RunSetParseError, match="empty file"):
            parse_runset("")

    def test_bad_header(self):
        with pytest.raises(RunSetParseError, match="line 1"):
            parse_runset("#stabrank v2 kind=full t=3 k=3 K=2\n1,1\n2,2\n3,3\n")

    def test_header_k_exceeds_t(self):
        # the same message as the library's: the shape rules are stated once
        with pytest.raises(RunSetParseError, match=r"^line 1: k=4 out of range 1\.\.3$"):
            parse_runset("#stabrank v1 kind=topk t=3 k=4 K=2\n1,1\n1,1\n1,1\n")

    def test_wrong_row_count(self):
        with pytest.raises(RunSetParseError, match="expected 10 data rows"):
            parse_runset(FULL_HEADER + "\n1,2,3,4,5\n")

    def test_wrong_column_count(self):
        text = "#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2\n"
        with pytest.raises(RunSetParseError, match="line 3: expected 2 columns"):
            parse_runset(text)

    def test_non_integer_cell(self):
        text = "#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,x\n"
        with pytest.raises(RunSetParseError, match="line 3, column 2"):
            parse_runset(text)

    def test_oversized_cell(self):
        text = "#stabrank v1 kind=full t=2 k=2 K=2\n1,99999999999999999999999\n2,1\n"
        with pytest.raises(RunSetParseError, match="line 2, column 2: invalid integer"):
            parse_runset(text)

    @pytest.mark.parametrize(
        "cell",
        ["+1", " 0", "\t1", "007", "1_0", "١", "-0", "9223372036854775808"],
        ids=["plus", "space", "tab", "leading-zeros", "underscore", "arabic-indic-one",
             "minus-zero", "int64-max-plus-one"],
    )
    def test_cell_outside_grammar_named_raw(self, cell):
        text = f"#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,{cell}\n"
        with pytest.raises(RunSetParseError) as info:
            parse_runset(text)
        assert str(info.value) == f"line 3, column 2: invalid integer {cell!r}"

    def test_int64_max_cell_reaches_validation(self, tmp_path, capsys):
        text = "#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,9223372036854775807\n"
        assert read_columns(text)[1].tolist() == [[1, 2], [2, 2**63 - 1]]
        path = tmp_path / "int64_max.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        assert "column 2: rank 9223372036854775807 out of range 1..2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "header",
        ["#stabrank v1 kind=full t=2 k=2 K=2 ", "#stabrank v1 kind=full t=2 k=2 K=2\r",
         "#stabrank v1 kind=full t=02 k=2 K=2", "#stabrank v1 kind=full t=٢ k=2 K=2",
         "#stabrank v1 kind=full t=2 k=2 K=" + "9" * 5000],
        ids=["trailing-space", "carriage-return", "leading-zero", "arabic-indic-two", "huge-K"],
    )
    def test_header_outside_grammar(self, header):
        with pytest.raises(RunSetParseError, match="line 1: expected header"):
            parse_runset(f"{header}\n1,2\n2,1\n")

    def test_missing_final_newline(self):
        with pytest.raises(RunSetParseError, match="line 3: no newline at the end of the file"):
            parse_runset("#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,1")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"#stabrank v1 kind=full t=2 k=2 K=2\n1,2\n2,\xe91\n")
        with pytest.raises(RunSetParseError, match="not UTF-8"):
            load_runset(path)

    def test_crlf_file_reads_like_lf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(FULL_TEXT.replace("\n", "\r\n").encode())
        assert np.array_equal(load_runset(path).matrix, parse_runset(FULL_TEXT).matrix)

    def test_invalid_column_named(self):
        text = "#stabrank v1 kind=full t=3 k=3 K=2\n1,1\n2,1\n3,3\n"
        with pytest.raises(ValueError, match="column 2: duplicate rank 1"):
            parse_runset(text)

    def test_full_kind_header_requires_k_equals_t(self):
        with pytest.raises(RunSetParseError, match="requires k == t"):
            parse_runset("#stabrank v1 kind=full t=3 k=2 K=2\n1,1\n2,2\n3,3\n")


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
    ranks = np.tile(np.arange(1, t + 1), (runs, 1))
    np.random.default_rng(6).permuted(ranks, axis=1, out=ranks)
    matrix = {"full": ranks, "partial": np.where(ranks <= k, ranks, 0), "topk": ranks <= k}[kind]
    run_set = RunSet(kind, matrix, t if kind == "full" else k)
    del ranks, matrix
    size = len(serialize_runset(run_set))
    _, peak = traced_peak(serialize_runset, run_set)
    assert peak <= 2.5 * size


@pytest.fixture
def full_file(tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(FULL_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def mask_file(tmp_path):
    path = tmp_path / "masks.csv"
    path.write_text(MASK_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def identical_mask_file(tmp_path):
    rows = [EXAMPLE_MASKS[0]] * 4
    path = tmp_path / "stable.csv"
    path.write_text(as_file_text(rows, "#stabrank v1 kind=topk t=10 k=4 K=4"))
    return str(path)


class TestValidateCommand:
    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["validate", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/nothing.csv"]) == 2


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

    def test_metric_kind_mismatch(self, full_file, capsys):
        assert main(["stability", full_file, "--metrics", "kuncheva"]) == 4
        assert "applies to topk" in capsys.readouterr().err

    def test_unknown_metric(self, full_file, capsys):
        assert main(["stability", full_file, "--metrics", "kendall"]) == 4

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_repeated_metric_refused(self, mask_file, capsys, flags):
        argv = ["stability", mask_file, "--metrics", "sjs,kuncheva,sjs", *flags]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: metric(s) sjs requested more than once\n"

    def test_degenerate_normalizer(self, tmp_path, capsys):
        rows = [(1, 1, 1)] * 2
        path = tmp_path / "allones.csv"
        path.write_text(as_file_text(rows, "#stabrank v1 kind=topk t=3 k=3 K=2"))
        assert main(["stability", str(path), "--metrics", "sjs"]) == 5

    def test_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("#stabrank v1 kind=full t=2 k=2 K=2\n1,1\n1,2\n")
        assert main(["stability", str(path)]) == 3


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

    def test_overlap_flag_rejected_elsewhere(self, capsys):
        assert main(["experiment", "fig4", "--overlap", "10"]) == 4


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

    def test_mixed_kinds_rejected(self, full_file, mask_file, capsys):
        assert main(["mds", full_file, mask_file]) == 4
        assert "mixed" in capsys.readouterr().err

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
    ("validate-empty", ["validate", "empty.csv"], 2, "parse error"),
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
    ("stability-invalid-column", ["stability", "duplicate.csv"], 3, "validation error"),
    ("stability-one-run", ["stability", "one_run.csv"], 3, "validation error"),
    ("mds-invalid-column", ["mds", "masks.csv", "duplicate.csv"], 3, "validation error"),
    ("stability-kind-mismatch", ["stability", "full.csv", "--metrics", "kuncheva"], 4, "error"),
    ("stability-unknown-metric", ["stability", "full.csv", "--metrics", "kendall"], 4, "error"),
    ("stability-no-metrics", ["stability", "full.csv", "--metrics", ","], 4,
     "error: no metrics requested"),
    ("stability-unknown-metric-before-read",
     ["stability", "missing/x.csv", "--metrics", "kendall"], 4, "error"),
    ("stability-kuncheva-k-equals-t",
     ["stability", "all_selected.csv", "--metrics", "kuncheva"], 4, "error"),
    ("mds-kuncheva-k-equals-t",
     ["mds", "all_selected.csv", "masks.csv", "--distance", "one-minus-kuncheva"], 4, "error"),
    ("mds-mixed-kinds", ["mds", "full.csv", "masks.csv"], 4, "error"),
    ("experiment-overlap-outside-fig6", ["experiment", "fig4", "--overlap", "10"], 4, "error"),
    ("experiment-negative-seed",
     ["experiment", "fig4", "--seed", "-1", "--t", "20", "--runs", "4"], 4, "error"),
    ("stability-zero-baseline", ["stability", "all_selected.csv"], 5, "error"),
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
