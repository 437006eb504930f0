"""Fuzzed input contract: the bulk cell check against the per-cell reference,
blocked file reads against one-block reads, the table writer against the
per-cell formatter, and the command line on arbitrary and near-valid file
bytes, where ``validate`` and ``stability`` reach one verdict."""

import contextlib
import io
import re
import traceback
import warnings
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stabrank import (
    KINDS,
    DegenerateNormalizerError,
    RunSet,
    RunSetParseError,
    RunSetValidationError,
    normalizer,
    parse_runset,
    serialize_runset,
)
from stabrank.cli import main
from stabrank import runset_io
from stabrank.runset_io import _bulk_cells, _scan_cells, read_cells, read_columns

# characters that break the cell grammar in one place, or nearly keep it
TRICKY = "0123456789,\n-+ \t_\r١#."
TRICKY_CELLS = ["", "0", "00", "-0", "+1", " 0", "\t1", "007", "1_0", "١", "-1",
                "9223372036854775807", "9223372036854775808", "-9223372036854775808",
                "-9223372036854775809", "1e3", "1.0"]
# spellings of a value that int() reads as the value itself
RESPELLINGS = ["+{}", " {}", "{}\t", "0{}", "{}\r", "{}_0"]


def _mutate(draw, text: str, start: int) -> str:
    """``text`` with one cell replaced, or one character replaced, inserted or
    deleted, at or after index ``start``."""
    where = draw(st.integers(start, len(text)))
    action = draw(st.sampled_from(["cell", "replace", "insert", "delete"]))
    if action == "cell":
        lines = text[start:].split("\n")
        row = draw(st.integers(0, len(lines) - 1 - (len(lines) > 1 and lines[-1] == "")))
        cells = lines[row].split(",")
        col = draw(st.integers(0, len(cells) - 1))
        cells[col] = draw(
            st.sampled_from(TRICKY_CELLS)
            | st.text(TRICKY, max_size=4)
            | st.sampled_from(RESPELLINGS).map(lambda spelling: spelling.format(cells[col]))
        )
        lines[row] = ",".join(cells)
        return text[:start] + "\n".join(lines)
    char = draw(st.sampled_from(TRICKY) | st.characters(codec="utf-8"))
    if action == "insert":
        return text[:where] + char + text[where:]
    tail = text[where + 1:]
    return text[:where] + (char if action == "replace" else "") + tail


@st.composite
def cell_blocks(draw):
    """(lines, runs, fast): a block of canonical non-negative rows, or one with
    one cell or character perturbed; ``fast`` when the bulk check must take it
    (unperturbed, and every cell shorter than 19 digits)."""
    rows, runs = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = st.integers(0, 20) | st.integers(10**17, 10**18) | st.integers(0, 2**63 - 1)
    matrix = draw(st.lists(st.lists(values, min_size=runs, max_size=runs),
                           min_size=rows, max_size=rows))
    body = "\n".join(",".join(map(str, row)) for row in matrix)
    pristine = draw(st.booleans())
    if not pristine:
        body = _mutate(draw, body, 0)
    return body.split("\n"), runs, pristine and max(map(max, matrix)) < 10**18


def _outcome(read, lines, runs):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a block of blank lines
            return read(lines, 2, runs).tolist()
    except RunSetParseError as exc:
        return str(exc)


@settings(max_examples=300)
@given(cell_blocks())
def test_bulk_check_matches_per_cell_reference(block):
    lines, runs, fast = block
    reference = _outcome(_scan_cells, lines, runs)
    assert _outcome(read_cells, lines, runs) == reference
    bulk = _bulk_cells(lines, runs)
    if fast:
        assert bulk is not None
    if bulk is not None:
        assert bulk.dtype == np.int64 and bulk.tolist() == reference


@st.composite
def run_set_texts(draw):
    """(text, pristine): a run-set file of any kind, valid and of two or more
    runs when pristine, otherwise possibly invalid and with one perturbation."""
    kind = draw(st.sampled_from(["full", "partial", "topk"]))
    t = draw(st.integers(1, 6))
    k = t if kind == "full" else draw(st.integers(1, t))
    pristine = draw(st.booleans())
    runs = draw(st.integers(2 if pristine else 1, 4))
    ranks = np.array([draw(st.permutations(range(1, t + 1))) for _ in range(runs)])
    matrix = {"full": ranks, "partial": np.where(ranks <= k, ranks, 0),
              "topk": (ranks <= k).astype(int)}[kind]
    header = f"#stabrank v1 kind={kind} t={t} k={k} K={runs}\n"
    text = header + "".join(",".join(map(str, row)) + "\n" for row in matrix.T)
    if not pristine:
        text = draw(st.sampled_from([
            text,
            _mutate(draw, text, len(header)),
            _mutate(draw, text, 0),
            text[:-1],  # no final newline
            text.replace("\n", " \n", 1),
            text.replace(f" t={t} ", f" t=0{t} ", 1),
        ]))
    return text, pristine


@st.composite
def near_valid_texts(draw):
    """A ``run_set_texts`` text, or a pristine one with one data cell set to a
    small integer, which may break that column's invariant but not the grammar."""
    text, pristine = draw(run_set_texts())
    if pristine and draw(st.booleans()):
        lines = text.split("\n")
        row = draw(st.integers(1, len(lines) - 2))  # a data line: not the header or the end
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = str(draw(st.integers(-1, 7)))
        lines[row] = ",".join(cells)
        text = "\n".join(lines)
    return text


file_bytes = st.binary(max_size=80) | run_set_texts().map(lambda drawn: drawn[0].encode())


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=file_bytes,
    argv=st.sampled_from([
        ["validate", "in.csv"],
        ["stability", "in.csv"],
        ["stability", "in.csv", "--metrics", "sjs,spearman"],
        ["stability", "in.csv", "--metrics", "sjs,kuncheva,jaccard", "--json"],
        ["mds", "in.csv", "in.csv"],
    ]),
)
def test_any_file_bytes_exit_with_a_documented_code(data, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # what the interpreter would print before exiting 1
            traceback.print_exc()
            code = 1
    assert "Traceback" not in err.getvalue()
    assert code in {0, 2, 3, 4, 5}


@settings(max_examples=300)
@given(run_set_texts())
def test_every_accepted_text_round_trips(drawn):
    text, pristine = drawn
    try:
        run_set = parse_runset(text)
    except (RunSetParseError, RunSetValidationError):
        assert not pristine
        return
    assert serialize_runset(run_set) == text


def _columns_outcome(text):
    try:
        header, matrix = read_columns(text)
    except RunSetParseError as exc:
        return str(exc)
    return header, matrix.tolist()


@settings(max_examples=300)
@given(run_set_texts(), st.integers(1, 3))
def test_blocks_of_lines_read_like_one_block(drawn, block_lines):
    # the drawn files have at most 6 data lines, all in one default block
    text, _ = drawn
    whole = _columns_outcome(text)
    with mock.patch.object(runset_io, "_BLOCK_LINES", block_lines):
        assert _columns_outcome(text) == whole


def _per_cell_text(run_set):
    """The run set's file text formatted cell by cell with ``str``: the oracle."""
    lines = [f"#stabrank v1 kind={run_set.kind} t={run_set.t} k={run_set.k} K={run_set.runs}"]
    for feature_row in run_set.matrix.T:
        lines.append(",".join(map(str, feature_row.tolist())))
    return "\n".join(lines) + "\n"


# t and k on both sides of a change in digit count
WIDTH_EDGES = [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]


@st.composite
def writable_run_sets(draw):
    """A valid run set of any kind, whose largest value is often on a digit-width edge."""
    kind = draw(st.sampled_from(KINDS))
    t = draw(st.sampled_from(WIDTH_EDGES) | st.integers(1, 40))
    k = t if kind == "full" else draw(st.sampled_from([e for e in WIDTH_EDGES if e <= t] + [t])
                                      | st.integers(1, t))
    runs = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = np.array([rng.permutation(t) + 1 for _ in range(runs)])
    matrix = {"full": ranks, "partial": np.where(ranks <= k, ranks, 0), "topk": ranks <= k}[kind]
    return RunSet(kind, matrix, k)


@settings(max_examples=200, deadline=None)
@given(writable_run_sets(), st.integers(1, 64))
@example(RunSet("full", [[1, 2], [2, 1]]), 1)  # K=2, one line a block
@example(RunSet("partial", np.tile(np.r_[np.arange(1, 11), [0] * 90], (2, 1)), 10), 7)
@example(RunSet("topk", [[1] + [0] * 999, [0] * 999 + [1]], 1), 3)
def test_table_writer_matches_the_per_cell_formatter(run_set, block_lines):
    # the drawn files span up to 1001 lines, so small blocks give many
    expected = _per_cell_text(run_set)
    with mock.patch.object(runset_io, "_BLOCK_LINES", block_lines):
        assert serialize_runset(run_set) == expected
    assert serialize_runset(run_set) == expected


def _command(argv):
    """(exit code, stdout, stderr) of one ``stabrank`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=near_valid_texts())
def test_validate_and_stability_reach_one_verdict(text, tmp_path, monkeypatch):
    """The two commands that read a file through ``read_columns`` agree: the
    same parse error, the same first bad column, the same run count check,
    and VALID exactly when ``stability`` scores the file. The one valid file
    it cannot score is a shape whose random baseline is zero (exit 5)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_bytes(text.encode())
    code, out, err = _command(["validate", "in.csv"])
    scored = _command(["stability", "in.csv"])
    if code == 2:
        assert scored == (2, "", err)
        return
    valid = re.fullmatch(r"in\.csv: VALID kind=(\w+) t=(\d+) k=(\d+) K=\d+", out.splitlines()[-1])
    if valid:
        try:
            normalizer(valid[1], int(valid[2]), int(valid[3]))
        except DegenerateNormalizerError:
            assert scored[0] == 5 and scored[2].startswith("error: random-baseline divergence is 0")
        else:
            assert scored[0] == 0 and scored[2] == ""
        return
    assert code == 3
    columns = [re.fullmatch(r"column (\d+): (.*)", line) for line in out.splitlines()[:-1]]
    first_bad = next((c for c in columns if c[2] != "ok"), None)
    if first_bad is None:
        message = "a run set needs at least 2 lists, got 1"
        assert out.endswith(f"in.csv: INVALID ({message})\n")
    else:
        message = f"column {first_bad[1]}: {first_bad[2]}"
    assert scored == (3, "", f"validation error: {message}\n")
