"""Canonical run-set file format (version 1).

UTF-8 text: a header line

    #stabrank v1 kind=<full|partial|topk> t=<int> k=<int> K=<int>

followed by exactly t rows of K comma-separated integers, newline endings,
no quoting. Columns are runs and rows are features, mirroring the usual
one-column-per-run matrix layout. Ranks for full/partial kinds (0 =
unranked), 0/1 flags for topk. ``serialize(parse(text)) == text`` holds
for canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .lists import KINDS, RunSet, row_violations


class RunSetParseError(ValueError):
    """Structural problem in a run-set file (reported with line/column)."""


class RunSetValidationError(ValueError):
    """A well-formed run-set file whose lists break their kind's invariants."""


_HEADER_RE = re.compile(
    r"#stabrank v1 kind=(full|partial|topk) t=(\d+) k=(\d+) K=(\d+)\s*$"
)


@dataclass(frozen=True)
class RunSetFileHeader:
    kind: str
    t: int
    k: int
    runs: int


def parse_header(line: str) -> RunSetFileHeader:
    match = _HEADER_RE.match(line)
    if not match:
        raise RunSetParseError(
            "line 1: expected header "
            "'#stabrank v1 kind=<full|partial|topk> t=<int> k=<int> K=<int>'"
        )
    kind, t, k, runs = match.group(1), int(match.group(2)), int(match.group(3)), int(match.group(4))
    if t < 1 or k < 1 or runs < 1:
        raise RunSetParseError("line 1: t, k and K must be positive")
    if k > t:
        raise RunSetParseError(f"line 1: k={k} exceeds t={t}")
    if kind == "full" and k != t:
        raise RunSetParseError(f"line 1: kind=full requires k == t, got k={k}, t={t}")
    return RunSetFileHeader(kind, t, k, runs)


def read_columns(text: str) -> tuple[RunSetFileHeader, np.ndarray]:
    """Parse header and body; returns the (K, t) matrix with runs as rows.

    Raises ``RunSetParseError`` for structural problems; per-column
    invariant checking is up to the caller (see ``column_violations``).
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise RunSetParseError("empty file")
    header = parse_header(lines[0])
    body = lines[1:]
    if len(body) != header.t:
        raise RunSetParseError(f"expected {header.t} data rows, found {len(body)}")
    # sized by the first row, not the header: a header that overstates K then
    # fails the column check below instead of asking for a huge allocation
    matrix = np.empty((header.t, body[0].count(",") + 1), dtype=np.int64)
    for row, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != header.runs:
            raise RunSetParseError(
                f"line {row + 2}: expected {header.runs} columns, found {len(cells)}"
            )
        for col, cell in enumerate(cells):
            try:
                matrix[row, col] = int(cell)
            except (ValueError, OverflowError):
                raise RunSetParseError(
                    f"line {row + 2}, column {col + 1}: invalid integer {cell.strip()!r}"
                ) from None
    return header, matrix.T


def column_violations(header: RunSetFileHeader, runs_matrix: np.ndarray) -> list[str | None]:
    """Per-column validation results, ``None`` where a column is valid."""
    return row_violations(header.kind, runs_matrix, header.k)


def parse_runset(text: str) -> RunSet:
    """Parse and validate a run-set file into a ``RunSet``.

    Structural problems raise ``RunSetParseError``; invariant violations
    and a single run raise ``RunSetValidationError`` (the first offending
    column is named).
    """
    header, matrix = read_columns(text)
    problems = column_violations(header, matrix)
    for col, problem in enumerate(problems):
        if problem is not None:
            raise RunSetValidationError(f"column {col + 1}: {problem}")
    if header.runs < 2:
        raise RunSetValidationError(f"a run set needs at least 2 lists, got {header.runs}")
    return RunSet(header.kind, matrix, header.k)


def read_text(path) -> str:
    """A file's text, newlines universal; bytes that are not UTF-8 raise ``RunSetParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise RunSetParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def load_runset(path) -> RunSet:
    return parse_runset(read_text(path))


def serialize_runset(run_set: RunSet) -> str:
    """Canonical text form of a run set (inverse of ``parse_runset``)."""
    if run_set.kind not in KINDS:
        raise ValueError(f"unknown kind {run_set.kind!r}")
    lines = [
        f"#stabrank v1 kind={run_set.kind} t={run_set.t} k={run_set.k} K={run_set.runs}"
    ]
    for feature_row in run_set.matrix.T:
        lines.append(",".join(map(str, feature_row.tolist())))
    return "\n".join(lines) + "\n"


def save_runset(run_set: RunSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_runset(run_set))
