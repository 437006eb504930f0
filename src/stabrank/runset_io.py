"""Canonical run-set file format (version 1).

UTF-8 text: a header line

    #stabrank v1 kind=<full|partial|topk> t=<int> k=<int> K=<int>

followed by exactly t rows of K comma-separated integers, every line ending
in a newline, no quoting. Columns are runs and rows are features, mirroring
the usual one-column-per-run matrix layout. Ranks for full/partial kinds (0 =
unranked), 0/1 flags for topk. Cells and header numbers follow one strict
grammar (see ``_CELL_RE``), so every accepted text is canonical:
``serialize(parse(text)) == text``. Both directions work ``_BLOCK_LINES``
feature lines at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .lists import RunSet, _shape_problem, row_violations


class RunSetParseError(ValueError):
    """Structural problem in a run-set file (reported with line/column)."""


class RunSetValidationError(ValueError):
    """A well-formed run-set file whose lists break their kind's invariants."""


# The cell grammar, stated once: a cell is ASCII "0", or an optional "-", a
# nonzero digit and more digits, and its value fits in int64. ``_cell_value``
# applies it cell by cell; ``_bulk_cells`` accepts its non-negative part in
# bulk from the same digits.
_DIGITS = "0123456789"
_CELL_RE = re.compile(f"0|-?[{_DIGITS[1:]}][{_DIGITS}]*")
_INT64 = np.iinfo(np.int64)
_BULK_ALPHABET = (_DIGITS + ",\n").encode("ascii")
_BLOCK_LINES = 1024  # data lines per block in ``read_columns`` and ``serialize_runset``

_HEADER_RE = re.compile(
    f"#stabrank v1 kind=(full|partial|topk) t=([{_DIGITS}]+) k=([{_DIGITS}]+) K=([{_DIGITS}]+)"
)


@dataclass(frozen=True)
class RunSetFileHeader:
    kind: str
    t: int
    k: int
    runs: int


def _cell_value(cell: str) -> int | None:
    """The integer ``cell`` spells under the cell grammar, or ``None``."""
    # 20 characters hold every int64; the cap also keeps int() off huge strings
    if len(cell) > 20 or not _CELL_RE.fullmatch(cell):
        return None
    value = int(cell)
    return value if _INT64.min <= value <= _INT64.max else None


def parse_header(line: str) -> RunSetFileHeader:
    """The header's fields. A malformed line, a shape that ``lists._shape_problem``
    refuses (its message after ``line 1: ``) or K < 1 raises ``RunSetParseError``."""
    match = _HEADER_RE.fullmatch(line)
    t, k, runs = (_cell_value(group) for group in match.groups()[1:]) if match else (None,) * 3
    if None in (t, k, runs):
        raise RunSetParseError(
            "line 1: expected header "
            "'#stabrank v1 kind=<full|partial|topk> t=<int> k=<int> K=<int>'"
        )
    if problem := _shape_problem(match.group(1), t, k):
        raise RunSetParseError(f"line 1: {problem}")
    if runs < 1:
        raise RunSetParseError("line 1: K must be positive")
    return RunSetFileHeader(match.group(1), t, k, runs)


def read_cells(lines: list[str], first_line: int, runs: int) -> np.ndarray:
    """The ``(len(lines), runs)`` int64 matrix of a block of data lines.

    ``first_line`` is the file line number of ``lines[0]``. A line without
    ``runs`` cells, or a cell outside the cell grammar, raises
    ``RunSetParseError`` naming the first such line (and column).
    """
    matrix = _bulk_cells(lines, runs)
    return _scan_cells(lines, first_line, runs) if matrix is None else matrix


def _bulk_cells(lines: list[str], runs: int) -> np.ndarray | None:
    """The matrix when every cell is a canonical non-negative int64, else ``None``:
    the digit count of the block equals that of its values
    (docs/derivations.md#digit-count).

    Only digits, commas and newlines pass the alphabet check; a blank line
    (which ``loadtxt`` would skip) and a 19-digit cell go to the scan.
    """
    body = "\n".join(lines)
    if not (body.isascii() and all(lines)) or body.encode("ascii").translate(None, _BULK_ALPHABET):
        return None
    digits = len(body) - body.count(",") - (len(lines) - 1)
    del body  # a copy of the block: free it before loadtxt allocates the matrix
    try:
        matrix = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (len(lines), runs):
        return None
    top = int(matrix.max())
    if top >= 10**18:  # so no result rests on how loadtxt treats int64 overflow
        return None
    widths = matrix.size + sum(
        int(np.count_nonzero(matrix >= 10**e)) for e in range(1, len(str(top)))
    )
    return matrix if digits == widths else None


def _scan_cells(lines: list[str], first_line: int, runs: int) -> np.ndarray:
    """``read_cells`` cell by cell: the reference, and the path that names errors."""
    # sized by the first row, not by ``runs``: a header that overstates K then
    # fails the column check below instead of asking for a huge allocation
    matrix = np.empty((len(lines), lines[0].count(",") + 1), dtype=np.int64)
    for row, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != runs:
            raise RunSetParseError(
                f"line {first_line + row}: expected {runs} columns, found {len(cells)}"
            )
        for col, cell in enumerate(cells):
            value = _cell_value(cell)
            if value is None:
                raise RunSetParseError(
                    f"line {first_line + row}, column {col + 1}: invalid integer {cell!r}"
                )
            matrix[row, col] = value
    return matrix


def read_columns(text: str) -> tuple[RunSetFileHeader, np.ndarray]:
    """Parse header and body; returns the (K, t) int64 matrix with runs as rows.

    The body is tokenized ``_BLOCK_LINES`` lines at a time, each block
    written transposed into one preallocated C-ordered matrix, the layout
    ``RunSet`` keeps. It is int64, the width of the cell grammar, so every
    cell is checked before a ``RunSet`` narrows it. Raises
    ``RunSetParseError`` for structural problems, naming the first bad line;
    the lists themselves are judged by ``check_runset``.
    """
    lines = text.split("\n")
    ended = lines[-1] == ""
    if ended:
        lines.pop()
    if not lines:
        raise RunSetParseError("empty file")
    header = parse_header(lines[0])
    if not ended:
        raise RunSetParseError(f"line {len(lines)}: no newline at the end of the file")
    if len(lines) - 1 != header.t:
        raise RunSetParseError(f"expected {header.t} data rows, found {len(lines) - 1}")
    matrix = None
    for start in range(1, len(lines), _BLOCK_LINES):
        block = read_cells(lines[start:start + _BLOCK_LINES], start + 1, header.runs)
        if matrix is None:
            # allocated only once a block has shown K columns, so a header that
            # overstates K fails the column check instead of a huge allocation
            matrix = np.empty((header.runs, header.t), dtype=np.int64)
        matrix[:, start - 1:start - 1 + len(block)] = block.T
    return header, matrix


def column_violations(header: RunSetFileHeader, runs_matrix: np.ndarray) -> list[str | None]:
    """Per-column validation results, ``None`` where a column is valid."""
    return row_violations(header.kind, runs_matrix, header.k)


def check_runset(text: str) -> tuple[RunSetFileHeader, np.ndarray, list[str | None], str | None]:
    """A run-set file's header, runs-major matrix, column problems and verdict.

    The verdict, which ``parse_runset`` raises and ``stabrank validate``
    prints, is the first bad column as ``column j: <problem>``, else the
    shape rule the file breaks (``lists._shape_problem``), else ``None``.
    """
    header, matrix = read_columns(text)
    problems = column_violations(header, matrix)
    bad = next((f"column {j}: {p}" for j, p in enumerate(problems, 1) if p is not None), None)
    verdict = bad or _shape_problem(header.kind, header.t, header.k, header.runs)
    return header, matrix, problems, verdict


def parse_runset(text: str) -> RunSet:
    """Parse and validate a run-set file into a ``RunSet``.

    A structural problem raises ``RunSetParseError`` and a ``check_runset``
    verdict ``RunSetValidationError``; else the checked matrix is adopted.
    """
    header, matrix, _, verdict = check_runset(text)
    if verdict is not None:
        raise RunSetValidationError(verdict)
    return RunSet._trusted(header.kind, matrix, header.k)


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
    """Canonical text form of a run set (inverse of ``parse_runset``).

    The body is written ``_BLOCK_LINES`` feature lines at a time from a text
    table of the values ``0..max``, with no Python code per cell. The matrix
    must hold only values in ``0..t``, as every ``RunSet`` does
    (docs/derivations.md#text-table).
    """
    m = run_set.matrix
    table = _text_table(int(m.max()))
    planes = np.zeros(run_set.runs, dtype=np.intp)
    planes[-1] = 1
    blocks = [f"#stabrank v1 kind={run_set.kind} t={run_set.t} k={run_set.k} K={run_set.runs}\n"]
    for start in range(0, run_set.t, _BLOCK_LINES):
        cells = m[:, start:start + _BLOCK_LINES].T  # a view: only one block is gathered at a time
        blocks.append(table[cells, planes].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


def _text_table(top: int) -> np.ndarray:
    """The text of ``0..top`` for ``serialize_runset``: a ``(top + 1, 2)`` array of
    fixed-width byte strings, each value's digits, NUL-padded on the left, then
    ``,`` or ``\\n`` (docs/derivations.md#text-table)."""
    scale = 10 ** np.arange(len(str(top)) - 1, -1, -1)  # place values, highest first
    values = np.arange(top + 1)[:, np.newaxis]
    digits = np.where((values >= scale) | (scale == 1), values // scale % 10 + ord("0"), 0)
    table = np.empty((top + 1, 2, len(scale) + 1), dtype=np.uint8)
    table[:, :, :-1] = digits[:, np.newaxis, :]
    table[:, :, -1] = (ord(","), ord("\n"))
    # one fixed-width element per entry: a gather then copies whole entries
    return table.view(np.dtype((np.void, table.shape[2])))[:, :, 0]


def save_runset(run_set: RunSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_runset(run_set))
