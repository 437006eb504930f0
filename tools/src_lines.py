"""Count the lines of ``src/stabrank`` by what they hold.

    python tools/src_lines.py [directory]

Prints the total, code, docstring, comment and blank lines of every ``.py``
file under the directory (``src/stabrank`` by default), then their sum. A
line belongs to a docstring when it lies within the docstring of a module,
class or function; to a comment when it holds only a comment; to blank when
it holds only whitespace. Every other line is code, a line with code and a
trailing comment included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The five counts of one module's source."""
    text = source.splitlines()
    docstrings = docstring_lines(ast.parse(source))
    comments = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and not text[token.start[0] - 1][: token.start[1]].strip()
    }
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text, 1):
        counts["total"] += 1
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "stabrank"
    rows = {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}
    rows["all"] = {column: sum(row[column] for row in rows.values()) for column in COLUMNS}
    width = max(map(len, rows))
    print(f"{'file':<{width}}" + "".join(f"{column:>11}" for column in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[column]:>11}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
