"""Lines of code per module: lines that hold code outside comments and docstrings.

A line counts when any token on it is code; a blank line, a comment line and
a line of a docstring (the string that opens a module, class or function
body) do not.  A string that is not a docstring counts on every line it
spans.  Unlike `wc -l`, a change to comments or docstrings leaves the count
as it is.

    python tests/code_lines.py                 # every module of src/revcrochet
    python tests/code_lines.py FILE [FILE...]  # the given files

Prints one line per file, as `wc -l` does, and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) as (line, column) of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(text: str) -> int:
    """The number of lines of the Python source text that hold code."""
    spans = docstring_spans(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
            start <= tok.start and tok.end <= end for start, end in spans
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(p) for p in argv] or sorted((root / "src" / "revcrochet").glob("*.py"))
    total = 0
    for path in paths:
        with tokenize.open(path) as src:
            count = code_lines(src.read())
        total += count
        shown = path.relative_to(root) if path.is_relative_to(root) else path
        print(f"{count:5} {shown}")
    print(f"{total:5} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
