"""Count the code lines of Python files.

A code line is a physical line that holds a token other than a comment,
a line break or an indent, leaving out the tokens of module, class and
function docstrings.  So a blank line, a comment line and a line of a
docstring are not counted, and a string literal that is not a docstring
counts every line it spans.

    python3 tools/code_lines.py PATH...

Each PATH is a file or a directory, whose *.py files are counted
recursively.  Prints one line per file, "<count>  <path>", then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> set[tuple[int, int]]:
    """(first line, last line) of each module, class and function docstring."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.add((first.value.lineno, first.value.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of `source`, as the module docstring says."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
            first <= tok.start[0] and tok.end[0] <= last for first, last in docstrings
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
