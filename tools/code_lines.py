"""Count the code lines of the weightpoly package, the figure ROADMAP quotes.

    python3 tools/code_lines.py

A code line is a line of a module in src/weightpoly that holds a token
other than a comment, after dropping blank lines and every line of a
module, class or function docstring.  A string that spans several lines
counts on each of them, unless it is a docstring.  Prints one line per
module, "<module> <count>" in file-name order, then "total <sum>".
Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "weightpoly")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def counts() -> dict[str, int]:
    """Code lines per module of the package, keyed by module name, in
    file-name order."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                out[name[:-3]] = code_lines(f.read())
    return out


def main() -> int:
    per_module = counts()
    for name, count in per_module.items():
        print(name, count)
    print("total", sum(per_module.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
