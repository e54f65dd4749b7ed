"""Count the code lines of the ``repro`` package.

A code line is a physical line of a ``.py`` file under ``src/`` that
holds at least one token other than a comment, and that is not part of
a docstring (the leading string statement of a module, class or
function, found with :mod:`ast`).  Blank lines and comment-only lines
do not count.  This is the "src code lines" figure quoted in ROADMAP.md
and CHANGES.md.

Usage: ``python scripts/code_lines.py``; prints the total for ``src``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's *source*."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    total = sum(
        code_lines(path.read_text(encoding="utf-8"))
        for path in SRC.rglob("*.py")
    )
    print(f"{total:,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
