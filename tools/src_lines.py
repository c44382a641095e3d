"""Count the lines of ``src/oscfred``: total lines and code lines, per module and summed.

Run from the repository root:

    python tools/src_lines.py

A code line holds a token other than a comment or a line break, outside
the docstrings of the module, its classes and its functions; a token that
spans lines (a multi-line string or bracket continuation) marks each line
it spans.  The tool only reports: it sets no budget and exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oscfred"
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one file."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text, str(path))))


def main() -> int:
    total = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:16} {lines:6} {code:6}")
    print(f"{'total':16} {total[0]:6} {total[1]:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
