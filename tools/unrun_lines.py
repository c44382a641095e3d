"""Fail when a statement inside a function of ``src/oscfred`` never runs under the tier-1 tests.

Run from the repository root:

    PYTHONPATH=src python tools/unrun_lines.py

The tier-1 tests run in this process under a line tracer on the package's
files (``sys.settrace``, and ``threading.settrace`` for threads the tests
start).  If they pass, every statement in a function body (nested functions
and methods included, docstrings left out) that never ran is listed as
``path:line: source`` and the exit code is 1.
Lines that run only in a child interpreter (the CLI, demo and benchmark
subprocess tests) are not seen.  The file is not a test module and no
``conftest`` loads it, so the tier-1 command itself runs untraced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscfred"
TIER1 = ["-q", "--continue-on-collection-errors"]


def _nested(stmts):
    """The statements of a body and of the blocks inside it, not those of nested functions or classes."""
    for s in stmts:
        yield s
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from _nested(getattr(s, block, []))
        for part in getattr(s, "handlers", []) + getattr(s, "cases", []):
            yield from _nested(part.body)


def statements(path: Path) -> dict[int, range]:
    """{line: lines any of whose events shows it ran} for each statement in a function body of ``path``.

    A simple statement may report any of its lines; a compound one its
    header, from its first decorator to the line before its body.  Constant
    expressions (docstrings among them) and ``global``/``nonlocal`` make no
    code, so they are left out.
    """
    out = {}
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for s in _nested(fn.body):
            if isinstance(s, (ast.Global, ast.Nonlocal)) or (
                    isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)):
                continue
            first = min([s.lineno] + [d.lineno for d in getattr(s, "decorator_list", [])])
            body = getattr(s, "body", None)
            last = max(first, body[0].lineno - 1) if body else s.end_lineno
            out[s.lineno] = range(first, last + 1)
    return out


def start_tracing(files: set[str], hits: set[tuple[str, int]]):
    """Record ``(file, line)`` in ``hits`` for each line run in ``files`` (real paths); returns the function that stops it."""
    ours: dict[str, str | None] = {}

    def owner(filename: str) -> str | None:
        if filename not in ours:
            real = os.path.realpath(filename)
            ours[filename] = real if real in files else None
        return ours[filename]

    def call(frame, event, arg):
        path = owner(frame.f_code.co_filename)
        if path is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add((path, frame.f_lineno))
            return local
        return local

    sys.settrace(call)
    threading.settrace(call)

    def stop():
        sys.settrace(None)
        threading.settrace(None)
    return stop


def unrun(hits: set[tuple[str, int]], paths) -> list[str]:
    """``path:line: source`` of each function-body statement of ``paths`` with no line in ``hits``."""
    out = []
    for path in paths:
        real = os.path.realpath(path)
        source = path.read_text().splitlines()
        for line, span in sorted(statements(path).items()):
            if not any((real, i) in hits for i in span):
                out.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return out


def main() -> int:
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    hits: set[tuple[str, int]] = set()
    stop = start_tracing({os.path.realpath(p) for p in paths}, hits)
    try:
        code = pytest.main(TIER1)
    finally:
        stop()
    if code != 0:
        return int(code)
    missed = unrun(hits, paths)
    total = sum(len(statements(p)) for p in paths)
    for entry in missed:
        print(entry)
    print(f"{len(missed)} of {total} function-body statements of src/oscfred never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
