"""Tests of the repository tools under tools/."""

import ast
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TESTS = Path(__file__).resolve().parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_tokens_outside_docstrings(tmp_path):
    # module, class and function docstrings, comments and blank lines are
    # not code; a string that is not a docstring and a bracket spread over
    # lines are, on every line they span
    path = tmp_path / "toy.py"
    path.write_text('"""Module\n\ndocstring."""\n'
                    "# a comment\n"
                    "\n"
                    "class C:\n"
                    "    '''Class docstring.'''\n"
                    "    def f(self):  # trailing comment\n"
                    '        """Function\n        docstring."""\n'
                    "        x = '''a\n        b'''\n"
                    "        return (x,\n"
                    "                1)\n")
    assert load("src_lines").count(path) == (14, 6)


def rel_only_approx(source):
    """Lines of the ``approx(..., rel=...)`` calls in source that give no ``abs=``."""
    lines = []
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "approx":
            keywords = {k.arg for k in call.keywords}
            if "rel" in keywords and "abs" not in keywords:
                lines.append(call.lineno)
    return lines


def test_every_relative_approx_states_its_absolute_bound():
    # approx(x, rel=r) alone applies max(r*|x|, 1e-12): below |x| = 1e-12 / r
    # the default absolute bound, not the stated relative one, decides
    assert rel_only_approx("import pytest\nassert 1 == pytest.approx(1, rel=1e-9)\n"
                           "assert 1 == approx(\n    1, rel=1e-9, abs=0)\n") == [2]
    found = {path.name: rel_only_approx(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}
