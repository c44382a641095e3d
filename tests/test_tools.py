"""Tests of the repository tools under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
