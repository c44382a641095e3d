"""Every demo script, and every python block of the README, runs to completion against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
ARGS = [[str(d)] for d in DEMOS] + [["-c", code] for code in README_BLOCKS]
IDS = [d.name for d in DEMOS] + [f"README.md-python-{i + 1}" for i in range(len(README_BLOCKS))]


@pytest.mark.parametrize("demo", ARGS, ids=IDS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *demo], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
