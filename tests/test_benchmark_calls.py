"""The library calls of the benchmark harness, run on each workload's smallest solve.

``benchmarks/`` is imported as it is, read-only: these tests fail when a name
the harness or the workloads call leaves the library, before a benchmark run
would.  The solves run in a child interpreter on one BLAS thread, as the
benchmark runs them: with more threads the traced LU (getrf) and the
untraced solve (gesv) may round differently, and a manufactured row's e_N
is itself at roundoff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import checks, harness, workloads
row = workloads.setup_row(sys.argv[1], workloads.DEFAULT_SEED)
untraced = harness.timed_solve(row)
traced = harness.traced_solve(row, harness.Tracer(), 0)
match = "e_N" in traced and "e_N" in untraced and checks.errors_match(
    traced["e_N"], untraced["e_N"], traced["cond"])
print(json.dumps({"untraced": untraced, "traced": traced, "match": match}))
"""


@pytest.mark.parametrize("workload", ["sweep-k10-1e4", "manufactured-m4"])
def test_timed_and_traced_solves_agree(workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, workload], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    untraced, traced = out["untraced"], out["traced"]
    assert "error" not in untraced, untraced["error"]
    assert "error" not in traced, traced["error"]
    assert traced["residual"] <= 1e-12
    assert out["match"], (traced["e_N"], untraced["e_N"], traced["cond"])
