"""Set-up probe: import oscfred in a fresh interpreter and run one solve.

Run by ``run.py`` as ``python3 benchmarks/probe.py <workload> <seed>``,
which times the whole process from outside.  Prints the solve's result
row as JSON.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402  (imports oscfred)
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    print(json.dumps(harness.timed_solve(workloads.setup_row(name, seed))))
