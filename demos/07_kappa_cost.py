"""Per-stage cost of one solve across the whole kappa range, at fixed mesh.

Assembly takes closed-form moments whose cost does not depend on the
phase, so the rhs and matrix stages should read about the same from
kappa = 1.5 (every moment in its Gauss regime) to kappa = 1e8 (every
moment past its switch).  Rows run interleaved, in rounds, and each
entry is the median over the rounds in milliseconds.

Run:  python demos/07_kappa_cost.py
"""

import statistics
import time

from oscfred import paper_benchmark, run_galerkin

KAPPAS = (1.5, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e8)
MESHES = (("opgm", 64), ("cgm", 256))
STAGES = ("rhs", "matrix", "fold", "solve", "error")
ROUNDS = 9

problems = {kappa: paper_benchmark(kappa) for kappa in KAPPAS}
times = {}
t0 = time.perf_counter()
for r in range(ROUNDS + 1):
    for method, N in MESHES:
        for kappa in KAPPAS:
            run = run_galerkin(problems[kappa], method, N)
            if r:                                   # round 0 fills the mesh plans
                times.setdefault((method, kappa), []).append(run.stages)

for method, N in MESHES:
    print(f"{method} N={N}: median ms over {ROUNDS} rounds")
    print("      kappa " + "".join(f"{s:>9}" for s in STAGES) + "  rhs+matrix")
    assembly = []
    for kappa in KAPPAS:
        med = {s: 1e3 * statistics.median(st[s] for st in times[(method, kappa)]) for s in STAGES}
        assembly.append(med["rhs"] + med["matrix"])
        print(f"{kappa:11.3g} " + "".join(f"{med[s]:9.3f}" for s in STAGES) + f"  {assembly[-1]:9.3f}")
    print(f"  rhs+matrix max/min over kappa: {max(assembly) / min(assembly):.2f}\n")
print(f"{ROUNDS + 1} rounds in {time.perf_counter() - t0:.1f} s")
