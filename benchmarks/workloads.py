"""The benchmark's workloads: which solves each one runs, made from a seed.

A workload is a list of rows ``(method, kappa, N, m)``; every row is one
``run_galerkin(problem, method, N, m, compute_cond=True)`` call, the call
``oscfred``'s command-line runner makes per output row.  ``rows(name, seed)``
is a pure function of its arguments.  ``DEFAULT_SEED`` gives exactly the
documented inputs; any other seed

* jitters each sweep wavenumber by a log-uniform factor of at most an
  eighth of the sweep's log-step either way (a quarter of its log-bin), so
  no row crosses the small-phase/large-phase switch of its mesh and the
  kappa-dependent cost stays where the default inputs put it, and
* redraws the manufactured kernel and exact-solution coefficients with the
  same sparsity pattern, hence the same kernel rank and amplitude degrees.

The Table 2(d) workload has no random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oscfred import OscKernel, Polynomial, StructuredFunction, manufactured, paper_benchmark

DEFAULT_SEED = 0

TABLE2_KAPPA = 5e4
TABLE2_LEVELS = {"opgm": (16, 32, 64, 128, 256), "cgm": (64, 128, 256, 512, 1024)}

SWEEP_RANGE = (10.0, 1e4)
SWEEP_POINTS = 8
SWEEP_N = {"cgm": 256, "opgm": 64}      # the mesh levels of ``oscfred sweep``
SWEEP_JITTER = 1.0 / 8.0                # max |log-shift| in log-steps

MANUF_KAPPA = 500.0
MANUF_LEVELS = (16, 32, 64)
MANUF_ORDER = 4
# K(s,t) = sum C[i][j] s^i t^j, rank 3
MANUF_KERNEL = ((1.0, 0.0, 0.5), (0.0, 0.25, 0.0), (0.3, 0.0, 0.0))
# y(s) = (s + .5 s^3) e^{i k s} + (1 - .5 s) + .2 s^2 e^{-i k s}: (tau, amplitude coefficients)
MANUF_EXACT = ((1, (0.0, 1.0, 0.0, 0.5)), (0, (1.0, -0.5)), (-1, (0.0, 0.0, 0.2)))

WORKLOADS = ("table2-k5e4", "sweep-k10-1e4", "manufactured-m4")


@dataclass(frozen=True)
class Row:
    """One solve.  ``kernel``/``exact`` are set for manufactured problems only."""

    method: str
    kappa: float
    N: int
    m: int
    kernel: tuple = ()
    exact: tuple = ()

    @property
    def blocks(self) -> int:
        return 3 if self.method == "opgm" else 1

    @property
    def order(self) -> int:
        """Order n of the coefficient matrix E - K."""
        return self.blocks * (self.N + self.m)

    def as_dict(self) -> dict:
        out = {"method": self.method, "kappa": self.kappa, "N": self.N, "m": self.m,
               "blocks": self.blocks, "order": self.order}
        if self.kernel:
            out["kernel"] = [list(r) for r in self.kernel]
            out["exact"] = [[tau, list(c)] for tau, c in self.exact]
        return out


def build_problem(row: Row):
    """The problem a row solves: the paper benchmark, or the manufactured one."""
    if not row.kernel:
        return paper_benchmark(row.kappa)
    kernel = OscKernel.polynomial(np.array(row.kernel, dtype=float), row.kappa)
    y = StructuredFunction(row.kappa, {tau: Polynomial(list(c)) for tau, c in row.exact})
    return manufactured(kernel, y)


def _redraw(values: tuple, rng: np.random.Generator) -> tuple:
    """Same zero pattern, nonzeros replaced by random signs times U[0.1, 1]."""
    return tuple(float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)) if v else 0.0
                 for v in values)


def _manufactured_data(seed: int) -> tuple[tuple, tuple]:
    if seed == DEFAULT_SEED:
        return MANUF_KERNEL, MANUF_EXACT
    rng = np.random.default_rng([seed, 2])
    rank = np.linalg.matrix_rank(np.array(MANUF_KERNEL))
    while True:
        kernel = tuple(_redraw(r, rng) for r in MANUF_KERNEL)
        if np.linalg.matrix_rank(np.array(kernel)) == rank:
            break
    exact = tuple((tau, _redraw(c, rng)) for tau, c in MANUF_EXACT)
    return kernel, exact


def sweep_kappas(seed: int) -> tuple[float, ...]:
    lo, hi = SWEEP_RANGE
    base = np.geomspace(lo, hi, SWEEP_POINTS)
    if seed == DEFAULT_SEED:
        return tuple(float(k) for k in base)
    step = (hi / lo) ** (1.0 / (SWEEP_POINTS - 1))
    shift = np.random.default_rng([seed, 1]).uniform(-SWEEP_JITTER, SWEEP_JITTER, SWEEP_POINTS)
    return tuple(float(k) for k in base * step**shift)


def rows(name: str, seed: int) -> list[Row]:
    if name == "table2-k5e4":
        return [Row(method, TABLE2_KAPPA, N, 2)
                for method in ("opgm", "cgm") for N in TABLE2_LEVELS[method]]
    if name == "sweep-k10-1e4":
        kappas = sweep_kappas(seed)
        return [Row(method, k, N, 2) for method, N in SWEEP_N.items() for k in kappas]
    if name == "manufactured-m4":
        kernel, exact = _manufactured_data(seed)
        return [Row("opgm", MANUF_KAPPA, N, MANUF_ORDER, kernel, exact) for N in MANUF_LEVELS]
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _cheapest(rs: list[Row]) -> Row:
    # smallest matrix; among equal orders the largest kappa (the large-phase branch)
    return min(rs, key=lambda r: (r.order, -r.kappa))


def setup_row(name: str, seed: int) -> Row:
    """The workload's smallest solve, run by the set-up probe and the warm-up."""
    return _cheapest(rows(name, seed))


def smoke_rows(name: str, seed: int) -> list[Row]:
    """The smallest solve of each method in the workload."""
    rs = rows(name, seed)
    methods = dict.fromkeys(r.method for r in rs)
    return [_cheapest([r for r in rs if r.method == m]) for m in methods]
