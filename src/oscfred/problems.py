"""Benchmark problems and experiment drivers.

Contains the reference scattering-like benchmark (kernel factor 1, exact
solution 1 + s^3 e^{i*kappa*s}), a manufactured-solution generator that
builds the right-hand side f = y - Ky in closed form for any structured
exact solution, the linear-interpolation oscillation experiment, and a
small runner that assembles and solves one Galerkin discretization while
recording the quantities the benchmark tables report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import galerkin, linalg
from .bspline import max_error_on_grid
from .galerkin import (
    EN_GRID,
    OscKernel,
    Polynomial,
    StructuredFunction,
    TrialSpace,
    apply_kernel_structured,
    eval_solution,
    relative_error_eN,
)

__all__ = [
    "GalerkinRun",
    "OscProbeFunction",
    "Problem",
    "manufactured",
    "paper_benchmark",
    "problem_from_dict",
    "problem_to_dict",
    "run_galerkin",
    "table1_experiment",
]


@dataclass(frozen=True)
class Problem:
    """One instance of the integral equation y - Ky = f.

    ``exact`` and ``norm_exact`` are optional; when the exact solution is
    known, errors are reported relative to ``norm_exact`` (computed with
    the same 2048-point sampling rule as the error metric if not given).
    """

    kernel: OscKernel
    rhs: object
    exact: StructuredFunction | None = None
    norm_exact: float | None = None

    @property
    def kappa(self) -> float:
        return self.kernel.kappa

    def norm_y(self) -> float:
        if self.norm_exact is not None:
            return self.norm_exact
        if self.exact is None:
            raise ValueError("problem has no exact solution to normalize against")
        vals = np.asarray(self.exact(EN_GRID))
        return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def paper_benchmark(kappa: float) -> Problem:
    """The reference benchmark: K(s,t) = 1 with exact solution y(s) = 1 + s^3 e^{i*kappa*s}.

    The right-hand side is the closed-form f = y - Ky, a structured
    function with carriers (+1, -1, 0); its exact L2 norm is
    4*sqrt(7)/7 for every kappa (the oscillatory cross term integrates to
    zero by parity).
    """
    if not (math.isfinite(kappa) and kappa > 1.0):
        raise ValueError("wavenumber must be finite and exceed 1")
    k = float(kappa)
    u = 1.0 / k                     # powers of 1/k, not of k, so no coefficient overflows
    eik = np.exp(1j * k)
    w_plus = Polynomial([
        0.25 - 0.375 * u**4 + 1j * eik * u,
        0.75j * u**3,
        0.75 * u**2,
        1.0 - 0.5j * u,
        -0.25,
    ])
    w_minus = Polynomial([
        -(np.exp(2j * k) * (-3.0 * u**4 + 6j * u**3 + 6.0 * u**2 - 4j * u) / 8.0 - 1j * eik * u)
    ])
    w_zero = Polynomial([1.0 - 2j * u])
    f = StructuredFunction(k, {1: w_plus, -1: w_minus, 0: w_zero})
    y = StructuredFunction(k, {0: Polynomial([1.0]), 1: Polynomial([0.0, 0.0, 0.0, 1.0])})
    return Problem(
        kernel=OscKernel.polynomial([[1.0]], k),
        rhs=f,
        exact=y,
        norm_exact=4.0 / np.sqrt(7.0),
    )


def manufactured(kernel: OscKernel, y: StructuredFunction) -> Problem:
    """Problem with prescribed structured exact solution: f = y - Ky in closed form.

    Requires a polynomial kernel factor; amplitude degrees are capped so
    the construction stays exact (degree overflow raises).
    """
    f = y - apply_kernel_structured(kernel, y)
    return Problem(kernel=kernel, rhs=f, exact=y)


# ---------------------------------------------------------------------------
# Oscillation-order experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscProbeFunction:
    """Probe g_j(t) = t^2 + sin(kappa*t) / kappa^(j-1), j in {1, 2, 3}.

    The three probes share one wavenumber but their amplitudes scale down
    with kappa, so the same oscillation affects their interpolation error
    very differently: doubling kappa multiplies the error of g_1 by ~4,
    g_2 by ~2, and leaves g_3 unchanged.
    """

    index: int
    kappa: float

    def __post_init__(self):
        if self.index not in (1, 2, 3):
            raise ValueError("probe index must be 1, 2, or 3")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("wavenumber must be positive and finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t**2 + np.sin(self.kappa * t) / self.kappa ** (self.index - 1)


def table1_experiment(kappas: Sequence[float]) -> np.ndarray:
    """Max interpolation errors of the probes g_1, g_2, g_3 on a uniform grid.

    Each probe is interpolated linearly on 1281 uniform points of
    [-1, 1] and the maximum error is measured on the 2049-point uniform
    grid; both grids include the endpoints.  Returns an array of shape
    (len(kappas), 3).
    """
    out = np.zeros((len(kappas), 3))
    xs = np.linspace(-1.0, 1.0, 1281)
    for i, kappa in enumerate(kappas):
        if not (math.isfinite(kappa) and kappa > 0):
            raise ValueError("wavenumbers must be positive and finite")
        for j in (1, 2, 3):
            g = OscProbeFunction(index=j, kappa=float(kappa))
            ys = g(xs)
            out[i, j - 1] = max_error_on_grid(g, lambda s: np.interp(s, xs, ys), 2049)
    return out


# ---------------------------------------------------------------------------
# Single-run driver
# ---------------------------------------------------------------------------

_METHOD_MULTIPLIERS = {
    "cgm": galerkin.CGM_MULTIPLIERS,
    "opgm": galerkin.OPGM_MULTIPLIERS,
}


@dataclass
class GalerkinRun:
    """Outcome of one assemble-and-solve at a given mesh level.

    ``stages`` holds the seconds of each stage of :func:`run_galerkin`:
    load vector (``rhs``), E - K's rows (``matrix``), their blocks (``fold``),
    LAPACK solve (``solve``), e_N (``error``) and condition number
    (``cond``); a stage that did not run reads 0.  ``seconds`` spans the
    first four.
    """

    method: str
    kappa: float
    N: int
    spline_order: int
    matrix_order: int
    coeffs: np.ndarray
    space: TrialSpace
    seconds: float
    e_N: float = float("nan")
    cond: float = float("nan")
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def e_l2(self) -> float:
        """Relative L2 error (integral weight); sqrt(2) times the sampled-mean e_N."""
        return float(np.sqrt(2.0) * self.e_N)

    def evaluate(self, s):
        return eval_solution(self.space, self.coeffs, s)


def run_galerkin(
    problem: Problem,
    method: str,
    N: int,
    spline_order: int = 2,
    *,
    compute_cond: bool = False,
) -> GalerkinRun:
    """Assemble and solve one discretization of ``problem``.

    Every input takes the same calls: :func:`oscfred.galerkin.assemble_leading_rows`
    gives the rows of E - K that determine it, :func:`oscfred.linalg.fold_rows`
    their blocks, and :func:`oscfred.linalg.solve_blocks` solves each.  When
    the discrete problem is invariant under s -> -s
    (:func:`oscfred.galerkin.reflection_symmetric`), E - K is exactly
    centrosymmetric: those are its leading ceil(n/2) rows, folded in place
    into an even and an odd half, so no n x n array is allocated.  Any
    other input gives all n rows, one block.  The mesh's
    kappa-independent tables come from its :func:`oscfred.galerkin.uniform_plan`,
    so a sweep over kappa on one mesh builds them once.

    ``seconds`` measures assembly plus solve; e_N and the optional
    condition number (the exact 2-norm condition number of E - K, taken
    over the halves' singular values) are timed separately, in ``stages``.
    Raises :class:`oscfred.linalg.SingularMatrixError` if the discrete
    system (or either half) is exactly singular.
    """
    method = method.lower()
    if method not in _METHOD_MULTIPLIERS:
        raise ValueError(f"unknown method {method!r}; expected 'cgm' or 'opgm'")
    splines = galerkin.uniform_plan(N, spline_order).splines
    space = TrialSpace(splines=splines, kappa=problem.kappa, multipliers=_METHOD_MULTIPLIERS[method])
    t0 = time.perf_counter()
    f = galerkin.assemble_rhs(space, problem.rhs)
    t1 = time.perf_counter()
    A = galerkin.assemble_leading_rows(space, problem.kernel)
    t2 = time.perf_counter()
    blocks, loads = linalg.fold_rows(A, f)
    t3 = time.perf_counter()
    coeffs = linalg.solve_blocks(blocks, loads)
    t4 = time.perf_counter()
    stages = {"rhs": t1 - t0, "matrix": t2 - t1, "fold": t3 - t2, "solve": t4 - t3, "error": 0.0, "cond": 0.0}
    run = GalerkinRun(
        method=method,
        kappa=problem.kappa,
        N=N,
        spline_order=spline_order,
        matrix_order=space.dimension,
        coeffs=coeffs,
        space=space,
        seconds=t4 - t0,
        stages=stages,
    )
    if problem.exact is not None:
        t0 = time.perf_counter()
        run.e_N = relative_error_eN(run.evaluate, problem.exact, problem.norm_y())
        stages["error"] = time.perf_counter() - t0
    if compute_cond:
        t0 = time.perf_counter()
        run.cond = linalg.cond2_blocks(blocks)
        stages["cond"] = time.perf_counter() - t0
    return run


# ---------------------------------------------------------------------------
# JSON problem descriptions (consumed by the command-line runner)
# ---------------------------------------------------------------------------

def _coeff_to_json(c: complex):
    if c.imag == 0.0:
        return c.real
    return [c.real, c.imag]


def _coeff_from_json(v, where: str) -> complex:
    """A coefficient is a real number or a [re, im] pair; anything else raises ValueError."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in parts):
        raise ValueError(
            f"problem file: {where} must hold finite numbers or [re, im] pairs, got {v!r}")
    return complex(*parts)


def _field(d, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"problem file: missing {where}{key}")
    return d[key]


def _structured_to_dict(f: StructuredFunction) -> dict:
    return {
        "terms": [
            {"tau": tau, "coeffs": [_coeff_to_json(c) for c in p.coeffs]}
            for tau, p in f.terms
        ]
    }


def _structured_from_dict(d: dict, kappa: float, where: str) -> StructuredFunction:
    items = _field(d, "terms", f"{where}.")
    if not isinstance(items, list):
        raise ValueError(f"problem file: {where}.terms must be a list")
    terms = {}
    for i, item in enumerate(items):
        at = f"{where}.terms[{i}]."
        coeffs = _field(item, "coeffs", at)
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError(f"problem file: {at}coeffs must be a nonempty list")
        tau = _field(item, "tau", at)
        if not isinstance(tau, int) or isinstance(tau, bool):
            raise ValueError(f"problem file: {at}tau must be an integer, got {tau!r}")
        terms[tau] = Polynomial([_coeff_from_json(v, f"{at}coeffs") for v in coeffs])
    return StructuredFunction(kappa, terms)


def problem_to_dict(problem: Problem) -> dict:
    if not isinstance(problem.rhs, StructuredFunction):
        raise ValueError("only problems with structured right-hand sides are serializable")
    if not problem.kernel.is_polynomial:
        raise ValueError("only problems with polynomial kernel factors are serializable")
    C = problem.kernel.coefficient_matrix()
    return {
        "kappa": problem.kappa,
        "kernel": {"poly_st": [[_coeff_to_json(c) for c in row] for row in C]},
        "rhs": _structured_to_dict(problem.rhs),
        "exact": None if problem.exact is None else _structured_to_dict(problem.exact),
    }


def problem_from_dict(d: dict) -> Problem:
    """Problem from its JSON description; a malformed one raises ValueError naming the field."""
    kappa = _field(d, "kappa", "")
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 1.0):
        raise ValueError(f"problem file: kappa must be a finite number above 1, got {kappa!r}")
    rows = _field(_field(d, "kernel", ""), "poly_st", "kernel.")
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)
            and len({len(r) for r in rows}) == 1):
        raise ValueError("problem file: kernel.poly_st must be a nonempty rectangular list of rows")
    C = [[_coeff_from_json(v, "kernel.poly_st") for v in row] for row in rows]
    kernel = OscKernel.polynomial(C, float(kappa))
    rhs = _structured_from_dict(_field(d, "rhs", ""), kernel.kappa, "rhs")
    exact = None
    if d.get("exact") is not None:
        exact = _structured_from_dict(d["exact"], kernel.kappa, "exact")
    return Problem(kernel=kernel, rhs=rhs, exact=exact)
