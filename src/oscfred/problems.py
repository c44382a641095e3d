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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import galerkin, linalg
from .bspline import max_error_on_grid
from .galerkin import (
    EN_GRID,
    OscKernel,
    StructuredFunction,
    TrialSpace,
    apply_kernel_structured,
    eval_solution,
    relative_error_eN,
)

__all__ = [
    "GalerkinRun",
    "METHOD_MULTIPLIERS",
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
    A structured load or exact solution must share the kernel's wavenumber,
    and ``norm_exact`` must be finite and positive; else ValueError.
    """

    kernel: OscKernel
    rhs: object
    exact: StructuredFunction | None = None
    norm_exact: float | None = None

    def __post_init__(self):
        for part in (self.rhs, self.exact):                 # structured parts carry the kernel's wavenumber
            if isinstance(part, StructuredFunction):
                galerkin._check_kappa(self.kernel.kappa, part.kappa)
        if self.norm_exact is not None and not (math.isfinite(self.norm_exact) and self.norm_exact > 0):
            raise ValueError(f"norm_exact must be finite and positive, got {self.norm_exact!r}")

    @property
    def kappa(self) -> float:
        return self.kernel.kappa

    def norm_y(self) -> float:
        if self.norm_exact is not None:
            return self.norm_exact
        if self.exact is None:
            raise ValueError("problem has no exact solution to normalize against")
        vals = np.asarray(self.exact(EN_GRID))
        norm = float(np.sqrt(np.mean(np.abs(vals) ** 2)))
        if not norm > 0:
            raise ValueError("the exact solution is zero, so no error relative to it is defined")
        return norm


def paper_benchmark(kappa: float) -> Problem:
    """The reference benchmark: K(s,t) = 1 with exact solution y(s) = 1 + s^3 e^{i*kappa*s}.

    The right-hand side is the closed-form f = y - Ky, a structured
    function with carriers (+1, -1, 0); its exact L2 norm is
    4*sqrt(7)/7 for every kappa (the oscillatory cross term integrates to
    zero by parity).
    """
    if not (math.isfinite(2.0 * kappa) and kappa > 1.0):   # the load carries e^{2i*kappa}
        raise ValueError(f"wavenumber must exceed 1 and twice it must be finite, got {kappa!r}")
    k = float(kappa)
    u = 1.0 / k                     # powers of 1/k, not of k, so no coefficient overflows
    eik = np.exp(1j * k)
    w_plus = [
        0.25 - 0.375 * u**4 + 1j * eik * u,
        0.75j * u**3,
        0.75 * u**2,
        1.0 - 0.5j * u,
        -0.25,
    ]
    w_minus = [-(np.exp(2j * k) * (-3.0 * u**4 + 6j * u**3 + 6.0 * u**2 - 4j * u) / 8.0 - 1j * eik * u)]
    f = StructuredFunction(k, {1: w_plus, -1: w_minus, 0: [1.0 - 2j * u]})
    y = StructuredFunction(k, {0: [1.0], 1: [0.0, 0.0, 0.0, 1.0]})
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
        try:
            scale = self.kappa ** (self.index - 1)
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError(f"probe g_{self.index} divides by kappa^{self.index - 1}, "
                             f"which leaves the float range at kappa = {self.kappa!r}")

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
        for j in (1, 2, 3):
            g = OscProbeFunction(index=j, kappa=float(kappa))
            ys = g(xs)
            out[i, j - 1] = max_error_on_grid(g, lambda s: np.interp(s, xs, ys), 2049)
    return out


# ---------------------------------------------------------------------------
# Single-run driver
# ---------------------------------------------------------------------------

METHOD_MULTIPLIERS = {
    "cgm": galerkin.CGM_MULTIPLIERS,
    "opgm": galerkin.OPGM_MULTIPLIERS,
}


@dataclass
class GalerkinRun:
    """Outcome of one assemble-and-solve at a given mesh level.

    ``stages`` holds the seconds of each stage of :func:`run_galerkin`:
    load vector (``rhs``), E - K's rows (``matrix``), their blocks (``fold``),
    LAPACK solve (``solve``), e_N (``error``) and condition number
    (``cond``); a stage that did not run reads 0.
    """

    method: str
    kappa: float
    N: int
    spline_order: int
    matrix_order: int
    coeffs: np.ndarray
    space: TrialSpace
    stages: dict[str, float]
    cond: float = float("nan")
    e_N: float = float("nan")

    @property
    def seconds(self) -> float:
        """rhs + matrix + fold + solve: the time to the solution, without e_N and the condition number."""
        return self.stages["rhs"] + self.stages["matrix"] + self.stages["fold"] + self.stages["solve"]

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

    Every input takes the same calls: the load
    (:func:`oscfred.galerkin.assemble_rhs`), E - K's rows from a band and
    generators formed once (:func:`oscfred.galerkin.system_rows`), and
    :func:`oscfred.linalg.solve` on those rows, n and h, which solves each
    block :func:`oscfred.linalg.halves` builds.  On input invariant under
    s -> -s (:func:`oscfred.galerkin.reflection_symmetric`) h = ceil(n/2)
    and the blocks are E - K's even and odd halves, one at a time; any
    other input has h = n and is one n x n block.  A ``method`` other than
    'cgm' or 'opgm' (any case) raises ValueError.

    ``stages`` sums each stage over the blocks, ``matrix`` including the
    rows built while they are folded.  Raises ValueError on a non-finite
    entry and :class:`oscfred.linalg.SingularMatrixError` on an exactly
    singular block, each before the next block is built.
    """
    if not isinstance(method, str) or method.lower() not in METHOD_MULTIPLIERS:
        raise ValueError(f"unknown method {method!r}; expected 'cgm' or 'opgm'")
    method = method.lower()
    splines = galerkin.uniform_plan(N, spline_order).splines
    space = TrialSpace(splines=splines, kappa=problem.kappa, multipliers=METHOD_MULTIPLIERS[method])
    clock = time.perf_counter
    t0 = clock()
    f = galerkin.assemble_rhs(space, problem.rhs)
    t1 = clock()
    rows, h = galerkin.system_rows(space, problem.kernel)
    stages = {"rhs": t1 - t0, "matrix": clock() - t1}
    built = stages["matrix"]

    def timed_rows(lo: int, hi: int) -> np.ndarray:
        t = clock()
        out = rows(lo, hi)
        stages["matrix"] += clock() - t
        return out

    coeffs, cond, seconds = linalg.solve(timed_rows, space.dimension, h, f, compute_cond)
    stages.update(seconds, fold=seconds["fold"] - (stages["matrix"] - built), error=0.0)
    run = GalerkinRun(method=method, kappa=problem.kappa, N=N, spline_order=spline_order,
                      matrix_order=space.dimension, coeffs=coeffs, space=space, stages=stages, cond=cond)
    if problem.exact is not None:
        t0 = clock()
        run.e_N = relative_error_eN(run.evaluate, problem.exact, problem.norm_y())
        stages["error"] = clock() - t0
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


def _no_other_keys(d: dict, keys: tuple[str, ...], where: str) -> None:
    unknown = [k for k in d if k not in keys]
    if unknown:
        raise ValueError(f"problem file: unknown key {where}{unknown[0]}")


def _structured_to_dict(f: StructuredFunction) -> dict:
    return {
        "terms": [
            {"tau": tau, "coeffs": [_coeff_to_json(c) for c in w]}
            for tau, w in f.terms
        ]
    }


def _structured_from_dict(d: dict, kappa: float, where: str) -> StructuredFunction:
    items = _field(d, "terms", f"{where}.")
    _no_other_keys(d, ("terms",), f"{where}.")
    if not isinstance(items, list):
        raise ValueError(f"problem file: {where}.terms must be a list")
    terms = []
    for i, item in enumerate(items):
        at = f"{where}.terms[{i}]."
        coeffs = _field(item, "coeffs", at)
        _no_other_keys(item, ("tau", "coeffs"), at)
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError(f"problem file: {at}coeffs must be a nonempty list")
        tau = _field(item, "tau", at)
        if not isinstance(tau, int) or isinstance(tau, bool):
            raise ValueError(f"problem file: {at}tau must be an integer, got {tau!r}")
        terms.append((tau, [_coeff_from_json(v, f"{at}coeffs") for v in coeffs]))
    return StructuredFunction(kappa, terms)


def problem_to_dict(problem: Problem) -> dict:
    if not isinstance(problem.rhs, StructuredFunction):
        raise ValueError("only problems with structured right-hand sides are serializable")
    if not problem.kernel.is_polynomial:
        raise ValueError("only problems with polynomial kernel factors are serializable")
    C = problem.kernel.coeffs
    return {
        "kappa": problem.kappa,
        "kernel": {"poly_st": [[_coeff_to_json(c) for c in row] for row in C]},
        "rhs": _structured_to_dict(problem.rhs),
        "exact": None if problem.exact is None else _structured_to_dict(problem.exact),
    }


def problem_from_dict(d: dict) -> Problem:
    """Problem from its JSON description; a malformed one raises ValueError naming the field."""
    kappa = _field(d, "kappa", "")
    _no_other_keys(d, ("kappa", "kernel", "rhs", "exact"), "")
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 1.0):
        raise ValueError(f"problem file: kappa must be a finite number above 1, got {kappa!r}")
    spec = _field(d, "kernel", "")
    rows = _field(spec, "poly_st", "kernel.")
    _no_other_keys(spec, ("poly_st",), "kernel.")
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)
            and len({len(r) for r in rows}) == 1):
        raise ValueError("problem file: kernel.poly_st must be a nonempty rectangular list of rows")
    C = [[_coeff_from_json(v, "kernel.poly_st") for v in row] for row in rows]
    kernel = OscKernel.polynomial(C, float(kappa))
    rhs = _structured_from_dict(_field(d, "rhs", ""), kernel.kappa, "rhs")
    exact = None
    if d.get("exact") is not None:
        exact = _structured_from_dict(d["exact"], kernel.kappa, "exact")
        if not exact.terms:
            raise ValueError("problem file: exact is zero, and errors are relative to it; omit it instead")
    return Problem(kernel=kernel, rhs=rhs, exact=exact)
