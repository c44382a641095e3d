"""Timed and traced solves, passes over a workload, and the metrics.

An untraced solve is one ``run_galerkin`` call timed from outside.  A
traced solve makes the same public calls ``run_galerkin`` makes, in the
same order, each inside a span; spans of one solve share its id and are
kept in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from oscfred import galerkin, linalg
from oscfred.bspline import SplineSpace, make_uniform_knots
from oscfred.problems import run_galerkin

from workloads import Row, build_problem

MULTIPLIERS = {"cgm": galerkin.CGM_MULTIPLIERS, "opgm": galerkin.OPGM_MULTIPLIERS}
LAYERS = ("problems.build", "bspline.space", "galerkin.mass", "galerkin.operator",
          "galerkin.rhs", "linalg.factor", "linalg.solve", "galerkin.eval", "linalg.cond")


class Tracer:
    """Spans ``(solve_id, name, parent, start_ns, end_ns)`` held in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, int, int]] = []

    @contextmanager
    def span(self, solve_id: int, name: str, parent: str | None = "solve"):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((solve_id, name, parent, t0, time.perf_counter_ns()))


def _failed(row: Row, exc: Exception) -> dict:
    return {**row.as_dict(), "error": f"{type(exc).__name__}: {exc}"}


def timed_solve(row: Row) -> dict:
    t0 = time.perf_counter()
    try:
        run = run_galerkin(build_problem(row), row.method, row.N, row.m, compute_cond=True)
    except Exception as exc:  # a failed solve is counted, the pass goes on
        return _failed(row, exc)
    seconds = time.perf_counter() - t0
    return {**row.as_dict(), "seconds": seconds, "lib_seconds": run.seconds,
            "e_N": run.e_N, "cond": run.cond}


def traced_solve(row: Row, tracer: Tracer, sid: int) -> dict:
    span = tracer.span
    t0 = time.perf_counter()
    try:
        with span(sid, "solve", None):
            with span(sid, "problems.build"):
                problem = build_problem(row)
            with span(sid, "bspline.space"):
                splines = SplineSpace(make_uniform_knots(row.N, row.m))
                space = galerkin.TrialSpace(splines=splines, kappa=problem.kappa,
                                            multipliers=MULTIPLIERS[row.method])
            with span(sid, "galerkin.mass"):
                mass = galerkin.assemble_mass(space)
            with span(sid, "galerkin.operator"):
                operator = galerkin.assemble_operator(space, problem.kernel)
            with span(sid, "galerkin.rhs"):
                load = galerkin.assemble_rhs(space, problem.rhs)
            system = galerkin.DiscreteSystem(space=space, mass=mass, operator=operator, load=load)
            with span(sid, "linalg.factor"):
                fact = linalg.lu_factor(system.matrix)
            with span(sid, "linalg.solve"):
                coeffs = linalg.lu_solve(fact, system.load)
            with span(sid, "galerkin.eval"):
                e_N = galerkin.relative_error_eN(
                    lambda s: galerkin.eval_solution(space, coeffs, s), problem.exact, problem.norm_y())
            with span(sid, "linalg.cond"):
                cond = linalg.cond2(system.matrix)
    except Exception as exc:  # a failed solve is counted, the pass goes on
        return _failed(row, exc)
    seconds = time.perf_counter() - t0
    residual = float(np.linalg.norm(system.matrix @ coeffs - load) / np.linalg.norm(load))
    layers = {name: 0.0 for name in LAYERS}
    for s_id, name, _, start, end in tracer.spans:
        if s_id == sid and name in layers:
            layers[name] += (end - start) * 1e-9
    return {**row.as_dict(), "seconds": seconds, "e_N": e_N, "cond": cond,
            "residual": residual, "cells": splines.knots.num_cells, "layers": layers}


def run_pass(rows: list[Row], tracer: Tracer | None = None, first_id: int = 0) -> dict:
    t0 = time.perf_counter()
    if tracer is None:
        results = [timed_solve(r) for r in rows]
    else:
        results = [traced_solve(r, tracer, first_id + i) for i, r in enumerate(rows)]
    return {"traced": tracer is not None, "wall_s": time.perf_counter() - t0, "rows": results}


def run_passes(rows: list[Row], seconds: float, trace: bool) -> tuple[list[dict], Tracer | None]:
    """Passes until the next would end after ``seconds``; traced ones alternate with untraced.

    At least one pass runs, and with ``trace`` at least one of each kind.
    """
    tracer = Tracer() if trace else None
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(rows, tracer if traced else None, len(passes) * len(rows)))
        estimate = _median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and time.perf_counter() + estimate > deadline:
            return passes, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def _row_medians(passes: list[dict]) -> dict[tuple, float]:
    """Median time of each row over the passes, keyed by (method, N, m, kappa)."""
    times: dict[tuple, list[float]] = {}
    for p in passes:
        for r in p["rows"]:
            if "seconds" in r:
                times.setdefault((r["method"], r["N"], r["m"], r["kappa"]), []).append(r["seconds"])
    return {key: _median(t) for key, t in times.items()}


def kappa_cost_ratio(row_medians: dict[tuple, float]) -> float:
    """Slowest over fastest row among rows of one (method, N, m), largest over groups.

    Rows of one group differ only in kappa, so a kappa-independent solver
    reads 1.  Only the sweep has more than one kappa per group; every other
    workload reads exactly 1.
    """
    groups: dict[tuple, list[float]] = {}
    for (method, N, m, _), t in row_medians.items():
        groups.setdefault((method, N, m), []).append(t)
    return max(max(t) / min(t) for t in groups.values())


def end_to_end(passes: list[dict], setup_s: list[float], peak_rss_mb: float) -> dict:
    """Pass wall time is a median over passes; per-row times are medians over passes first."""
    row_medians = _row_medians(passes)
    return {
        "wall_s": (_median(p["wall_s"] for p in passes), "s"),
        "max_solve_s": (max(row_medians.values()), "s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "kappa_cost_ratio": (kappa_cost_ratio(row_medians), "ratio"),
    }


def _pass_layers(p: dict) -> dict:
    ok = [r for r in p["rows"] if "layers" in r]
    sec = {name: sum(r["layers"][name] for r in ok) for name in LAYERS}
    n = [r["order"] for r in ok]
    cell_blocks = sum(r["cells"] * r["blocks"] ** 2 for r in ok)
    lu_gflop = sum(8.0 / 3.0 * k**3 for k in n) / 1e9
    return {
        "bspline.space_s": sec["bspline.space"],
        "bspline.cells": float(sum(r["cells"] for r in ok)),
        "problems.build_s": sec["problems.build"],
        "galerkin.operator_s": sec["galerkin.operator"],
        "galerkin.mass_s": sec["galerkin.mass"],
        "galerkin.rhs_s": sec["galerkin.rhs"],
        "galerkin.eval_s": sec["galerkin.eval"],
        "galerkin.entries": float(sum(k * k for k in n)),
        "galerkin.operator_us_per_cell": sec["galerkin.operator"] * 1e6 / cell_blocks,
        "linalg.factor_s": sec["linalg.factor"],
        "linalg.solve_s": sec["linalg.solve"],
        "linalg.cond_s": sec["linalg.cond"],
        "linalg.lu_gflop": lu_gflop,
        "linalg.factor_gflops": lu_gflop / sec["linalg.factor"],
        "linalg.matrix_mb": sum(16.0 * k * k for k in n) / 1e6,
    }


LAYER_UNITS = {
    "bspline.space_s": "s", "bspline.cells": "count", "problems.build_s": "s",
    "galerkin.operator_s": "s", "galerkin.mass_s": "s", "galerkin.rhs_s": "s",
    "galerkin.eval_s": "s", "galerkin.entries": "count", "galerkin.operator_us_per_cell": "us",
    "linalg.factor_s": "s", "linalg.solve_s": "s", "linalg.cond_s": "s",
    "linalg.lu_gflop": "Gflop", "linalg.factor_gflops": "Gflop/s", "linalg.matrix_mb": "MB",
    "trace.overhead_s": "s",
}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    each = [_pass_layers(p) for p in traced]
    out = {name: (_median(e[name] for e in each), LAYER_UNITS[name]) for name in each[0]}
    overhead = _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in untraced)
    out["trace.overhead_s"] = (overhead, "s")
    return out
