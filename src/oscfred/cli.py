"""Batch experiment runner: the ``oscfred`` command.

Subcommands
-----------
convergence   error/order tables over doubling mesh levels (fixed kappa)
sweep         error and condition number over a kappa grid (fixed mesh)
table1        linear-interpolation oscillation experiment
verify        closed-form assembly self-test against quadrature oracles

Output is CSV (default) or JSON with one row per run:
``method,kappa,N,order,error,co,cond,seconds``.  ``order`` is the order
of the coefficient matrix (3*(N+m) for the enriched method, N+m for the
conventional one), ``error`` the sampled relative error e_N, ``co`` the
convergence order against the previous level (empty on the first).
Numbers carry six significant digits and are deterministic across runs;
only the ``seconds`` column varies.

Exit codes: 0 success, 1 failed verification, 2 invalid configuration,
3 at least one singular discrete system (remaining rows still run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import galerkin, linalg
from .bspline import SplineSpace, make_uniform_knots
from .galerkin import OscKernel, TrialSpace
from .problems import (
    Problem,
    manufactured,
    paper_benchmark,
    problem_from_dict,
    run_galerkin,
    table1_experiment,
)

__all__ = ["RunRecord", "build_parser", "main", "run_verify"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SINGULAR = 3

_DEFAULT_TABLE1_KAPPAS = (40.0, 80.0, 160.0, 320.0, 640.0)
_SWEEP_DEFAULT_POINTS = 40
_SWEEP_DEFAULT_RANGE = (10.0, 1e4)
# default mesh levels: matrix orders 198 (enriched) and 258 (conventional) at m=2
_SWEEP_DEFAULT_N = {"opgm": 64, "cgm": 256}
_BASE_N = {"opgm": 16, "cgm": 64}


def _check(args: argparse.Namespace) -> None:
    """Reject what the parser cannot, with a one-line ValueError."""
    solves = args.command != "table1"
    if solves and args.order < 1:
        raise ValueError("spline order must be >= 1")
    if args.command == "convergence":
        if not args.kappa and args.problem_path is None:
            raise ValueError("convergence requires at least one --kappa (or a --problem file)")
        if args.n_levels < 2:
            raise ValueError("convergence needs at least two mesh levels")
    if not all(math.isfinite(k) for k in args.kappa):
        raise ValueError("wavenumbers must be finite")
    if solves and any(k <= 1.0 for k in args.kappa):
        raise ValueError("wavenumbers must exceed 1")
    if args.command == "sweep" and args.problem_path is not None:
        raise ValueError("sweep runs the built-in benchmark and does not take --problem")
    if args.command == "convergence" and args.problem_path is not None and args.kappa:
        raise ValueError("convergence takes its wavenumber from --problem, not --kappa")


def _methods(args: argparse.Namespace) -> tuple[str, ...]:
    return ("cgm", "opgm") if args.method == "both" else (args.method,)


@dataclass
class RunRecord:
    method: str
    kappa: float
    N: int
    order: int
    error: float = float("nan")
    co: float = float("nan")
    cond: float = float("nan")
    seconds: float = float("nan")
    singular: bool = False

    def as_row(self) -> list[str]:
        return [
            self.method,
            _fmt(self.kappa),
            str(self.N),
            str(self.order),
            _fmt(self.error),
            _fmt(self.co),
            _fmt(self.cond),
            _fmt(self.seconds),
        ]


def _fmt(x: float) -> str:
    if x != x:  # nan: blank field (first-level co, missing exact solution)
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def _load_file_problem(args: argparse.Namespace) -> Problem | None:
    if args.problem_path is None:
        return None
    with open(args.problem_path) as fh:
        return problem_from_dict(json.load(fh))


def _single_run(m: int, method: str, kappa: float, N: int, problem: Problem | None = None) -> RunRecord:
    blocks = 3 if method == "opgm" else 1
    record = RunRecord(method=method, kappa=kappa, N=N, order=blocks * (N + m))
    try:
        if problem is None:
            problem = paper_benchmark(kappa)
        run = run_galerkin(problem, method, N, m, compute_cond=True)
    except linalg.SingularMatrixError:
        record.singular = True
        record.cond = float("inf")
        return record
    record.error = run.e_N
    record.cond = run.cond
    record.seconds = run.seconds
    return record


def cmd_convergence(args: argparse.Namespace) -> tuple[list[RunRecord], int]:
    # a problem file fixes the equation (and its wavenumber) for every level
    file_problem = _load_file_problem(args)
    kappas = (file_problem.kappa,) if file_problem is not None else args.kappa
    records = []
    for kappa in kappas:
        for method in _methods(args):
            last = None  # convergence order against the previous level
            for level in range(args.n_levels):
                rec = _single_run(args.order, method, kappa, _BASE_N[method] * 2**level, file_problem)
                if last is not None and last > 0 and rec.error > 0:
                    rec.co = galerkin.convergence_order(last, rec.error)
                last = rec.error
                records.append(rec)
    code = EXIT_SINGULAR if any(r.singular for r in records) else EXIT_OK
    return records, code


def cmd_sweep(args: argparse.Namespace) -> tuple[list[RunRecord], int]:
    kappas = args.kappa
    if not kappas:
        lo, hi = _SWEEP_DEFAULT_RANGE
        kappas = tuple(np.geomspace(lo, hi, _SWEEP_DEFAULT_POINTS))
    records = [_single_run(args.order, method, float(kappa), _SWEEP_DEFAULT_N[method])
               for method in _methods(args) for kappa in kappas]
    code = EXIT_SINGULAR if any(r.singular for r in records) else EXIT_OK
    return records, code


def cmd_table1(args: argparse.Namespace) -> list[dict]:
    kappas = args.kappa or _DEFAULT_TABLE1_KAPPAS
    errors = table1_experiment(list(kappas))
    return [
        {"kappa": float(k), "g1": float(e[0]), "g2": float(e[1]), "g3": float(e[2])}
        for k, e in zip(kappas, errors)
    ]


# ---------------------------------------------------------------------------
# verify: closed-form assembly against the quadrature oracles
# ---------------------------------------------------------------------------

def run_verify(out=None) -> int:
    """Compare every assembled entry of a small system with brute-force quadrature."""
    out = sys.stdout if out is None else out
    kappa = 5.0
    sp = SplineSpace(make_uniform_knots(3, 2))
    space = TrialSpace.opgm(sp, kappa)
    kernel = OscKernel.polynomial([[1.0]], kappa)
    problem = paper_benchmark(50.0)

    def check(label: str, diffs) -> bool:
        # np.max propagates NaN, so a non-finite difference fails the bound
        worst = float(np.max(np.abs(diffs)))
        passed = worst <= 1e-10
        print(f"{label} max |diff| = {worst:.3e} [{'ok' if passed else 'FAIL'}]", file=out)
        return passed

    n = space.dimension
    E = galerkin.assemble_mass(space)
    ok = check("mass entries vs quadrature oracle:",
               [E[r, c] - galerkin.mass_entry_quadrature(space, r, c) for r in range(n) for c in range(n)])

    K = galerkin.assemble_operator(space, kernel)
    ok &= check("operator entries vs quadrature oracle:",
                [K[r, c] - galerkin.operator_entry_quadrature(space, kernel, r, c)
                 for r in range(n) for c in range(n)])

    f_bench = paper_benchmark(kappa).rhs
    F = galerkin.assemble_rhs(space, f_bench)
    ok &= check("load entries vs quadrature oracle:",
                [F[r] - galerkin.rhs_entry_quadrature(space, f_bench, r) for r in range(n)])

    mf = manufactured(problem.kernel, problem.exact)
    s = np.random.default_rng(2024).uniform(-1.0, 1.0, 64)
    ok &= check("closed-form f vs benchmark formula: ", problem.rhs(s) - mf.rhs(s))

    print("verify:", "all checks passed" if ok else "FAILURES detected", file=out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_RUN_HEADER = ["method", "kappa", "N", "order", "error", "co", "cond", "seconds"]


def _emit_runs(records: list[RunRecord], args: argparse.Namespace) -> None:
    if args.fmt == "csv":
        lines = [",".join(_RUN_HEADER)]
        lines += [",".join(r.as_row()) for r in records]
        text = "\n".join(lines) + "\n"
    else:
        payload = []
        for r in records:
            payload.append({
                "method": r.method,
                "kappa": r.kappa,
                "N": r.N,
                "order": r.order,
                "error": None if r.error != r.error else r.error,
                "co": None if r.co != r.co else r.co,
                "cond": None if r.cond != r.cond else ("inf" if math.isinf(r.cond) else r.cond),
                "seconds": None if r.seconds != r.seconds else r.seconds,
            })
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, args.out)


def _emit_table1(rows: list[dict], args: argparse.Namespace) -> None:
    if args.fmt == "csv":
        lines = ["kappa,g1,g2,g3"]
        lines += [f"{_fmt(r['kappa'])},{_fmt(r['g1'])},{_fmt(r['g2'])},{_fmt(r['g3'])}" for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    _write(text, args.out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscfred",
        description="Benchmark runner for oscillatory Fredholm solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_method: bool = True) -> None:
        p.add_argument("--kappa", action="append", type=float, default=[],
                       help="wavenumber (repeatable)")
        if with_method:
            p.add_argument("--method", choices=["cgm", "opgm", "both"], default="both")
            p.add_argument("--order", type=int, default=2, help="spline order m (default 2)")
            p.add_argument("--problem", dest="problem_path", default=None,
                           help="JSON problem description (defaults to the built-in benchmark)")
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    p = sub.add_parser("convergence", help="error/order table over doubling mesh levels")
    common(p)
    p.add_argument("--n-levels", type=int, default=6, help="number of mesh levels (default 6)")

    p = sub.add_parser("sweep", help="error and condition number over a kappa grid")
    common(p)

    p = sub.add_parser("table1", help="linear-interpolation oscillation experiment")
    common(p, with_method=False)

    sub.add_parser("verify", help="assembly self-test against quadrature oracles")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return run_verify()
    try:
        _check(args)
        if args.command == "convergence":
            records, code = cmd_convergence(args)
            _emit_runs(records, args)
            return code
        if args.command == "sweep":
            records, code = cmd_sweep(args)
            _emit_runs(records, args)
            return code
        if args.command == "table1":
            _emit_table1(cmd_table1(args), args)
            return EXIT_OK
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
