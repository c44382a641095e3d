"""Batch experiment runner: the ``oscfred`` command.

Subcommands
-----------
convergence   error/order tables over doubling mesh levels (fixed kappa)
sweep         error and condition number over a kappa grid (fixed mesh)
table1        linear-interpolation oscillation experiment
verify        closed-form assembly self-test against quadrature oracles

Output is CSV (default) or JSON with one row per run:
``method,kappa,N,order,error,co,cond,seconds``.  ``order`` is the order
of the coefficient matrix (len(METHOD_MULTIPLIERS[method])*(N+m): 3*(N+m)
for the enriched method, N+m for the conventional one), ``error`` the
sampled relative error e_N against the exact ||y||_L2, ``co`` the
convergence order against the previous level (blank on the first).  A
singular discrete system gives a row with blank ``error``, ``co`` and
``seconds`` and ``cond`` = inf, and the next level's ``co`` is blank.
CSV numbers carry six significant digits; JSON carries them in full, a
blank field as ``null`` and an infinite one as the string ``"inf"``.
Everything but the ``seconds`` column is deterministic across runs.

Exit codes: 0 success, 1 failed verification, 2 invalid configuration
(a command line the parser refuses included; one line on stderr), 3 at
least one singular discrete system (remaining rows still run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import galerkin, linalg
from .bspline import SplineSpace, make_uniform_knots
from .galerkin import OscKernel, TrialSpace
from .problems import (
    METHOD_MULTIPLIERS,
    Problem,
    manufactured,
    paper_benchmark,
    problem_from_dict,
    run_galerkin,
    table1_experiment,
)

__all__ = ["build_parser", "main", "run_verify"]

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
    return tuple(METHOD_MULTIPLIERS) if args.method == "both" else (args.method,)


def _load_file_problem(args: argparse.Namespace) -> Problem | None:
    if args.problem_path is None:
        return None
    with open(args.problem_path) as fh:
        return problem_from_dict(json.load(fh))


def _single_run(m: int, method: str, kappa: float, N: int, problem: Problem | None = None) -> dict:
    """One row of ``_RUN_HEADER``; a singular system leaves error, co and seconds NaN and cond inf."""
    nan = float("nan")
    row = {"method": method, "kappa": kappa, "N": N, "order": len(METHOD_MULTIPLIERS[method]) * (N + m),
           "error": nan, "co": nan, "cond": float("inf"), "seconds": nan}
    try:
        run = run_galerkin(paper_benchmark(kappa) if problem is None else problem, method, N, m,
                           compute_cond=True)
    except linalg.SingularMatrixError:
        return row
    row.update(error=run.e_N, cond=run.cond, seconds=run.seconds)
    return row


def _runs_code(rows: list[dict]) -> int:
    # only a singular system leaves a row without its solve time
    return EXIT_SINGULAR if any(r["seconds"] != r["seconds"] for r in rows) else EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> tuple[list[dict], int]:
    # a problem file fixes the equation (and its wavenumber) for every level
    file_problem = _load_file_problem(args)
    kappas = (file_problem.kappa,) if file_problem is not None else args.kappa
    rows = []
    for kappa in kappas:
        for method in _methods(args):
            last = float("nan")  # error of the previous level: no order against NaN
            for level in range(args.n_levels):
                row = _single_run(args.order, method, kappa, _BASE_N[method] * 2**level, file_problem)
                if last > 0 and row["error"] > 0:
                    row["co"] = galerkin.convergence_order(last, row["error"])
                last = row["error"]
                rows.append(row)
    return rows, _runs_code(rows)


def cmd_sweep(args: argparse.Namespace) -> tuple[list[dict], int]:
    kappas = args.kappa
    if not kappas:
        lo, hi = _SWEEP_DEFAULT_RANGE
        kappas = tuple(np.geomspace(lo, hi, _SWEEP_DEFAULT_POINTS))
    rows = [_single_run(args.order, method, float(kappa), _SWEEP_DEFAULT_N[method])
            for method in _methods(args) for kappa in kappas]
    return rows, _runs_code(rows)


def cmd_table1(args: argparse.Namespace) -> tuple[list[dict], int]:
    kappas = args.kappa or _DEFAULT_TABLE1_KAPPAS
    errors = table1_experiment(list(kappas))
    rows = [{"kappa": float(k), "g1": float(e[0]), "g2": float(e[1]), "g3": float(e[2])}
            for k, e in zip(kappas, errors)]
    return rows, EXIT_OK


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

def _fmt(x) -> str:
    """CSV cell: a float to six significant digits, NaN as a blank field."""
    if not isinstance(x, float):
        return str(x)
    return "" if x != x else f"{x:.6g}"


def _json_value(x):
    """JSON value: a non-finite float as its CSV cell, so NaN -> null and inf -> "inf"."""
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x) or None
    return x


def _emit(rows: list[dict], header: tuple[str, ...], args: argparse.Namespace) -> None:
    if args.fmt == "csv":
        lines = [",".join(header), *(",".join(_fmt(row[k]) for k in header) for row in rows)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{k: _json_value(row[k]) for k in header} for row in rows], indent=2) + "\n"
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):                   # a bad command line is bad input: one line, exit code 2
        self.exit(EXIT_BAD_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oscfred",
        description="Benchmark runner for oscillatory Fredholm solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_method: bool = True) -> None:
        p.add_argument("--kappa", action="append", type=float, default=[],
                       help="wavenumber (repeatable)")
        if with_method:
            p.add_argument("--method", choices=[*METHOD_MULTIPLIERS, "both"], default="both")
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


_RUN_HEADER = ("method", "kappa", "N", "order", "error", "co", "cond", "seconds")
_COMMANDS = {
    "convergence": (cmd_convergence, _RUN_HEADER),
    "sweep": (cmd_sweep, _RUN_HEADER),
    "table1": (cmd_table1, ("kappa", "g1", "g2", "g3")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return run_verify()
    command, header = _COMMANDS[args.command]
    try:
        # an overflow or NaN in the numerics is bad input too: raise it, rather than warn and go on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _check(args)
            rows, code = command(args)
            _emit(rows, header, args)
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        # json.JSONDecodeError is a ValueError; MemoryError: an array too large for the host (a large --order)
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
