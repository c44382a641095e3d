"""Tests of benchmark problems, manufactured solutions, and experiments."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from oscfred import galerkin, oscquad, problems
from oscfred.bspline import KnotVector, SplineSpace, make_knots, make_uniform_knots
from oscfred.galerkin import (
    OscKernel,
    Polynomial,
    StructuredFunction,
    TrialSpace,
    assemble_mass,
    assemble_operator,
    assemble_rhs,
    reflection_symmetric,
    system_rows,
)
from oscfred.linalg import SingularMatrixError, cond2, halves, lu_factor
from oscfred.oscquad import oscillatory_quad
from oscfred.problems import (
    OscProbeFunction,
    Problem,
    manufactured,
    paper_benchmark,
    problem_from_dict,
    problem_to_dict,
    run_galerkin,
    table1_experiment,
)


def kernel_apply_quadrature(problem, s):
    """(Ky)(s) for the problem's exact solution, by oscillation-resolving quadrature."""
    kappa = problem.kappa
    y = problem.exact
    kern = problem.kernel
    low = 0.0 if s <= -1.0 else oscillatory_quad(
        lambda t: kern.eval_grid(s, t) * np.exp(1j * kappa * (s - t)) * y(t), -1.0, s, 2 * kappa)
    up = 0.0 if s >= 1.0 else oscillatory_quad(
        lambda t: kern.eval_grid(s, t) * np.exp(1j * kappa * (t - s)) * y(t), s, 1.0, 2 * kappa)
    return low + up


# ---------------------------------------------------------------------------
# reference benchmark
# ---------------------------------------------------------------------------

def test_benchmark_exact_norm_constant():
    # the closed-form norm of y = 1 + s^3 e^{i*kappa*s} is 4/sqrt(7) at every
    # kappa, here at the sweep's wavenumbers, Table 2(d)'s and one more
    for kappa in (*np.geomspace(10.0, 1e4, 8), 5e4, 137.0):
        prob = paper_benchmark(kappa)
        assert prob.norm_y() == pytest.approx(4 * np.sqrt(7) / 7, rel=1e-15, abs=0.0), kappa
    assert prob.norm_y() == pytest.approx(1.51186, rel=1e-5, abs=0)


@pytest.mark.parametrize("kappa", [50.0, 5000.0])
def test_every_problem_takes_one_error_norm(kappa):
    # the paper's y solved as a manufactured problem reads the paper
    # problem's e_N, and e_l2 is the relative L2 error of the solution, here
    # by a composite Gauss rule with 64 panels on each of the 33 cells
    p = paper_benchmark(kappa)
    paper, made = run_galerkin(p, "opgm", 32), run_galerkin(manufactured(p.kernel, p.exact), "opgm", 32)
    assert made.e_N == pytest.approx(paper.e_N, rel=1e-6, abs=0)
    s, w = oscquad._composite_rule(-1.0, 1.0, 33 * 64)
    y = p.exact(s)
    l2 = np.sqrt((w @ np.abs(y - made.evaluate(s)) ** 2) / (w @ np.abs(y) ** 2))
    assert made.e_l2 == pytest.approx(l2, rel=1e-3, abs=0)


def mpmath_norm(y):
    """||y||_L2 on I by mpmath quadrature, one carrier pair w_tau conj(w_sigma) e^{i*w*s} at a time.

    A pair of rate |w| < 40 is integrated on I, split into 1 + floor(|w|)
    pieces; a faster one along the steepest-descent legs s = -1 + u*t and
    s = 1 + u*t, t >= 0, with u = i or -i, the side on which e^{i*w*s}
    decays without oscillating.
    """
    total = mpmath.mpf(0)
    for tau, c in y.terms:
        for sigma, d in y.terms:
            rate = (tau - sigma) * y.kappa
            cc = [mpmath.mpc(complex(v)) for v in c[::-1]]
            dd = [mpmath.mpc(complex(v).conjugate()) for v in d[::-1]]
            g = lambda s: mpmath.polyval(cc, s) * mpmath.polyval(dd, s) * mpmath.expj(rate * s)
            if abs(rate) < 40:
                total += mpmath.quad(g, mpmath.linspace(-1, 1, 2 + int(abs(rate))))
            else:
                up = mpmath.mpc(0, 1 if rate > 0 else -1)
                total += mpmath.quad(lambda t: (g(-1 + up * t) - g(1 + up * t)) * up, [0, mpmath.inf])
    return mpmath.sqrt(mpmath.re(total))


@pytest.mark.parametrize("kappa", [1.5, 50.0, 5e4])
def test_closed_form_norm_matches_mpmath_quadrature(kappa):
    rng = np.random.default_rng(7)
    amps = {tau: (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.arange(1, deg + 2)
            for tau, deg in ((-1, 15), (0, 16), (1, 15))}
    prob = manufactured(OscKernel.polynomial([[1.0]], kappa), StructuredFunction(kappa, amps))
    assert prob.exact.max_degree == 16
    with mpmath.workdps(30):
        ref = mpmath_norm(prob.exact)
    assert abs(prob.norm_y() / ref - 1) <= 1e-13


def test_a_roundoff_negative_norm_is_a_zero_exact_solution(monkeypatch):
    # a sum of moments at or below zero is refused by name before any square
    # root, also under the command line's errstate(invalid="raise")
    prob = paper_benchmark(50.0)
    monkeypatch.setattr(problems, "_unit_moments", lambda w, K: -oscquad._unit_moments(w, K))
    with np.errstate(invalid="raise"), pytest.raises(ValueError, match="exact solution is zero"):
        prob.norm_y()


def test_a_norm_that_overflows_is_refused():
    # a squared norm past the float range, or a rate 2*kappa that overflows
    # (NaN moments), is refused as well, not returned as inf or NaN
    for kappa, terms in ((50.0, {0: [1e200]}), (1e308, {-1: [1.0], 1: [1.0]})):
        prob = Problem(kernel=OscKernel.polynomial([[1.0]], kappa), rhs=lambda s: s,
                       exact=StructuredFunction(kappa, terms))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="norm overflows"):
            prob.norm_y()


def test_benchmark_solution_at_right_endpoint():
    for kappa in (50.0, 777.5):
        prob = paper_benchmark(kappa)
        assert prob.exact(1.0) == pytest.approx(1.0 + np.exp(1j * kappa), abs=1e-15)


def test_benchmark_consistency_residual():
    # f must equal y - Ky; Ky evaluated by the independent reference rule
    prob = paper_benchmark(50.0)
    rng = np.random.default_rng(21)
    worst = 0.0
    for s in rng.uniform(-1.0, 1.0, 64):
        resid = prob.rhs(s) - (prob.exact(s) - kernel_apply_quadrature(prob, float(s)))
        worst = max(worst, abs(resid))
    assert worst <= 1e-9


def test_benchmark_requires_kappa_above_one():
    with pytest.raises(ValueError):
        paper_benchmark(1.0)
    with pytest.raises(ValueError):             # finite, but its load's e^{2i*kappa} is not
        paper_benchmark(1e308)


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------

def test_manufactured_zero_solution():
    kern = OscKernel.polynomial([[1.0]], 5.0)
    y = StructuredFunction(5.0, {0: Polynomial([0.0])})
    prob = manufactured(kern, y)
    assert prob.rhs.terms == ()


def test_manufactured_zero_kernel():
    kern = OscKernel.polynomial([[0.0]], 5.0)
    y = StructuredFunction(5.0, {1: Polynomial([1.0, 2.0]), 0: Polynomial([3.0])})
    prob = manufactured(kern, y)
    s = np.linspace(-1, 1, 17)
    npt.assert_allclose(prob.rhs(s), y(s), atol=1e-15)


@pytest.mark.parametrize("kappa", [50.0, 500.0, 5000.0])
def test_manufactured_matches_printed_benchmark_formula(kappa):
    prob = paper_benchmark(kappa)
    mf = manufactured(prob.kernel, prob.exact)
    s = np.random.default_rng(42).uniform(-1.0, 1.0, 64)
    assert np.max(np.abs(prob.rhs(s) - mf.rhs(s))) <= 1e-10


@pytest.mark.parametrize("kappa", [50.0, 500.0])
def test_manufactured_round_trip_solve(kappa):
    # degree <= 3 structured exact solution recovered on a fine mesh
    kern = OscKernel.polynomial([[1.0]], kappa)
    y = StructuredFunction(kappa, {
        1: Polynomial([0.1, 0.0, 0.0, 0.8]),
        0: Polynomial([1.0, -0.5]),
        -1: Polynomial([0.3j, 0.2]),
    })
    prob = manufactured(kern, y)
    run = run_galerkin(prob, "opgm", 64)
    assert run.e_N <= 1e-4


# ---------------------------------------------------------------------------
# oscillation probes and the interpolation experiment
# ---------------------------------------------------------------------------

def test_probe_amplitude_scaling_exact():
    t = np.linspace(-1, 1, 4001)
    for kappa in (40.0, 640.0):
        for j in (1, 2, 3):
            g = OscProbeFunction(index=j, kappa=kappa)
            # max |g_j - t^2| = kappa^(1-j), attained where |sin| = 1
            dev = np.max(np.abs(g(t) - t**2))
            assert dev == pytest.approx(kappa ** (1 - j), rel=1e-4, abs=0)


def test_probe_validation():
    with pytest.raises(ValueError):
        OscProbeFunction(index=4, kappa=10.0)
    with pytest.raises(ValueError):
        OscProbeFunction(index=1, kappa=-1.0)
    with pytest.raises(ValueError):             # kappa^2 overflows
        OscProbeFunction(index=3, kappa=1e300)


def test_table1_reference_rows():
    errors = table1_experiment([40.0, 640.0])
    npt.assert_allclose(errors[0], [4.89e-4, 1.28e-5, 9.16e-7], rtol=0.05)
    npt.assert_allclose(errors[1], [1.22e-1, 1.92e-4, 9.09e-7], rtol=0.05)


def test_table1_growth_ratios():
    errors = table1_experiment([40.0, 80.0])
    ratios = errors[1] / errors[0]
    assert ratios[0] == pytest.approx(4.0, rel=0.1, abs=0)
    assert ratios[1] == pytest.approx(2.0, rel=0.1, abs=0)
    assert ratios[2] == pytest.approx(1.0, rel=0.05, abs=0)


def test_table1_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        table1_experiment([0.0])


KAPPA_CONSTRUCTORS = {
    "OscKernel": lambda k: OscKernel.polynomial([[1.0]], k),
    "StructuredFunction": lambda k: StructuredFunction(k, {0: Polynomial([1.0])}),
    "TrialSpace": lambda k: TrialSpace.opgm(SplineSpace(make_uniform_knots(4, 2)), k),
    "OscProbeFunction": lambda k: OscProbeFunction(index=1, kappa=k),
    "table1_experiment": lambda k: table1_experiment([k]),
    "paper_benchmark": paper_benchmark,
}


@pytest.mark.parametrize("kappa", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("build", KAPPA_CONSTRUCTORS.values(), ids=KAPPA_CONSTRUCTORS.keys())
def test_rejects_non_finite_kappa(build, kappa):
    with pytest.raises(ValueError, match="finite"):
        build(kappa)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_run_galerkin_bookkeeping():
    prob = paper_benchmark(50.0)
    op = run_galerkin(prob, "opgm", 16)
    cg = run_galerkin(prob, "cgm", 16)
    assert op.matrix_order == 3 * (16 + 2)
    assert cg.matrix_order == 16 + 2
    assert op.e_N > 0 and cg.e_N > 0
    assert op.e_l2 == pytest.approx(np.sqrt(2) * op.e_N)
    assert np.isnan(op.cond)  # not requested
    s = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert op.evaluate(s).shape == (3, 4) and op.evaluate(s)[1, 2] == op.evaluate(s[1, 2])


def test_run_galerkin_times_its_stages():
    run = run_galerkin(paper_benchmark(50.0), "opgm", 16, compute_cond=True)
    assert set(run.stages) == {"rhs", "matrix", "fold", "solve", "error", "cond"}
    assert all(t >= 0.0 for t in run.stages.values())
    assert run.stages["rhs"] + run.stages["matrix"] + run.stages["fold"] + run.stages["solve"] == run.seconds
    assert run_galerkin(paper_benchmark(50.0), "cgm", 16).stages["cond"] == 0.0   # not requested


def smooth_factor(s, t):
    return np.exp(0.3 * s * t) * np.cos(0.5 * (s + t))


def test_reused_mesh_plans_give_the_same_bits():
    # every output of a warm run (mesh plan reused, by other methods,
    # kernels and wavenumbers in between) equals that of a cold run (plan
    # cache cleared); kappa = 3 and 3000 sit on the two sides of the
    # small/large-phase switch of every moment family at N = 15, 16
    kernels = {"paper": [[1.0]], "rank3": [[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]],
               "smooth": smooth_factor}

    def run(m, N, method, name, kappa):
        data = kernels[name]
        kern = OscKernel.smooth(data, kappa) if callable(data) else OscKernel.polynomial(data, kappa)
        p = paper_benchmark(kappa)
        r = run_galerkin(Problem(kernel=kern, rhs=p.rhs, exact=p.exact),
                         method, N, m, compute_cond=True)
        return r.coeffs, r.e_N, r.cond

    configs = [(m, N, method, name, kappa) for m in (1, 2, 3, 4) for N in (15, 16)
               for name in kernels for method in ("cgm", "opgm") for kappa in (3.0, 3e3)]
    cold = {}
    for c in configs:
        galerkin._plan.cache_clear()
        cold[c] = run(*c)
    galerkin._plan.cache_clear()
    for c in configs + configs[::-1]:
        coeffs, e_N, cond = run(*c)
        assert np.array_equal(coeffs, cold[c][0]) and e_N == cold[c][1] and cond == cold[c][2], c


def test_a_kappa_sweep_builds_its_mesh_plan_once(monkeypatch):
    # each run builds a fresh problem; the plan and its multiplier layout
    # are built by the first run alone
    built = []

    class CountingPlan(galerkin.MeshPlan):
        def __init__(self, splines):
            built.append(splines.dimension)
            super().__init__(splines)

    monkeypatch.setattr(galerkin, "MeshPlan", CountingPlan)
    galerkin._plan.cache_clear()
    galerkin._layout.cache_clear()
    for kappa in np.geomspace(10.0, 1e4, 8):
        run_galerkin(paper_benchmark(kappa), "opgm", 24, compute_cond=True)
    layouts = galerkin._layout.cache_info()
    galerkin._plan.cache_clear()
    assert built == [26] and (layouts.misses, layouts.currsize) == (1, 1)


def test_runs_on_one_mesh_share_one_plan():
    # run_galerkin looks the plan up from the uniform knots, so two runs on
    # one (N, m), at other methods and wavenumbers, get the same plan
    for N, m in ((0, 1), (5, 2), (64, 4)):
        galerkin._plan.cache_clear()
        first = run_galerkin(paper_benchmark(50.0), "cgm", N, m)
        second = run_galerkin(paper_benchmark(3e3), "opgm", N, m)
        plan = galerkin.mesh_plan(make_uniform_knots(N, m))
        assert first.space.splines is second.space.splines is plan.splines
        assert galerkin._plan.cache_info().misses == 1
    galerkin._plan.cache_clear()


def test_assembly_cost_is_flat_over_the_kappa_range():
    # kappa = 1.5 puts every moment of opgm N=64 in its Gauss regime and
    # kappa = 1e8 every one past its switch: the median of 5 interleaved
    # runs of rhs + matrix stays within a factor 2 across the range
    kappas = (1.5, 10.0, 1e3, 1e5, 1e8)
    problems = [paper_benchmark(kappa) for kappa in kappas]
    times = [[] for _ in kappas]
    for r in range(6):
        for t, p in zip(times, problems):
            stages = run_galerkin(p, "opgm", 64).stages
            if r:                                   # the first round fills the mesh plan
                t.append(stages["rhs"] + stages["matrix"])
    medians = [float(np.median(t)) for t in times]
    assert max(medians) / min(medians) < 2.0, dict(zip(kappas, medians))


def test_threads_sharing_mesh_plans_get_the_serial_bits():
    # four threads on two cores fill, reuse and evict the same plans (three
    # meshes, two cached at a time) and the shared multiplier layouts, and
    # build each plan's tables (band index, Gram band, e_N values) while
    # switching often.  No lock guards them: a table built twice comes out
    # the same and is read-only, so every result must equal the serial one
    factors = ([[1.0]], [[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]], [[1.0, 0.0, 0.5]])
    jobs = [(method, N, kappa, f) for method in ("cgm", "opgm") for N in (12, 13, 14)
            for kappa in (3.0, 70.0) for f in range(len(factors))]

    def solve(method, N, kappa, f):
        run = run_galerkin(with_kernel(kappa, factors[f]), method, N, compute_cond=True)
        return run.coeffs, run.e_N, run.cond

    serial = {}
    for job in jobs:
        galerkin._plan.cache_clear()
        serial[job] = solve(*job)
    galerkin._plan.cache_clear()
    wrong = []

    def work(offset):
        for job in jobs[offset:] + jobs[:offset]:
            try:
                coeffs, e_N, cond = solve(*job)
            except Exception as exc:  # noqa: BLE001 -- any failure in a thread fails the test
                wrong.append((job, repr(exc)))
                continue
            if not (np.array_equal(coeffs, serial[job][0]) and (e_N, cond) == serial[job][1:]):
                wrong.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong, wrong


@pytest.mark.parametrize("kappa, expected", [(50.0, (1.14e2, 3.72e6, 3.40e11)), (5000.0, None)])
def test_opgm_conditioning_as_kappa_h_shrinks(kappa, expected):
    # cond2 of the enriched system grows like (kappa h)^-8 once kappa h < 2;
    # at kappa = 5000, kappa h >= 38 on every level and cond2 stays below 10
    conds = [run_galerkin(paper_benchmark(kappa), "opgm", N, compute_cond=True).cond
             for N in (16, 64, 256)]
    if expected is None:
        assert max(conds) < 10.0
    else:
        assert all(c / 1.5 <= got <= 1.5 * c for got, c in zip(conds, expected)), conds
        assert conds[0] < conds[1] < conds[2]


def test_solve_path_does_not_import_scipy():
    # a fresh interpreter: scipy is not a runtime dependency, so importing
    # the package and the CLI, a solve with its condition number, solves
    # on a fitted kernel factor and on a callable load, the explicit-matrix
    # solve and cond2, and the CLI's verify command must all leave it unloaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import io, sys\n"
        "import numpy as np\n"
        "import oscfred, oscfred.cli\n"
        "from oscfred import galerkin, linalg\n"
        "problem = oscfred.paper_benchmark(50.0)\n"
        "run = oscfred.run_galerkin(problem, 'opgm', 8, compute_cond=True)\n"
        "assert run.cond > 1 and run.e_N > 0\n"
        "kernel = oscfred.OscKernel.smooth(lambda s, t: np.exp(0.3 * s * t) * np.cos(0.5 * (s + t)), 50.0)\n"
        "fitted = oscfred.run_galerkin(oscfred.Problem(kernel, problem.rhs, problem.exact), 'opgm', 8)\n"
        "assert fitted.e_N < 0.1\n"
        "loaded = oscfred.run_galerkin(oscfred.Problem(problem.kernel, lambda s: np.exp(s) / (2.0 + s)), 'cgm', 8)\n"
        "assert np.all(np.isfinite(loaded.coeffs))\n"
        "space = galerkin.TrialSpace.opgm(oscfred.SplineSpace(oscfred.make_uniform_knots(8, 2)), 50.0)\n"
        "M = galerkin.assemble_mass(space) - galerkin.assemble_operator(space, problem.kernel)\n"
        "b = galerkin.assemble_rhs(space, problem.rhs)\n"
        "x = linalg.lu_solve(linalg.lu_factor(M), b)\n"
        "assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)\n"
        "assert linalg.cond2(M) > 1\n"
        "assert oscfred.cli.run_verify(io.StringIO()) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def with_kernel(kappa, C):
    """The reference benchmark's load and exact solution against kernel factor C."""
    prob = paper_benchmark(kappa)
    return Problem(kernel=OscKernel.polynomial(C, kappa), rhs=prob.rhs, exact=prob.exact)


def by_hand(blocks, f):
    """x and cond2 from gesv and gesdd on each block, with the defining load split and map back."""
    sv = [np.linalg.svd(H, compute_uv=False) for H in blocks]
    cond = max(s[0] for s in sv) / min(s[-1] for s in sv)
    if len(blocks) == 1:
        return np.linalg.solve(blocks[0], f), cond
    n, k, r2 = len(f), len(f) // 2, np.sqrt(2.0)
    top, bottom = f[:k], f[n - k:][::-1]
    even = np.linalg.solve(blocks[0], np.concatenate(((top + bottom) / r2, f[k:n - k])))
    odd = np.linalg.solve(blocks[1], (top - bottom) / r2)
    return np.concatenate(((even[:k] + odd) / r2, even[k:], ((even[:k] - odd) / r2)[::-1])), cond


@pytest.mark.parametrize("kappa", [5.0, 50.0, 5e3, 5e4])
@pytest.mark.parametrize("C", [[[1.0]], [[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]]],
                         ids=["paper", "rank3"])
def test_folded_solve_matches_the_whole_system(C, kappa):
    # both kernels are even, so run_galerkin solves on the two halves;
    # N = 15 and 16 give both parities of the order n.  It builds each
    # half from the leading rows, yet must give bitwise what LAPACK gives
    # on the halves of the whole assembled matrix
    prob = with_kernel(kappa, C)
    eps = np.finfo(float).eps
    for m in (1, 2, 3, 4):
        for method in ("cgm", "opgm"):
            for N in (15, 16):
                run = run_galerkin(prob, method, N, m, compute_cond=True)
                assert reflection_symmetric(run.space, prob.kernel)
                A = assemble_mass(run.space) - assemble_operator(run.space, prob.kernel)
                f = assemble_rhs(run.space, prob.rhs)
                assert np.linalg.norm(A @ run.coeffs - f) <= 1e-13 * np.linalg.norm(f)
                c = cond2(A)
                assert abs(run.cond - c) <= (1e-12 + 4 * eps * c) * c, (m, method, N)
                blocks = [H.copy() for H in halves(*lu_factor(A))]
                assert len(blocks) == 2
                x, c = by_hand(blocks, f)
                assert np.array_equal(run.coeffs, x), (m, method, N)
                assert run.cond == c, (m, method, N)


@pytest.mark.parametrize("method", ["cgm", "opgm"])
@pytest.mark.parametrize("C", [[[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]], [[1.0], [1.0]]],
                         ids=["even", "asymmetric"])
def test_per_half_path_gives_the_square_paths_bits(C, method):
    # run_galerkin builds one block at a time from E - K's band and
    # generators; gesv and gesdd on the blocks halves makes of the rows
    # lu_factor gives of the assembled square E - K must give the same bits.  N = 0..3, 15, 16 and
    # m = 1..4 give odd and even orders n, and n = 1 (cgm, m = 1, N = 0)
    for kappa in (1.5, 20.0, 500.0, 5e4):
        prob = with_kernel(kappa, C)
        for m in (1, 2, 3, 4):
            for N in (0, 1, 2, 3, 15, 16):
                run = run_galerkin(prob, method, N, m, compute_cond=True)
                A = assemble_mass(run.space) - assemble_operator(run.space, prob.kernel)
                blocks = [H.copy() for H in halves(*lu_factor(A))]
                assert len(blocks) == (1 if run.matrix_order == 1 or C == [[1.0], [1.0]] else 2)
                x, c = by_hand(blocks, assemble_rhs(run.space, prob.rhs))
                assert np.array_equal(run.coeffs, x), (kappa, m, N)
                assert run.cond == c, (kappa, m, N)


@pytest.mark.parametrize("method, N", [("opgm", 128), ("cgm", 512)])
def test_two_pass_path_gives_the_square_paths_bits(method, N):
    # n = 390 and 514: the leading ceil(n/2) rows exceed 1 MiB, so each
    # half takes its own pass and the odd half is written over the even
    # one's buffer; the bits are still those of gesv and gesdd on the
    # halves of the assembled square E - K
    prob = paper_benchmark(5e4)
    run = run_galerkin(prob, method, N, compute_cond=True)
    h = run.matrix_order - run.matrix_order // 2
    assert 16 * run.matrix_order * h > 1 << 20
    A = assemble_mass(run.space) - assemble_operator(run.space, prob.kernel)
    blocks = [H.copy() for H in halves(*lu_factor(A))]
    x, c = by_hand(blocks, assemble_rhs(run.space, prob.rhs))
    assert np.array_equal(run.coeffs, x)
    assert run.cond == c


def test_a_bad_half_stops_the_solve_before_the_next_one_is_built(monkeypatch):
    # at opgm N = 128 (n = 390) the leading rows are too many for one
    # chunk, so the even half is built, checked and solved before the odd
    # half asks for a row: a non-finite entry in row 0 raises ValueError
    # after the first request, and a singular even half
    # SingularMatrixError after the even half's rows alone
    real = galerkin.system_rows
    for poison, where, error in ((np.nan, slice(0, 1), ValueError), (0.0, slice(None), SingularMatrixError)):
        calls = []

        def system_rows(space, kernel):
            rows, h = real(space, kernel)

            def poisoned(lo, hi):
                calls.append((lo, hi))
                out = rows(lo, hi)
                out[where] = poison                  # a NaN in row 0, or zeros everywhere
                return out
            return poisoned, h

        monkeypatch.setattr(galerkin, "system_rows", system_rows)
        with pytest.raises(error):
            run_galerkin(paper_benchmark(50.0), "opgm", 128, compute_cond=True)
        assert calls[0][0] == 0 and all(hi == lo for (_, hi), (lo, _) in zip(calls, calls[1:])), calls
        assert len(calls) == 1 if error is ValueError else calls[-1][1] == 195, calls


def test_asymmetric_kernel_runs_the_whole_system_bitwise():
    prob = with_kernel(50.0, [[1.0], [1.0]])   # K = 1 + s
    for method in ("cgm", "opgm"):
        run = run_galerkin(prob, method, 16, compute_cond=True)
        assert not reflection_symmetric(run.space, prob.kernel)
        A = assemble_mass(run.space) - assemble_operator(run.space, prob.kernel)
        rows, h = system_rows(run.space, prob.kernel)
        assert h == len(A) and np.array_equal(rows(0, h), A)   # all n rows
        assert np.array_equal(run.coeffs, np.linalg.solve(A, assemble_rhs(run.space, prob.rhs)))
        assert run.cond == cond2(A)


def test_non_finite_kernel_factor_is_rejected_before_lapack():
    # a NaN or inf coefficient, or a fitted factor sampling to NaN, fails when
    # the kernel is built, with a ValueError naming the factor, not inside
    # the SVD of the operator
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            OscKernel.polynomial([[bad]], 50.0)
    with pytest.raises(ValueError, match="kernel factor must be finite"):
        OscKernel.smooth(lambda s, t: np.nan * s, 50.0)


def test_non_finite_right_hand_side_is_rejected_by_name():
    # a callable load sampling to NaN fails in its fit, naming the
    # right-hand side, not later in the solver's vector check
    prob = paper_benchmark(50.0)
    for bad in (lambda s: np.nan * s, lambda s: np.where(s > 0.5, np.inf, 1.0)):
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            run_galerkin(Problem(kernel=prob.kernel, rhs=bad, exact=prob.exact), "opgm", 8)


def test_unresolved_fits_name_their_degree_and_tail_bound():
    # exp(-(s - t)^2) is smooth and non-oscillatory, yet its degree-16 fit
    # leaves a tail above 1e-10: the message names the fit, not oscillation
    with pytest.raises(ValueError, match=r"degree-16 tensor Chebyshev fit.*1e-10"):
        OscKernel.smooth(lambda s, t: np.exp(-(s - t) ** 2), 5.0)
    prob = paper_benchmark(50.0)
    with pytest.raises(ValueError, match=r"degree-12 Chebyshev fit per cell.*1e-10.*structured form"):
        run_galerkin(Problem(kernel=prob.kernel, rhs=lambda s: np.exp(300j * s), exact=prob.exact), "opgm", 8)


def test_a_kernel_degree_past_the_gauss_rules_is_refused_at_every_wavenumber():
    # a degree-59 factor was refused at kappa = 50 (a 165-node rule) and
    # solved at kappa = 5e3 and above; a degree-199 load at rate 0 takes
    # the exact zero-rate moments, so cgm solves it at every kappa
    for kappa in (50.0, 5e3, 5e4):
        wide = Problem(OscKernel.polynomial([[1.0] * 60], kappa), StructuredFunction(kappa, {0: [1.0]}))
        for method in ("cgm", "opgm"):
            with pytest.raises(ValueError, match="moment degree 121 is above 109"):
                run_galerkin(wide, method, 16)
        high = Problem(OscKernel.polynomial([[1.0]], kappa), StructuredFunction(kappa, {0: [1.0] * 200}))
        assert np.all(np.isfinite(run_galerkin(high, "cgm", 16).coeffs))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_reflection_symmetry_truth_table(m):
    mirror, skew = SplineSpace(make_knots([-0.6, 0.0, 0.6], m)), SplineSpace(make_knots([-0.6, 0.1, 0.6], m))
    even = OscKernel.polynomial([[1.0, 0.0, 0.5], [0.0, 0.25, 0.0]], 50.0)
    smooth_even = OscKernel.smooth(lambda s, t: np.cos(s - t) + s * t, 50.0)
    odd = OscKernel.polynomial([[0.0], [1.0]], 50.0)            # K = s
    mixed = OscKernel.polynomial([[1.0, 1e-300]], 50.0)         # K = 1 + 1e-300 t
    cases = [
        (mirror, (-1, 0, 1), even, True),
        (mirror, (0,), even, True),
        (mirror, (1, 0, -1), even, True),
        (mirror, (-1, 0, 1), smooth_even, True),
        (mirror, (-1, 0, 1), odd, False),
        (mirror, (0,), mixed, False),
        (skew, (-1, 0, 1), even, False),
        (mirror, (-1, 1, 0), even, False),
        (mirror, (0, 1), even, False),
    ]
    for sp, mults, kern, expected in cases:
        assert reflection_symmetric(TrialSpace(sp, 50.0, mults), kern) is expected, (mults, expected)
    # a mesh of [-1, 2] is no longer a mesh of I at all; the skew mesh covers "not mirrored"
    with pytest.raises(ValueError, match="clamped at -1 and 1"):
        KnotVector(m, np.r_[[-1.0] * m, -0.6, 0.0, 0.6, [2.0] * m])


@pytest.mark.parametrize("method, N, bound", [("opgm", 128, 0.8), ("cgm", 512, 0.8)])
def test_run_galerkin_holds_the_system_matrix_once(method, N, bound):
    # peak traced allocation in units of one n x n complex matrix: on
    # symmetric data one half of E - K is held at a time (0.25), and a
    # chunk of its rows (at most 0.125), the mesh's tables and the
    # transients come on top; LAPACK's copy of the half is not traced
    prob = paper_benchmark(5e4)
    run_galerkin(prob, method, 8, compute_cond=True)  # fill the caches first
    tracemalloc.start()
    try:
        run = run_galerkin(prob, method, N, compute_cond=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16.0 * run.matrix_order**2) <= bound


def test_run_galerkin_peak_on_a_fitted_kernel():
    # a fitted 17 x 17 kernel factor has rank 17, so its cell tables, not
    # E - K, set the peak: 4.49 n x n copies at cgm N = 512 without mesh
    # plans.  The plan, built inside the trace, must not raise it, and what
    # it keeps once the run is over must stay a small share of E - K
    prob = paper_benchmark(5e4)
    prob = Problem(kernel=OscKernel.smooth(smooth_factor, 5e4), rhs=prob.rhs, exact=prob.exact)
    run_galerkin(prob, "cgm", 8, compute_cond=True)  # fill the caches first
    galerkin._plan.cache_clear()
    tracemalloc.start()
    try:
        run = run_galerkin(prob, "cgm", 512, compute_cond=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 16.0 * run.matrix_order**2
    assert peak / size <= 4.5 and kept / size <= 0.25


def test_run_galerkin_method_validation():
    # a name that is not a string is unknown too, not an AttributeError
    for method in ("nystrom", "foo", None, 3):
        with pytest.raises(ValueError, match="unknown method"):
            run_galerkin(paper_benchmark(50.0), method, 8)


def test_run_galerkin_higher_orders():
    # the enriched method converges at the spline order; with order 4 the
    # benchmark's cubic amplitudes lie exactly in the trial space
    prob = paper_benchmark(500.0)
    e8 = run_galerkin(prob, "opgm", 8, spline_order=3).e_N
    e16 = run_galerkin(prob, "opgm", 16, spline_order=3).e_N
    assert 2.5 <= np.log2(e8 / e16) <= 3.3
    assert run_galerkin(prob, "opgm", 8, spline_order=4).e_N <= 1e-12


# ---------------------------------------------------------------------------
# JSON problem descriptions
# ---------------------------------------------------------------------------

def test_problem_json_round_trip():
    prob = paper_benchmark(123.0)
    d = problem_to_dict(prob)
    back = problem_from_dict(d)
    s = np.linspace(-1, 1, 13)
    npt.assert_allclose(back.rhs(s), prob.rhs(s), atol=1e-15)
    npt.assert_allclose(back.exact(s), prob.exact(s), atol=1e-15)
    npt.assert_array_equal(back.kernel.coeffs, prob.kernel.coeffs)
    assert back.kappa == prob.kappa


def test_problem_json_refuses_what_it_cannot_write():
    prob = paper_benchmark(20.0)
    with pytest.raises(ValueError, match="structured"):
        problem_to_dict(type(prob)(kernel=prob.kernel, rhs=lambda t: t))
    with pytest.raises(ValueError, match="polynomial"):
        problem_to_dict(type(prob)(kernel=OscKernel.smooth(lambda s, t: np.exp(s * t), 20.0), rhs=prob.rhs))


def test_a_zero_exact_solution_is_refused():
    # errors are relative to the exact solution, so a zero one is refused by
    # name when a file is read, and norm_y says why for a Problem built in code
    d = problem_to_dict(paper_benchmark(20.0))
    for terms in ([], [{"tau": 0, "coeffs": [0.0]}]):
        d["exact"] = {"terms": terms}
        with pytest.raises(ValueError, match="exact is zero"):
            problem_from_dict(d)
    prob = Problem(kernel=OscKernel.polynomial([[1.0]], 20.0), rhs=paper_benchmark(20.0).rhs,
                   exact=StructuredFunction(20.0, {0: [0.0]}))
    for call in (prob.norm_y, lambda: run_galerkin(prob, "cgm", 8)):
        with pytest.raises(ValueError, match="exact solution is zero"):
            call()


def test_problem_parts_must_share_the_kernels_wavenumber():
    # a load or exact solution built at another wavenumber, or an exact
    # solution that is not structured, fails when the Problem is made
    p50, p60 = paper_benchmark(50.0), paper_benchmark(60.0)
    for rhs, exact in ((p50.rhs, p60.exact), (p60.rhs, p50.exact)):
        with pytest.raises(ValueError, match="wavenumber mismatch: 50.0 against 60.0"):
            Problem(kernel=p50.kernel, rhs=rhs, exact=exact)
    for exact in (lambda s: s, 2.0, [p50.exact]):
        with pytest.raises(ValueError, match="exact must be a StructuredFunction or None"):
            Problem(kernel=p50.kernel, rhs=p50.rhs, exact=exact)
    ok = Problem(kernel=p50.kernel, rhs=lambda s: s, exact=p50.exact)  # a callable load has no wavenumber
    assert ok.norm_y() == p50.norm_y()


def test_run_galerkin_refuses_a_non_integral_mesh_or_order():
    prob = paper_benchmark(50.0)
    for N, m, name in ((4.5, 2, "N"), (True, 2, "N"), (4, 2.0, "spline order"), (4, True, "spline order")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_galerkin(prob, "opgm", N, m)
    run = run_galerkin(prob, "opgm", np.int64(4), np.int64(2))
    assert run.matrix_order == 18 and run.e_N == run_galerkin(prob, "opgm", 4).e_N


def test_problem_json_without_exact():
    kern = OscKernel.polynomial([[1.0]], 20.0)
    f = StructuredFunction(20.0, {0: Polynomial([1.0])})
    d = problem_to_dict(type(paper_benchmark(20.0))(kernel=kern, rhs=f))
    assert d["exact"] is None
    back = problem_from_dict(d)
    assert back.exact is None
    with pytest.raises(ValueError):
        back.norm_y()
