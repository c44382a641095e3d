"""Tests of trial spaces, system assembly, solve, and error metrics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from oscfred.bspline import SplineSpace, gram_matrix, make_knots, make_uniform_knots
from oscfred.galerkin import (
    EN_GRID,
    DiscreteSystem,
    OscKernel,
    Polynomial,
    StructuredFunction,
    TrialSpace,
    apply_kernel_structured,
    assemble_mass,
    assemble_operator,
    assemble_rhs,
    convergence_order,
    eval_solution,
    mass_entry_quadrature,
    operator_entry_quadrature,
    relative_error_eN,
    rhs_entry_quadrature,
    system_rows,
)
from oscfred import galerkin, oscquad
from oscfred.linalg import lu_factor, lu_solve
from oscfred.oscquad import oscillatory_quad


def spaces(N, m, kappa):
    sp = SplineSpace(make_uniform_knots(N, m))
    return TrialSpace.cgm(sp, kappa), TrialSpace.opgm(sp, kappa)


def assembled(space, kernel, f):
    return DiscreteSystem(space=space, mass=assemble_mass(space), operator=assemble_operator(space, kernel),
                          load=assemble_rhs(space, f))


def solved(system):
    return lu_solve(lu_factor(system.matrix), system.load)


# Meshes that steer the closed-form moments through their branches, beside
# each oracle test's original m = 2 case: at kappa*h/2 ~ 0.15 every shared-cell
# triangle takes the collapsed Gauss rule; orders 3 and 4 take it with more
# pieces per cell; the non-uniform mesh has six cell widths, one of them
# (kappa*h/2 = 0.3) small-phase beside large-phase ones.  The operator test's
# m = 2 case takes both boundary expansions of the triangles as well, and
# test_triangle_moments_match_collapsed_gauss_reference sweeps every switch.
REGIME_MESHES = [
    pytest.param(make_uniform_knots(32, 2), 5.0, id="m2-small-phase"),
    pytest.param(make_uniform_knots(5, 3), 6.0, id="m3"),
    pytest.param(make_knots([-0.7, -0.35, 0.1, 0.2, 0.6], 4), 6.0, id="m4-nonuniform"),
]


def sampled_entries(space, count, seed):
    """Random (row, col) pairs, half of them on the band where basis functions share a cell."""
    rng = np.random.default_rng(seed)
    d, m, nb = space.block_dim, space.splines.order, len(space.multipliers)
    out = []
    for k in range(count):
        if k % 2:
            out.append(tuple(int(v) for v in rng.integers(0, space.dimension, 2)))
            continue
        j = int(rng.integers(0, d))
        l = int(np.clip(j + rng.integers(1 - m, m), 0, d - 1))
        out.append((int(rng.integers(nb)) * d + j, int(rng.integers(nb)) * d + l))
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_structured_function_evaluation_and_algebra():
    f = StructuredFunction(10.0, {0: Polynomial([1.0]), 1: Polynomial([0.0, 2.0])})
    assert repr(f) == "StructuredFunction(kappa=10.0, carriers=[0, 1])"
    s = np.linspace(-1, 1, 11)
    npt.assert_allclose(f(s), 1.0 + 2.0 * s * np.exp(10j * s), atol=1e-15)
    g = f - f
    assert g.terms == ()
    both = f + f
    npt.assert_allclose(both(0.3), 2 * f(0.3))


def test_structured_function_carrier_range():
    # a carrier index is an integer in [-2, 2]: neither truncated (1.5 would read
    # e^{i*kappa*s}) nor taken from a bool
    for tau in (3, 1.5, True):
        with pytest.raises(ValueError):
            StructuredFunction(5.0, {tau: Polynomial([1.0])})


def test_structured_function_kappa_mismatch():
    f = StructuredFunction(5.0, {0: Polynomial([1.0])})
    g = StructuredFunction(6.0, {0: Polynomial([1.0])})
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(TypeError):
        f + 1.0


def test_amplitudes_are_trimmed_read_only_arrays():
    coeffs = np.array([1.0, 2.0, 0.0, 0.0])
    f = StructuredFunction(5.0, {0: coeffs, 1: [3.0]})
    (_, w0), (_, w1) = f.terms
    assert w0.dtype == complex and np.array_equal(w0, [1.0, 2.0]) and np.array_equal(w1, [3.0])
    assert f.max_degree == 1
    with pytest.raises(ValueError):
        w0[0] = 7.0
    coeffs[0] = 7.0                                         # the stored amplitude is a copy
    assert w0[0] == 1.0
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            StructuredFunction(5.0, {0: bad})


@pytest.mark.parametrize("amp", [[np.nan], [1.0, np.inf], [1.0, complex(0.0, np.nan)],
                                 Polynomial([np.nan]), np.polynomial.Chebyshev([1.0, -np.inf])],
                         ids=["nan", "inf", "complex-nan", "polynomial", "chebyshev"])
def test_non_finite_amplitudes_are_refused(amp):
    # as a load a NaN reached linalg, and as the exact solution it read as "zero"
    with pytest.raises(ValueError, match="amplitude coefficients must be finite"):
        StructuredFunction(50.0, {0: amp})


def test_repeated_carriers_are_summed_and_zero_amplitudes_dropped():
    p, q = [1.0, 1.0], [0.0, 0.0, 1.0]
    f = StructuredFunction(5.0, [(0, p), (1, [0.5]), (0, q)])
    assert [t for t, _ in f.terms] == [0, 1]
    assert np.array_equal(f.terms[0][1], [1.0, 1.0, 1.0])
    s = np.linspace(-1, 1, 7)
    npt.assert_allclose(f(s), 1.0 + s + s**2 + 0.5 * np.exp(5j * s), rtol=0, atol=1e-15)
    assert StructuredFunction(5.0, [(0, p), (0, [-1.0, -1.0]), (2, [0.0, 0.0])]).terms == ()
    assert (f + (-f)).terms == ()


def test_amplitude_evaluation_matches_numpy_polyval():
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, 32)
    for deg in (0, 3, 17, 30):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        ref = np.polynomial.polynomial.polyval(t, c)
        assert np.array_equal(StructuredFunction(5.0, {0: c})(t), ref)
        assert np.array_equal(StructuredFunction(5.0, {-1: c})(t), ref * np.exp(-5j * t))


@pytest.mark.parametrize("series, power", [
    (np.polynomial.Polynomial([1.0, 2.0], domain=[0.0, 1.0]), [-1.0, 4.0]),
    (np.polynomial.Polynomial([0.5, 0.0, -2.0j, 0.0]), [0.5, 0.0, -2.0j]),
    (np.polynomial.Chebyshev([1.0, 2.0, 3.0]), [-2.0, 2.0, 6.0]),
], ids=["shifted-domain", "polynomial", "chebyshev"])
def test_numpy_series_amplitudes_evaluate_to_their_own_values(series, power):
    s = np.linspace(-1, 1, 13)
    f = StructuredFunction(5.0, {0: series, 1: series})
    npt.assert_allclose(f.terms[0][1], power, rtol=0, atol=1e-15)
    npt.assert_allclose(f(s), series(s) * (1.0 + np.exp(5j * s)), rtol=1e-14, atol=1e-14)


def test_kernel_validation():
    with pytest.raises(ValueError):
        OscKernel.polynomial([[1.0]], kappa=0.5)  # wavenumber must exceed 1
    with pytest.raises(ValueError):
        OscKernel(kappa=5.0)  # neither polynomial nor callable
    with pytest.raises(ValueError, match="2-d"):
        OscKernel.polynomial(np.ones((2, 2, 2)), kappa=5.0)
    for empty in (np.ones((0, 2)), np.zeros((0, 0)), []):   # once solved as K = 0
        with pytest.raises(ValueError, match="nonempty"):
            OscKernel.polynomial(empty, kappa=5.0)
    k = OscKernel.polynomial([[1.0, 2.0]], kappa=5.0)
    assert k.is_polynomial
    assert k.eval_grid(0.5, 0.25) == pytest.approx(1.5)


def test_kernel_is_an_immutable_value():
    # coeffs is a read-only private copy, fixed when the kernel is built
    # (fitted at once for a callable): mutating the caller's matrix
    # afterwards leaves the kernel, and what it assembles, unchanged
    C = np.array([[1.0, 0.5], [0.25, 0.0]], dtype=complex)
    kern = OscKernel.polynomial(C, 50.0)
    _, opgm = spaces(4, 2, 50.0)
    K = assemble_operator(opgm, kern)
    assert not np.shares_memory(kern.coeffs, C)
    C[...] = 0.0
    assert np.array_equal(kern.coeffs, [[1.0, 0.5], [0.25, 0.0]])
    assert np.array_equal(assemble_operator(opgm, kern), K)
    fitted = OscKernel.smooth(lambda s, t: np.exp(0.3 * s * t), 50.0)
    assert not fitted.is_polynomial
    for k in (kern, fitted):
        with pytest.raises(ValueError, match="read-only"):
            k.coeffs[0, 0] = 2.0


def test_kernels_and_structured_functions_refuse_assignment_and_deletion():
    # as the frozen dataclasses do: no field of either value can be swapped
    # for another after construction
    kern = OscKernel.polynomial([[1.0, 0.5]], 50.0)
    f = StructuredFunction(50.0, {0: [1.0], 1: [0.0, 2.0]})
    for obj, field, value in ((kern, "coeffs", np.zeros((1, 1))), (kern, "kappa", 60.0), (kern, "func", abs),
                              (f, "kappa", 60.0), (f, "terms", ()), (f, "scale", 2.0)):
        for change in (lambda: setattr(obj, field, value), lambda: delattr(obj, field)):
            with pytest.raises(AttributeError, match=f"cannot assign or delete field '{field}'"):
                change()
    assert kern.kappa == f.kappa == 50.0 and np.array_equal(kern.coeffs, [[1.0, 0.5]]) and kern.is_polynomial
    assert [t for t, _ in f.terms] == [0, 1]


def test_trial_space_dimensions():
    cgm, opgm = spaces(16, 2, 50.0)
    assert cgm.dimension == 18
    assert opgm.dimension == 54
    assert opgm.multipliers == (-1, 0, 1)


def test_trial_space_keeps_its_multipliers_as_a_tuple_of_ints():
    # the tuple keys the cached layout of the multiplier set
    sp = SplineSpace(make_uniform_knots(3, 2))
    space = TrialSpace(sp, 5.0, np.array([-1, 0, 1]))
    assert space.multipliers == (-1, 0, 1) and all(type(e) is int for e in space.multipliers)
    for bad in ((), (1, 1), (0.5,), (1.0,), (float("inf"),), ("a",), (True, False), (True,)):
        with pytest.raises(ValueError, match="distinct integers"):
            TrialSpace(sp, 5.0, bad)
    # (0, 10**30) made an object layout and (0, 2**63) a uint64 one, whose 1 - eps wraps
    for bad in ((0, 10**30), (0, 2**63), (-2**62, 0, 2**62 - 1)):
        with pytest.raises(ValueError, match=r"multiplier -?\d+ is out of range"):
            TrialSpace(sp, 5.0, bad)


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------

def test_mass_cgm_is_gram():
    cgm, _ = spaces(6, 2, 30.0)
    E = assemble_mass(cgm)
    npt.assert_allclose(E.real, gram_matrix(cgm.splines), atol=1e-15)
    npt.assert_allclose(E.imag, 0.0, atol=1e-16)


def test_mass_opgm_diagonal_blocks_are_gram():
    _, opgm = spaces(5, 2, 40.0)
    d = opgm.splines.dimension
    E = assemble_mass(opgm)
    G = gram_matrix(opgm.splines)
    for p in range(3):
        npt.assert_allclose(E[p * d:(p + 1) * d, p * d:(p + 1) * d].real, G, atol=1e-15)


def test_mass_exactly_hermitian():
    _, opgm = spaces(7, 3, 25.0)
    E = assemble_mass(opgm)
    assert np.max(np.abs(E - E.conj().T)) == 0.0


def test_mass_offdiagonal_blocks_decay_with_kappa():
    # Riemann-Lebesgue: cross-carrier inner products vanish as kappa grows
    sp = SplineSpace(make_uniform_knots(16, 2))
    d = sp.dimension
    sizes = []
    for kappa in (1e2, 1e3, 1e4):
        E = assemble_mass(TrialSpace.opgm(sp, kappa))
        sizes.append(np.max(np.abs(E[:d, d:2 * d])))
    assert sizes[0] > sizes[1] > sizes[2]


@pytest.mark.parametrize(
    "knots, kappa", [pytest.param(make_uniform_knots(3, 2), 5.0, id="m2"), *REGIME_MESHES])
def test_mass_vs_quadrature_oracle(knots, kappa):
    opgm = TrialSpace.opgm(SplineSpace(knots), kappa)
    E = assemble_mass(opgm)
    for r, c in sampled_entries(opgm, 20, seed=8):
        assert abs(E[r, c] - mass_entry_quadrature(opgm, r, c)) <= 1e-12


# ---------------------------------------------------------------------------
# system matrix
# ---------------------------------------------------------------------------

MATRIX_KERNELS = {
    "paper": [[1.0]],
    "rank3": [[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]],
    "smooth": lambda s, t: np.exp(0.3 * s * t) * np.cos(0.5 * (s + t)),
}


@pytest.mark.parametrize("mesh", ["uniform", "nonuniform"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kappa", [5.0, 50.0, 5e3, 5e4])
def test_assemble_matrix_is_mass_minus_operator_exactly(kappa, m, mesh):
    # the rows of E - K are built from the band and the generators as
    # (-K) + E, which IEEE makes equal to E - K; both mirror the odd
    # middle row alike, so every entry of the leading rows agrees, built
    # in one call or three rows at a time
    knots = make_uniform_knots(16, m) if mesh == "uniform" else make_knots([-0.7, -0.35, 0.1, 0.2, 0.6], m)
    sp = SplineSpace(knots)
    for space in (TrialSpace.cgm(sp, kappa), TrialSpace.opgm(sp, kappa)):
        n = space.dimension
        for name, data in MATRIX_KERNELS.items():
            kern = OscKernel.smooth(data, kappa) if callable(data) else OscKernel.polynomial(data, kappa)
            rows, h = system_rows(space, kern)
            assert h in (n, n - n // 2), name
            A = (assemble_mass(space) - assemble_operator(space, kern))[:h]
            assert np.array_equal(rows(0, h), A), name
            assert np.array_equal(np.concatenate([rows(lo, min(lo + 3, h)) for lo in range(0, h, 3)]), A), name


def collapsed_gauss_reference(ls, lt, A, B):
    """mu[a, b] of oscquad._triangle_moments by a composite 20-point Gauss rule in (u, y).

    With v = -1 + (u + 1)(y + 1)/2 the triangle -1 <= v <= u <= 1 is the
    square; each axis takes at least 60 + 2(|ls| + |lt|) nodes.
    """
    panels = math.ceil((60 + 2 * (abs(ls) + abs(lt))) / 20)
    x, w = np.polynomial.legendre.leggauss(20)
    x = ((x + np.arange(1 - panels, panels, 2)[:, None]) / panels).ravel()
    w = np.tile(w / panels, panels)
    v = -1 + np.outer(x + 1, x + 1) / 2
    f = np.outer((x + 1) / 2, w) * np.exp(1j * lt * v)
    inner = np.empty((len(x), B), dtype=complex)       # [u, b] = int_{-1}^{u} v^b e^{i*lt*v} dv
    for b in range(B):
        inner[:, b] = f.sum(axis=1)
        f *= v
    return ((w * np.exp(1j * ls * x))[:, None] * x[:, None] ** np.arange(A)).T @ inner


@pytest.mark.parametrize("A, B", [(1, 1), (2, 2), (3, 5), (6, 3), (10, 10), (20, 20)])
def test_triangle_moments_match_collapsed_gauss_reference(A, B):
    # phases on both sides of each switch at T = max(1, max(A, B) - 1): lt = 0,
    # ls = 0, |ls| = |lt|, both signs, and |ls| >> |lt| (the reflected expansion)
    T = max(1.0, max(A, B) - 1.0)
    grid = T * np.array([0.0, 0.25, 0.999, 1.0, 1.5])
    grid = np.concatenate([-grid[:0:-1], grid])
    ls, lt = (a.ravel() for a in np.meshgrid(grid, grid))
    ls = np.append(ls, T * np.array([10.0, -10.0, 0.3]))
    lt = np.append(lt, T * np.array([0.0, 0.3, -10.0]))
    mu = oscquad._triangle_moments(ls, lt, A, B)
    scale = 2.0 / (np.add.outer(np.arange(A), np.arange(B)) + 1)
    for e in range(len(ls)):
        err = np.abs(mu[e] - collapsed_gauss_reference(ls[e], lt[e], A, B)) / scale
        assert np.max(err) <= 1e-12, (ls[e], lt[e])
        assert np.array_equal(mu[e], oscquad._triangle_moments(ls[e:e + 1], lt[e:e + 1], A, B)[0])


@pytest.mark.parametrize("A, B", [(1, 1), (2, 2), (3, 5), (6, 3), (10, 10), (20, 20)])
def test_triangle_moments_at_zero_phases_are_the_exact_limit(A, B):
    # ls = lt = 0 takes mu[a, b] = (Z[a+b+1] + (-1)^b Z[a]) / (b+1), Z[k] = int x^k,
    # alone or in a batch of either regime; checked against exact fractions
    # and against the collapsed Gauss reference, whose own roundoff at
    # A = B = 20 reaches 1.0e-14 of the scale
    Z = [Fraction(2, k + 1) if k % 2 == 0 else Fraction(0) for k in range(A + B)]
    exact = np.array([[float((Z[a + b + 1] + (-1) ** b * Z[a]) / (b + 1)) for b in range(B)] for a in range(A)])
    ref = collapsed_gauss_reference(0.0, 0.0, A, B)
    scale = 2.0 / (np.add.outer(np.arange(A), np.arange(B)) + 1)
    T = max(1.0, max(A, B) - 1.0)
    for ls, lt in (([0.0], [0.0]), ([0.5 * T, 0.0, 0.0], [0.0, 0.0, -0.0]), ([3.0 * T, 0.0], [T, 0.0])):
        mu = oscquad._triangle_moments(np.array(ls), np.array(lt), A, B)[-1]
        assert np.max(np.abs(mu - exact) / scale) <= 1e-15
        assert max(A, B) > 10 or np.max(np.abs(mu - ref) / scale) <= 1e-14


@pytest.mark.parametrize("D", [1, 2, 5, 20])
def test_sigma_rule_tables_are_read_only(D):
    rule = oscquad._sigma_rule(D)
    assert rule is oscquad._sigma_rule(D)
    assert not any(t.flags.writeable for t in rule)


def band_reference(pairs):
    """galerkin._band by its defining sum, entry by entry: pairs[b, x, a, c, ...] onto diagonal x - x0 + b - a."""
    m, nx, nc = pairs.shape[0], pairs.shape[1], pairs.shape[3]
    band = np.zeros(pairs.shape[4:] + (2 * m - 1, nc + m - 1), dtype=complex)
    for b, x, a, c in np.ndindex(m, nx, m, nc):
        o = x - (nx - 1) // 2 + b - a
        if abs(o) < m:
            band[..., m - 1 + o, c + a] += pairs[b, x, a, c]
    return band


def test_band_adds_in_place_on_contiguous_slices():
    # the band of an opgm N=256-sized pairs array costs its own bytes and
    # those of its [x + b, a, c, q, p] work array, with no copied operands
    rng = np.random.default_rng(3)
    small = rng.standard_normal((3, 9, 3, 4, 2, 2)) + 1j * rng.standard_normal((3, 9, 3, 4, 2, 2))
    npt.assert_allclose(galerkin._band(small), band_reference(small), rtol=0, atol=1e-13)
    m, nx, nc, nb = 2, 5, 257, 3
    pairs = rng.standard_normal((m, nx, m, nc, nb, nb)) + 0j
    tracemalloc.start()
    try:
        band = galerkin._band(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = 16 * (nx + m - 1) * m * nc * nb * nb
    assert band.shape == (nb, nb, 2 * m - 1, nc + m - 1)
    assert peak <= 1.01 * (band.nbytes + work)


def is_centrosymmetric(A):
    return np.array_equal(A, A[::-1, ::-1])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mirrored_data_assemble_exactly_centrosymmetric(m):
    # the mass band is averaged with its mirror image and the operator's
    # trailing rows copied from its leading ones; the copies must match
    # the oracle, so the mirroring stays a roundoff-level change
    kappa = 6.0
    even = OscKernel.polynomial([[1.0, 0.0, 0.5], [0.0, 0.25, 0.0]], kappa)
    odd = OscKernel.polynomial([[1.0], [1.0]], kappa)           # K = 1 + s
    for space in spaces(5, m, kappa):
        K = assemble_operator(space, even)
        assert is_centrosymmetric(assemble_mass(space)) and is_centrosymmetric(K)
        assert is_centrosymmetric(assemble_mass(space) - K)
        assert not is_centrosymmetric(assemble_mass(space) - assemble_operator(space, odd))
        n = space.dimension
        for r, c in [(n - 1, n - 1), (n - 1, 0), (n - 2, n - 1 - m), (n // 2 + 1, 1)]:
            assert abs(K[r, c] - operator_entry_quadrature(space, even, r, c)) <= 1e-10, (r, c)
    skew = TrialSpace.opgm(SplineSpace(make_knots([-0.6, 0.1, 0.6], m)), kappa)
    assert not is_centrosymmetric(assemble_mass(skew))


def test_cells_merge_widths_within_4_ulp_of_their_groups_least_width():
    ulp = np.spacing(1.0)
    for N in range(0, 65):
        for m in (1, 2, 3, 4):
            assert len(galerkin._cells(SplineSpace(make_uniform_knots(N, m)))[2]) == 1, (N, m)
    # half-widths stepping by about 3 ulp over 64 cells: merging each width
    # into its predecessor's group would chain across all of them
    n = 64
    h = 2.0 / n + 6 * ulp * (np.arange(n) - (n - 1) / 2)
    z = -1.0 + np.cumsum(h)[:-1]
    _, h2, widths, group, _ = galerkin._cells(SplineSpace(make_knots(z, 2)))
    assert np.max(np.abs(widths[group] - h2)) <= 4 * ulp
    assert len(widths) > 1


def test_mesh_plan_reuse_gives_the_same_bits_on_a_nonuniform_mesh():
    # a plan built by one (space, kernel) serves the next: assembly and the
    # e_N evaluation agree bitwise whether the mesh's plan is fresh or not
    from oscfred.problems import paper_benchmark
    knots = make_knots([-0.7, -0.35, 0.1, 0.2, 0.6], 3)

    def outputs(kappa, method, name):
        space = getattr(TrialSpace, method)(SplineSpace(knots), kappa)
        data = MATRIX_KERNELS[name]
        kern = OscKernel.smooth(data, kappa) if callable(data) else OscKernel.polynomial(data, kappa)
        rhs = paper_benchmark(kappa).rhs
        A, f = assemble_mass(space) - assemble_operator(space, kern), assemble_rhs(space, rhs)
        return A, f, eval_solution(space, np.linalg.solve(A, f), EN_GRID)

    configs = [(kappa, method, name) for kappa in (3.0, 5e3) for method in ("cgm", "opgm")
               for name in MATRIX_KERNELS]
    cold = {}
    for c in configs:
        galerkin._plan.cache_clear()
        cold[c] = outputs(*c)
    for c in configs[::-1] + configs:
        assert all(np.array_equal(x, y) for x, y in zip(outputs(*c), cold[c])), c


def test_mesh_plans_are_complete_when_built():
    # every table but the plain method's mass band is built with the plan,
    # before any solve asks for it
    galerkin._plan.cache_clear()
    plan = galerkin.mesh_plan(make_knots([-0.6, -0.2, 0.2, 0.6], 3))
    assert {"en_values", "pair_index", "upper", "band_index"} <= vars(plan).keys()
    assert "gram" not in vars(plan)


def test_mesh_plans_and_layouts_hold_only_read_only_arrays():
    # plans, kernels and layouts are shared by every solve and every thread
    # without a lock, which is safe because nothing reachable from them can be written
    from oscfred.problems import paper_benchmark
    knots = make_knots([-0.6, -0.2, 0.2, 0.6], 3)
    kern = paper_benchmark(50.0).kernel
    fitted = OscKernel.smooth(MATRIX_KERNELS["smooth"], 50.0)
    for method in ("cgm", "opgm"):
        space = getattr(TrialSpace, method)(SplineSpace(knots), 50.0)
        rows, h = system_rows(space, kern)
        rows(0, h)
        assemble_mass(space)
        eval_solution(space, assemble_rhs(space, paper_benchmark(50.0).rhs), EN_GRID)
    plan = galerkin.mesh_plan(knots)
    assert {"en_values", "pair_index", "upper", "band_index", "gram"} <= vars(plan).keys()
    arrays, seen = [], set()

    def walk(x):
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif type(x).__module__.startswith("oscfred"):
            fields = vars(x) if hasattr(x, "__dict__") else {s: getattr(x, s) for s in type(x).__slots__}
            for y in fields.values():
                walk(y)

    for obj in (plan, kern, fitted, galerkin._layout(galerkin.CGM_MULTIPLIERS),
                galerkin._layout(galerkin.OPGM_MULTIPLIERS)):
        walk(obj)
    assert len(arrays) > 20
    assert any(a is kern.factors for a in arrays) and any(a is fitted.factors for a in arrays)
    assert not [a.shape for a in arrays if a.flags.writeable]


@pytest.mark.parametrize("method, N", [("cgm", 512), ("opgm", 128)])
def test_assemble_operator_peak_memory(method, N):
    # peak traced allocation in units of the n x n result: the generators
    # are written straight into it, so only O(n) tables come on top
    kern = OscKernel.polynomial([[1.0]], 5e4)
    space = lambda n: getattr(TrialSpace, method)(SplineSpace(make_uniform_knots(n, 2)), 5e4)
    assemble_operator(space(8), kern)  # fill the caches first
    big = space(N)
    tracemalloc.start()
    try:
        A = assemble_operator(big, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / A.nbytes <= 1.25


# ---------------------------------------------------------------------------
# operator matrix
# ---------------------------------------------------------------------------

def test_operator_zero_kernel():
    cgm, opgm = spaces(4, 2, 5.0)
    assert not np.any(assemble_operator(cgm, OscKernel.polynomial([[0.0]], 5.0)))
    assert not np.any(assemble_operator(opgm, OscKernel.polynomial([[0.0]], 5.0)))


def test_operator_kappa_mismatch_rejected():
    cgm, _ = spaces(4, 2, 5.0)
    with pytest.raises(ValueError):
        assemble_operator(cgm, OscKernel.polynomial([[1.0]], 6.0))


def test_operator_entries_match_oracle_cgm():
    kappa = 5.0
    cgm, _ = spaces(4, 2, kappa)
    kern = OscKernel.polynomial([[1.0]], kappa)
    K = assemble_operator(cgm, kern)
    for r in range(cgm.dimension):
        for c in range(cgm.dimension):
            assert abs(K[r, c] - operator_entry_quadrature(cgm, kern, r, c)) <= 1e-10


POLY_32 = [[0.5, -0.25], [1.0, 0.0], [0.0, 0.75]]


ORACLE_MESHES = [pytest.param(make_uniform_knots(3, 2), 7.0, id="m2"), *REGIME_MESHES]


# the 3 x 2 factor and its transpose: the shared cells pad the t degree up to the s degree, then the other way
@pytest.mark.parametrize("knots, kappa, coeffs", [pytest.param(*p.values, POLY_32, id=p.id) for p in ORACLE_MESHES]
                         + [pytest.param(*p.values, np.transpose(POLY_32), id=f"{p.id}-transposed")
                            for p in ORACLE_MESHES])
def test_operator_entries_match_oracle_polynomial_kernel(knots, kappa, coeffs):
    opgm = TrialSpace.opgm(SplineSpace(knots), kappa)
    kern = OscKernel.polynomial(coeffs, kappa)
    K = assemble_operator(opgm, kern)
    for r, c in sampled_entries(opgm, 30, seed=11):
        assert abs(K[r, c] - operator_entry_quadrature(opgm, kern, r, c)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kappa", [1.5, 75.0, 5e4])
def test_operator_is_linear_in_a_factor_near_overflow(kappa, m):
    # the factor reaches -2e308 at s = t = -1, yet no entry does: assembly
    # forms no sum of its coefficients and contracts the shared cells at a
    # power-of-two scale, so K(C) = 1e308 K(C / 1e308) to roundoff
    C = np.array([[1e308, 1e308], [1e308, -1e308]])
    for space in spaces(8, m, kappa):
        K = assemble_operator(space, OscKernel.polynomial(C, kappa))
        ref = 1e308 * assemble_operator(space, OscKernel.polynomial(C / 1e308, kappa))
        assert np.all(np.isfinite(K))
        assert np.max(np.abs(K - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_operator_rejects_a_factor_whose_singular_value_overflows():
    # the kernel takes its SVD factors when it is built, so the factor is refused there, before any assembly
    with pytest.raises(ValueError, match="singular value"):
        OscKernel.polynomial([[1e308, 1e308], [1e308, 1e308]], 75.0)


def test_operator_smooth_kernel_path():
    kappa = 9.0
    cgm, _ = spaces(3, 2, kappa)
    kern = OscKernel.smooth(lambda s, t: np.exp(0.4 * s * t) / (2.5 + 0.5 * s - 0.3 * t), kappa)
    K = assemble_operator(cgm, kern)
    rng = np.random.default_rng(13)
    for _ in range(10):
        r, c = (int(v) for v in rng.integers(0, cgm.dimension, 2))
        assert abs(K[r, c] - operator_entry_quadrature(cgm, kern, r, c, density=30.0)) <= 1e-9


def test_operator_rejects_unresolved_smooth_kernel():
    # a kernel oscillating on the kappa scale cannot be treated as smooth:
    # its fit is refused when the kernel is built
    kappa = 40.0
    with pytest.raises(ValueError, match="not resolved"):
        OscKernel.smooth(lambda s, t: np.cos(kappa * (s - t)), kappa)


def test_assembly_deterministic():
    kappa = 30.0
    _, opgm = spaces(5, 2, kappa)
    kern = OscKernel.polynomial([[1.0]], kappa)
    K1 = assemble_operator(opgm, kern)
    K2 = assemble_operator(opgm, kern)
    npt.assert_array_equal(K1, K2)


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------

def test_rhs_constant_gives_hat_areas():
    kappa = 12.0
    cgm, _ = spaces(6, 2, kappa)
    f = StructuredFunction(kappa, {0: Polynomial([1.0])})
    F = assemble_rhs(cgm, f)
    h = cgm.splines.knots.h
    npt.assert_allclose(F[1:-1].real, h, rtol=1e-13)
    npt.assert_allclose(F[[0, -1]].real, h / 2, rtol=1e-13)
    npt.assert_allclose(F.imag, 0.0, atol=1e-16)


def test_rhs_carrier_cancellation():
    # f = e^{i kappa t} against the matching block has no oscillation left
    kappa = 35.0
    _, opgm = spaces(5, 2, kappa)
    f = StructuredFunction(kappa, {1: Polynomial([1.0])})
    F = assemble_rhs(opgm, f)
    d = opgm.splines.dimension
    block_plus = F[2 * d: 3 * d]  # multiplier order (-1, 0, +1)
    h = opgm.splines.knots.h
    npt.assert_allclose(block_plus[1:-1].real, h, rtol=1e-13)
    npt.assert_allclose(block_plus.imag, 0.0, atol=1e-15)


def test_rhs_of_no_terms_is_zero_and_a_non_callable_load_is_rejected():
    _, opgm = spaces(5, 2, 35.0)
    F = assemble_rhs(opgm, StructuredFunction(35.0, {0: [0.0]}))
    assert F.shape == (opgm.dimension,) and not np.any(F)
    with pytest.raises(TypeError, match="callable"):
        assemble_rhs(opgm, 1.0)


@pytest.mark.parametrize(
    "knots, kappa", [pytest.param(make_uniform_knots(16, 2), 50.0, id="m2"), *REGIME_MESHES])
def test_rhs_vs_oracle_structured(knots, kappa):
    from oscfred.problems import paper_benchmark
    f = paper_benchmark(kappa).rhs
    opgm = TrialSpace.opgm(SplineSpace(knots), kappa)
    F = assemble_rhs(opgm, f)
    for r in range(0, opgm.dimension, 7):
        assert abs(F[r] - rhs_entry_quadrature(opgm, f, r)) <= 1e-9


def test_rhs_smooth_callable_path():
    kappa = 20.0
    cgm, opgm = spaces(4, 2, kappa)
    g = lambda t: np.exp(t) / (2.0 + t)
    for space in (cgm, opgm):
        F = assemble_rhs(space, g)
        for r in range(0, space.dimension, 5):
            assert abs(F[r] - rhs_entry_quadrature(space, g, r)) <= 1e-9


def test_rhs_rejects_oscillatory_callable():
    kappa = 200.0
    cgm, _ = spaces(4, 2, kappa)
    with pytest.raises(ValueError):
        assemble_rhs(cgm, lambda t: np.sin(kappa * t))


# ---------------------------------------------------------------------------
# solve and evaluate
# ---------------------------------------------------------------------------

def test_solve_zero_kernel_is_projection():
    # with K = 0 the Galerkin solution is the orthogonal projection of f
    kappa = 15.0
    cgm, _ = spaces(8, 2, kappa)
    f = StructuredFunction(kappa, {0: Polynomial([0.5, 1.0, -0.25])})
    system = assembled(cgm, OscKernel.polynomial([[0.0]], kappa), f)
    a = solved(system)
    direct = lu_solve(lu_factor(system.mass), system.load)
    npt.assert_allclose(a, direct, atol=1e-13)


def test_solve_galerkin_orthogonality_residual():
    kappa = 50.0
    from oscfred.problems import paper_benchmark
    prob = paper_benchmark(kappa)
    _, opgm = spaces(16, 2, kappa)
    system = assembled(opgm, prob.kernel, prob.rhs)
    a = solved(system)
    r = system.load - system.matrix @ a
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(system.load)


def test_system_matrix_is_formed_once():
    kappa = 50.0
    from oscfred.problems import paper_benchmark
    prob = paper_benchmark(kappa)
    _, opgm = spaces(16, 2, kappa)
    system = assembled(opgm, prob.kernel, prob.rhs)
    assert system.matrix is system.matrix
    assert np.array_equal(system.matrix, system.mass - system.operator)
    with pytest.raises(ValueError):     # read-only: an in-place routine cannot corrupt later uses
        system.matrix[0, 0] = 0.0


def test_eval_solution_zero_and_single_basis():
    kappa = 10.0
    _, opgm = spaces(5, 2, kappa)
    a = np.zeros(opgm.dimension, dtype=complex)
    assert eval_solution(opgm, a, 0.37) == 0.0
    d = opgm.splines.dimension
    j = 3
    a[1 * d + j] = 1.0  # tau = 0 block is the middle one
    s = np.linspace(-1, 1, 23)
    expect = opgm.splines.eval_basis(j, s)
    npt.assert_allclose(eval_solution(opgm, a, s), expect, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eval_solution_matches_pointwise_recurrence(m):
    # breakpoints (including s = -1 and s = 1) and random points of a
    # non-uniform mesh, against per-point Cox-de Boor; the carriers e^{+-2i*kappa*s}
    # take their own exponential
    sp = SplineSpace(make_knots([-0.7, -0.35, 0.1, 0.2, 0.6], m))
    rng = np.random.default_rng(m)
    s = np.concatenate((sp.knots.breakpoints, rng.uniform(-1.0, 1.0, 50)))
    d = sp.dimension
    for space in (TrialSpace.opgm(sp, 30.0), TrialSpace(sp, 30.0, (-2, 0, 2))):
        a = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        expect = np.zeros(len(s), dtype=complex)
        for i, si in enumerate(s):
            j0, vals = sp.eval_nonzero(si)
            for bi, eps in enumerate(space.multipliers):
                expect[i] += (vals @ a[bi * d + j0: bi * d + j0 + m]) * np.exp(1j * eps * 30.0 * si)
        npt.assert_allclose(eval_solution(space, a, s), expect, rtol=0, atol=1e-14)
        grid = s[:56].reshape(2, 4, 7)                  # any shape comes back as it went in
        npt.assert_allclose(eval_solution(space, a, grid), expect[:56].reshape(grid.shape), rtol=0, atol=1e-14)
        assert eval_solution(space, a, 1.0) == pytest.approx(expect[len(sp.knots.breakpoints) - 1], abs=1e-14)
        with pytest.raises(ValueError):
            eval_solution(space, a, np.array([0.0, 1.5]))


def test_eval_solution_dimension_check():
    _, opgm = spaces(4, 2, 10.0)
    with pytest.raises(ValueError):
        eval_solution(opgm, np.zeros(5), 0.0)


def test_projection_reproduces_constants():
    kappa = 25.0
    cgm, _ = spaces(6, 2, kappa)
    one = StructuredFunction(kappa, {0: Polynomial([1.0])})
    system = assembled(cgm, OscKernel.polynomial([[0.0]], kappa), one)
    a = solved(system)
    s = np.linspace(-1, 1, 41)
    npt.assert_allclose(eval_solution(cgm, a, s), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form operator application
# ---------------------------------------------------------------------------

def test_apply_kernel_to_one_matches_hand_formula():
    kappa = 5.0
    kern = OscKernel.polynomial([[1.0]], kappa)
    one = StructuredFunction(kappa, {0: Polynomial([1.0])})
    K1 = apply_kernel_structured(kern, one)
    for s in (-0.83, 0.11, 0.54, 1.0):
        hand = (np.exp(1j * kappa * (s + 1)) + np.exp(1j * kappa * (1 - s)) - 2) / (1j * kappa)
        assert abs(K1(s) - hand) <= 1e-14


def test_apply_kernel_matches_quadrature():
    kappa = 11.0
    kern = OscKernel.polynomial([[1.0, 0.5], [-0.25, 0.0]], kappa)
    # the second y puts a zero rate on the t > s side (tau = -1) and reaches the +-2 carriers
    for y in (StructuredFunction(kappa, {1: Polynomial([0.2, 1.0]), 0: Polynomial([1.0, 0.0, -1.0])}),
              StructuredFunction(kappa, {-1: Polynomial([0.5, -1.0, 0.3]), 2: Polynomial([0.0, 0.7]),
                                         -2: Polynomial([1.0, 0.25])})):
        Ky = apply_kernel_structured(kern, y)
        for s in (-0.7, 0.05, 0.66):
            low = oscillatory_quad(
                lambda t: kern.eval_grid(s, t) * np.exp(1j * kappa * (s - t)) * y(t), -1.0, s, 3 * kappa)
            up = oscillatory_quad(
                lambda t: kern.eval_grid(s, t) * np.exp(1j * kappa * (t - s)) * y(t), s, 1.0, 3 * kappa)
            assert abs(Ky(s) - (low + up)) <= 1e-12


def test_apply_kernel_caps_amplitude_degree():
    kappa = 5.0
    kern = OscKernel.polynomial(np.eye(9), kappa)  # K = sum (s t)^a
    y = StructuredFunction(kappa, {0: Polynomial(np.ones(10))})
    with pytest.raises(ValueError):
        apply_kernel_structured(kern, y)


def test_apply_kernel_requires_polynomial():
    kern = OscKernel.smooth(lambda s, t: 1.0, 5.0)
    one = StructuredFunction(5.0, {0: Polynomial([1.0])})
    with pytest.raises(ValueError):
        apply_kernel_structured(kern, one)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_error_metric_zero_for_equal_functions():
    y = StructuredFunction(50.0, {0: Polynomial([1.0]), 1: Polynomial([0, 0, 0, 1.0])})
    assert relative_error_eN(y, y, 1.0) == 0.0


def test_error_metric_plateau_value():
    # y = 1 + s^3 e^{i kappa s} against y_h = 1: sampled-mean metric gives 1/4
    kappa = 5e4
    y = StructuredFunction(kappa, {0: Polynomial([1.0]), 1: Polynomial([0, 0, 0, 1.0])})
    ones = lambda s: np.ones_like(s, dtype=complex)
    e = relative_error_eN(ones, y, 4.0 / np.sqrt(7.0))
    assert e == pytest.approx(0.25, abs=2e-3)


def test_error_metric_grid_convention():
    assert EN_GRID[0] == pytest.approx(-1.0 + 1.0 / 1024.0)
    assert EN_GRID[-1] == 1.0
    assert len(EN_GRID) == 2048


def test_error_metric_l2_variant_is_sqrt2_rescale():
    from oscfred.problems import paper_benchmark, run_galerkin
    run = run_galerkin(paper_benchmark(50.0), "opgm", 16)
    assert run.e_l2 == pytest.approx(np.sqrt(2.0) * run.e_N, rel=1e-15, abs=0.0)


def test_error_metric_rejects_bad_norm():
    y = StructuredFunction(50.0, {0: Polynomial([1.0])})
    for norm in (0.0, -1.0, math.inf, math.nan):             # an infinite norm read every error as 0
        with pytest.raises(ValueError, match="finite and positive"):
            relative_error_eN(y, y, norm)


def test_convergence_order_values():
    assert convergence_order(4e-4, 1e-4) == pytest.approx(2.0)
    assert convergence_order(3.04e-5, 7.69e-6) == pytest.approx(1.98, abs=0.01)
    assert convergence_order(1e-3, 1e-3) == 0.0
    with pytest.raises(ValueError):
        convergence_order(0.0, 1e-4)
