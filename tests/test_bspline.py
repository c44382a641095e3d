"""Tests of knot vectors, B-spline bases, Gram matrices, the grid error measure."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from oscfred.bspline import (
    KnotVector,
    SplineSpace,
    gram_matrix,
    make_knots,
    make_uniform_knots,
    max_error_on_grid,
)


def space(N, m):
    return SplineSpace(make_uniform_knots(N, m))


# ---------------------------------------------------------------------------
# knot vectors
# ---------------------------------------------------------------------------

def test_uniform_knots_basic():
    kv = make_uniform_knots(3, 2)
    assert kv.h == pytest.approx(0.5)
    npt.assert_allclose(kv.breakpoints, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert kv.dimension == 5


def test_uniform_knots_degenerate_mesh():
    kv = make_uniform_knots(0, 2)
    assert kv.dimension == 2
    sp = SplineSpace(kv)
    # two half hats spanning [-1, 1]
    assert sp.eval_basis(0, -1.0) == pytest.approx(1.0)
    assert sp.eval_basis(1, 1.0) == pytest.approx(1.0)
    assert sp.eval_basis(0, 0.0) == pytest.approx(0.5)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_uniform_knots_mirror_symmetric_bitwise(m):
    # breakpoint N - 1 - i is exactly the negative of breakpoint i
    for N in range(65):
        z = make_uniform_knots(N, m).breakpoints
        assert np.array_equal(z, -z[::-1]), N


def test_uniform_knots_table_sizes():
    # N=16, m=2: dimension 18, so the enriched system has order 3*(N+2) = 54
    kv = make_uniform_knots(16, 2)
    assert kv.dimension == 18
    assert 3 * kv.dimension == 54


def test_knot_validation():
    with pytest.raises(ValueError):
        make_uniform_knots(-1, 2)
    with pytest.raises(ValueError):
        make_uniform_knots(3, 0)
    with pytest.raises(ValueError):
        make_knots([0.5, 0.5], 2)  # repeated interior breakpoint
    with pytest.raises(ValueError):
        KnotVector(order=2, knots=np.array([-1.0, 0.0, 1.0, 1.0]))  # boundary not repeated
    with pytest.raises(ValueError, match="2\\*order entries"):
        KnotVector(order=2, knots=np.array([-1.0, 1.0]))  # too few knots for the order


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("breakpoints", [[np.nan], [0.0, np.nan], [np.nan, 0.0]])
def test_a_nan_breakpoint_is_refused(m, breakpoints):
    # every comparison with NaN is false, so "no gap <= 0" held and the mesh was all-NaN pieces
    knots = np.concatenate((np.full(m, -1.0), breakpoints, np.full(m, 1.0)))
    for call in (lambda: make_knots(breakpoints, m), lambda: KnotVector(m, knots)):
        with pytest.raises(ValueError, match="strictly increasing"):
            call()


@pytest.mark.parametrize("N", [4.5, 4.0, True, False, "4", None])
def test_a_mesh_count_that_is_not_an_integer_is_refused_by_name(N):
    # 4.5 cells would make a mesh that is neither uniform nor mirrored, and
    # True would be N = 1: neither a float nor a bool is a number of breakpoints
    with pytest.raises(ValueError, match="N must be an integer"):
        make_uniform_knots(N, 2)


@pytest.mark.parametrize("m", [2.0, 1.5, True])
def test_a_spline_order_that_is_not_an_integer_is_refused_by_name(m):
    # numpy's TypeError on np.full(2.0, ...) and "slice indices must be integers" are not what went wrong
    knots = np.array([-1.0, -1.0, 0.0, 1.0, 1.0])
    for call in (lambda: make_uniform_knots(3, m), lambda: make_knots([0.0], m), lambda: KnotVector(m, knots)):
        with pytest.raises(ValueError, match="spline order must be an integer"):
            call()


def test_numpy_integers_stay_accepted():
    kv = make_uniform_knots(np.int64(3), np.int32(2))
    assert np.array_equal(kv.knots, make_uniform_knots(3, 2).knots) and kv.dimension == 5
    assert KnotVector(np.int64(2), kv.knots).dimension == 5


@pytest.mark.parametrize("knots, ends", [([0, 0, 1, 2, 2], "0 and 2"), ([-0.5, -0.5, 0, 0.5, 0.5], "-0.5 and 0.5")])
def test_knots_off_the_interval_are_rejected(knots, ends):
    # the equation lives on I = [-1, 1]: a clamped mesh of any other interval is refused by name
    with pytest.raises(ValueError, match=f"clamped at -1 and 1, not at {ends}"):
        KnotVector(order=2, knots=np.array(knots, dtype=float))


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def test_order2_basis_is_nodal():
    sp = space(3, 2)
    nodes = sp.knots.breakpoints
    for j in range(sp.dimension):
        assert sp.eval_basis(j, nodes[j]) == pytest.approx(1.0)


def test_hat_midpoint_value():
    sp = space(3, 2)
    assert sp.eval_basis(1, -0.75) == pytest.approx(0.5)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_partition_of_unity(m):
    sp = space(7, m)
    rng = np.random.default_rng(100 + m)
    pts = rng.uniform(-1.0, 1.0, 1000)
    total = sum(sp.eval_basis(j, pts) for j in range(sp.dimension))
    assert np.all(abs(total - 1.0) <= 1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_basis_vanishes_outside_support(m):
    sp = space(6, m)
    rng = np.random.default_rng(17)
    for j in range(sp.dimension):
        lo, hi = sp.support(j)
        for s in rng.uniform(-1.0, 1.0, 40):
            if not lo <= s <= hi:
                assert sp.eval_basis(j, s) == 0.0


def test_basis_nonnegative():
    sp = space(5, 3)
    _, vals = sp.eval_nonzero(np.linspace(-1, 1, 101))
    assert np.all(vals >= -1e-15)


def test_basis_index_out_of_range():
    sp = space(3, 2)
    with pytest.raises(IndexError):
        sp.eval_basis(5, 0.0)
    with pytest.raises(IndexError):
        sp.eval_basis(-1, 0.0)


NONUNIFORM_BREAKPOINTS = [-0.7, -0.35, 0.1, 0.2, 0.6]


@pytest.mark.parametrize("m, breakpoints",
                         [(m, None) for m in (1, 2, 3, 4)]
                         + [(m, NONUNIFORM_BREAKPOINTS) for m in (1, 2, 3, 4)],
                         ids=["1", "2", "3", "4"] + [f"nonuniform-{m}" for m in (1, 2, 3, 4)])
def test_cell_pieces_match_pointwise_recurrence(m, breakpoints):
    # the polynomial pieces and the pointwise Cox-de Boor evaluation are
    # independent code paths; they must agree everywhere
    sp = space(5, m) if breakpoints is None else SplineSpace(make_knots(breakpoints, m))
    rng = np.random.default_rng(3)
    for c in range(sp.knots.num_cells):
        zl, zr = sp.cell_bounds(c)
        s0, h2 = 0.5 * (zl + zr), 0.5 * (zr - zl)
        P = sp.pieces[c]
        for x in rng.uniform(-1.0, 1.0, 7):
            s = s0 + h2 * x
            for r in range(m):
                val_piece = np.polynomial.polynomial.polyval(x, P[r])
                assert val_piece == pytest.approx(sp.eval_basis(c + r, s), abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eval_nonzero_rejects_points_outside_the_interval(m):
    sp = SplineSpace(make_knots(NONUNIFORM_BREAKPOINTS, m))
    for bad in ([-1.5], [0.0, 1.0 + 1e-12], [np.nan]):
        with pytest.raises(ValueError):
            sp.eval_nonzero(np.array(bad))
        with pytest.raises(ValueError):
            sp.eval_nonzero(bad[-1])
        with pytest.raises(ValueError):
            sp.eval_basis(0, bad[-1])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eval_basis_on_an_array_is_the_scalar_calls(m):
    # bit for bit, breakpoints and both ends included, and 0 off the support
    sp = SplineSpace(make_knots(NONUNIFORM_BREAKPOINTS, m))
    s = np.concatenate((sp.knots.breakpoints, np.random.default_rng(m).uniform(-1.0, 1.0, 40)))
    for j in range(sp.dimension):
        values = sp.eval_basis(j, s)
        assert values.shape == s.shape
        npt.assert_array_equal(values, [sp.eval_basis(j, si) for si in s])
        lo, hi = sp.support(j)
        assert not np.any(values[(s < lo) | (s > hi)])
    j0, vals = sp.eval_nonzero(s)
    for i, si in enumerate(s):
        j, v = sp.eval_nonzero(si)
        assert j0[i] == j
        npt.assert_array_equal(vals[i], v)


@pytest.mark.parametrize("m, breakpoints",
                         [(m, None) for m in (1, 2, 3, 4)]
                         + [(m, NONUNIFORM_BREAKPOINTS) for m in (1, 2, 3, 4)],
                         ids=["1", "2", "3", "4"] + [f"nonuniform-{m}" for m in (1, 2, 3, 4)])
def test_basis_matches_scipy(m, breakpoints):
    # independent oracle: scipy's B-spline basis elements, breakpoints among the points
    sp = space(6, m) if breakpoints is None else SplineSpace(make_knots(breakpoints, m))
    t = sp.knots.knots
    s = np.union1d(np.linspace(-1, 1, 301), sp.knots.breakpoints)
    for j in range(sp.dimension):
        ours = sp.eval_basis(j, s)
        ref = BSpline.basis_element(t[j: j + m + 1], extrapolate=False)(s)
        ref = np.nan_to_num(ref)
        # scipy's basis element treats the last breakpoint as exclusive
        mask = s < sp.support(j)[1]
        npt.assert_allclose(ours[mask], ref[mask], atol=1e-13)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

def test_gram_hat_pattern():
    sp = space(8, 2)
    G = gram_matrix(sp)
    h = sp.knots.h
    assert G[3, 3] == pytest.approx(2 * h / 3, rel=1e-13)
    assert G[3, 4] == pytest.approx(h / 6, rel=1e-13)
    assert G[0, 0] == pytest.approx(h / 3, rel=1e-13)
    assert G[2, 4] == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gram_symmetric_positive_definite(m):
    G = gram_matrix(space(6, m))
    npt.assert_array_equal(G, G.T)
    assert np.min(np.linalg.eigvalsh(G)) > 0


@pytest.mark.parametrize("N,m", [(2, 2), (5, 3), (8, 2), pytest.param(None, 3, id="nonuniform-3")])
def test_gram_matches_midpoint_bruteforce(N, m):
    sp = space(N, m) if N is not None else SplineSpace(make_knots(NONUNIFORM_BREAKPOINTS, m))
    d = sp.dimension
    n_panels = 10_000
    mids = -1.0 + (np.arange(n_panels) + 0.5) * (2.0 / n_panels)
    B = np.zeros((d, n_panels))
    j0, vals = sp.eval_nonzero(mids)
    B[j0[:, None] + np.arange(m), np.arange(n_panels)[:, None]] = vals
    G_brute = (B * (2.0 / n_panels)) @ B.T
    G = gram_matrix(sp)
    # the midpoint rule itself carries (2/n)^2/24 * curvature error, and the
    # piece curvature grows like 1/h^2; a few 1e-8 absolute at these sizes
    npt.assert_allclose(G, G_brute, rtol=1e-7, atol=5e-8)


def test_gram_condition_mesh_independent():
    # Clamped order-2 meshes: eigenvalues fill [h/4, h], so cond2 tends to
    # 4 from below, independent of N.  (An interior-only estimate would
    # suggest [h/3, h] and cond 3; the boundary half-hats lower the
    # smallest eigenvalue to h/4.  Criterion 7b in test_acceptance.py
    # asserts both constants sharply.)
    conds = []
    for N in (16, 64, 256, 512):
        ev = np.linalg.eigvalsh(gram_matrix(space(N, 2)))
        conds.append(ev[-1] / ev[0])
    assert all(3.8 <= c <= 4.0 + 1e-9 for c in conds)
    assert max(conds) - min(conds) < 0.15


# ---------------------------------------------------------------------------
# the grid error measure
# ---------------------------------------------------------------------------

def test_max_error_identity_and_constant_gap():
    f = lambda s: np.ones_like(s)
    zero = lambda s: np.zeros_like(s)
    assert max_error_on_grid(f, f, 33) == 0.0
    assert max_error_on_grid(f, zero, 17) == 1.0
