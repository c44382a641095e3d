"""Nested-mesh identities: the coarse system is the fine one seen through knot insertion.

Halving the uniform mesh of N interior breakpoints gives the one of
2N + 1, and every coarse B-spline is a combination of fine ones,
B^c_j = sum_i P[i, j] B^f_i, with P the Boehm knot-insertion matrix.  The
carriers e^{i*eps*kappa*s} do not depend on the mesh, so with
P_hat = diag(P, ..., P), one block per multiplier, the Galerkin entries
obey P_hat^T E_f P_hat = E_c, P_hat^T K_f P_hat = K_c and P_hat^T f_f = f_c
exactly.  The two sides take different cells, cell pairs and triangles
of the closed-form assembly, so this checks it without a quadrature oracle.
"""

from fractions import Fraction

import numpy as np
import pytest

from oscfred.bspline import SplineSpace, make_uniform_knots
from oscfred.galerkin import OscKernel, TrialSpace, assemble_mass, assemble_operator, assemble_rhs
from oscfred.problems import paper_benchmark

KERNELS = {
    "paper": [[1.0]],
    "rank3": [[1.0, 0.3, 0.0], [0.2, 0.0, 0.1], [0.0, 0.5, 0.0]],          # not invariant under s, t -> -s, -t
    "rank3-even": [[1.0, 0.0, 0.5], [0.0, 0.25, 0.0], [0.3, 0.0, 0.0]],
}


def insertion_matrix(N: int, m: int) -> np.ndarray:
    """P with B^c_j = sum_i P[i, j] B^f_i from the uniform mesh of N interior breakpoints to that of 2N + 1.

    Knots are counted in fine cell widths, so I is [0, 2N + 2] and every
    knot an integer; each midpoint 2k + 1 is inserted by Boehm's rule in
    exact rational arithmetic.  The entries are dyadic, so the float
    matrix is exact too.
    """
    knots = [0] * m + list(range(2, 2 * N + 2, 2)) + [2 * N + 2] * m
    P = [[int(i == j) for j in range(N + m)] for i in range(N + m)]     # rows: the fine basis so far
    for x in range(1, 2 * N + 2, 2):
        k = max(i for i in range(len(knots) - 1) if knots[i] <= x < knots[i + 1])
        rows = []
        for i in range(len(P) + 1):                 # row i = alpha_i P[i] + (1 - alpha_i) P[i - 1]
            if i <= k - m + 1:
                rows.append(P[i])
            elif i >= k + 1:
                rows.append(P[i - 1])
            else:
                alpha = Fraction(x - knots[i], knots[i + m - 1] - knots[i])
                rows.append([alpha * a + (1 - alpha) * b for a, b in zip(P[i], P[i - 1])])
        P = rows
        knots = sorted(knots + [x])
    return np.array(P, dtype=float)


@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_insertion_matrix_maps_coarse_b_splines_to_fine_ones(N, m):
    coarse, fine = SplineSpace(make_uniform_knots(N, m)), SplineSpace(make_uniform_knots(2 * N + 1, m))
    P = insertion_matrix(N, m)
    assert P.shape == (fine.dimension, coarse.dimension)
    s = np.linspace(-1.0, 1.0, 301)
    Bc = np.array([coarse.eval_basis(j, s) for j in range(coarse.dimension)])
    Bf = np.array([fine.eval_basis(i, s) for i in range(fine.dimension)])
    np.testing.assert_allclose(P.T @ Bf, Bc, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kappa", [1.5, 50.0, 5e3, 5e4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_coarse_system_is_the_fine_one_through_knot_insertion(m, kappa):
    rhs = paper_benchmark(kappa).rhs
    kernels = {name: OscKernel.polynomial(C, kappa) for name, C in KERNELS.items()}
    for N in (4, 8, 16):
        P = insertion_matrix(N, m)
        coarse, fine = SplineSpace(make_uniform_knots(N, m)), SplineSpace(make_uniform_knots(2 * N + 1, m))
        for method in ("cgm", "opgm"):
            c, f = getattr(TrialSpace, method)(coarse, kappa), getattr(TrialSpace, method)(fine, kappa)
            P_hat = np.kron(np.eye(len(c.multipliers)), P)
            pairs = {"E": (assemble_mass(c), P_hat.T @ assemble_mass(f) @ P_hat),
                     "f": (assemble_rhs(c, rhs), P_hat.T @ assemble_rhs(f, rhs))}
            for name, kern in kernels.items():
                pairs[f"K {name}"] = (assemble_operator(c, kern), P_hat.T @ assemble_operator(f, kern) @ P_hat)
            for what, (coarse_side, fine_side) in pairs.items():
                scale = np.abs(coarse_side).max()
                assert np.abs(fine_side - coarse_side).max() <= 1e-13 * scale, (what, N, method)
