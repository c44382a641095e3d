"""Tour of the B-spline layer: knots, bases, Gram matrices.

Run:  python demos/01_bspline_basics.py
"""

import numpy as np

from oscfred import SplineSpace, gram_matrix, make_uniform_knots

# uniform mesh with 3 interior breakpoints: h = 0.5, dimension N + m = 5
knots = make_uniform_knots(N=3, m=2)
space = SplineSpace(knots)
print("breakpoints:", knots.breakpoints)
print("dimension:  ", space.dimension)

# order-2 B-splines are the classical hat functions: B_j peaks at its own node
nodes = knots.breakpoints
for j in range(space.dimension):
    print(f"B_{j}({nodes[j]:+.2f}) = {space.eval_basis(j, nodes[j]):.3f}")

# partition of unity at arbitrary points
s = np.linspace(-1, 1, 7)
sums = sum(space.eval_basis(j, s) for j in range(space.dimension))
print("sum of basis values:", np.round(sums, 15))

# the Gram matrix is tridiagonal with the classical 2h/3, h/6 pattern
G = gram_matrix(space)
h = knots.h
print("Gram matrix / h:")
print(np.round(G / h, 6))
print("interior diagonal 2/3, off-diagonal 1/6, corners 1/3")

# its condition number is mesh independent (tends to 4 on clamped meshes)
for N in (16, 64, 256):
    G = gram_matrix(SplineSpace(make_uniform_knots(N, 2)))
    ev = np.linalg.eigvalsh(G)
    print(f"N={N:4d}: cond2(G) = {ev[-1] / ev[0]:.4f}")
