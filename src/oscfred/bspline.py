"""B-spline spaces on I = [-1, 1], with per-cell polynomial pieces.

Knot vectors carry full boundary multiplicity (each endpoint repeated
``order`` times), which yields the smoothest nondegenerate spline space of
a given order: dimension ``N + order`` for ``N`` interior breakpoints.
Basis functions are evaluated with the Cox-de Boor recurrence; the same
recurrence run in coefficient space provides the exact polynomial piece of
every basis function on every mesh cell, expressed in the normalized local
coordinate x in [-1, 1] of the cell.  Those local pieces are what the
Galerkin assembly integrates in closed form.

Also here: the max-on-grid error measure used by the oscillation-order
experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .oscquad import gauss_legendre_rule

__all__ = [
    "KnotVector",
    "SplineSpace",
    "gram_matrix",
    "make_knots",
    "make_uniform_knots",
    "max_error_on_grid",
]


def _count(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer (a bool is not) of at least ``least``; else ValueError naming it."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot sequence on I: ``order`` copies of -1 and of 1 plus interior breakpoints."""

    order: int
    knots: np.ndarray

    def __post_init__(self):
        m = _count(self.order, "spline order", 1)
        k = np.asarray(self.knots, dtype=float)
        if k.ndim != 1 or len(k) < 2 * m:
            raise ValueError("knot sequence must contain at least 2*order entries")
        if not (np.all(k[:m] == k[0]) and np.all(k[-m:] == k[-1])):
            raise ValueError("first and last knots must each be repeated 'order' times")
        if k[0] != -1.0 or k[-1] != 1.0:
            raise ValueError(f"knots must be clamped at -1 and 1, not at {k[0]:g} and {k[-1]:g}")
        interior = k[m:-m] if len(k) > 2 * m else k[:0]
        full = np.concatenate(([k[0]], interior, [k[-1]]))
        if not np.all(np.diff(full) > 0):                # NaN fails it too
            raise ValueError("breakpoints must be strictly increasing inside the interval")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "knots", k)

    @property
    def dimension(self) -> int:
        """Number of B-spline basis functions: len(knots) - order = N + order."""
        return len(self.knots) - self.order

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct breakpoints including endpoints (length N + 2)."""
        m = self.order
        return np.concatenate(([self.knots[0]], self.knots[m:-m], [self.knots[-1]]))

    @property
    def num_cells(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def h(self) -> float:
        """Mesh width: largest gap between successive breakpoints."""
        return float(np.max(np.diff(self.breakpoints)))


def make_knots(breakpoints: Sequence[float], m: int) -> KnotVector:
    """Knot vector on I = [-1, 1] with the given interior breakpoints and order-m clamping."""
    inner = np.asarray(breakpoints, dtype=float)
    m = _count(m, "spline order", 1)
    knots = np.concatenate((np.full(m, -1.0), inner, np.full(m, 1.0)))
    return KnotVector(order=m, knots=knots)


def make_uniform_knots(N: int, m: int) -> KnotVector:
    """Uniform mesh of I = [-1, 1] with N interior breakpoints: h = 2/(N + 1).

    Breakpoint k sits at h*(k - (N + 1)/2); the offsets are exact negatives
    of each other in mirror pairs, so the mesh is mirror-symmetric bitwise.
    """
    return KnotVector(order=m, knots=_uniform_knots(N, m))


def _uniform_knots(N: int, m: int) -> np.ndarray:
    """The knot array of :func:`make_uniform_knots`, built without the checks of :class:`KnotVector`."""
    N, m = _count(N, "N", 0), _count(m, "spline order", 1)
    h = 2.0 / (N + 1)
    inner = h * (np.arange(1, N + 1) - 0.5 * (N + 1))
    return np.concatenate((np.full(m, -1.0), inner, np.full(m, 1.0)))


class SplineSpace:
    """B-spline basis of a clamped knot vector.

    Basis index j runs over 0..dimension-1; function j is supported on the
    knot span [knots[j], knots[j + order]].  On any cell exactly ``order``
    basis functions are nonzero, with indices c..c+order-1 for cell c.
    ``pieces`` (read-only, shape (num_cells, order, order)) holds the exact
    polynomial pieces of those functions on every cell: ``pieces[c, r]``
    are the ascending coefficients of B_{c+r} in the local coordinate x,
    where s = mid + half*x on cell c and x in [-1, 1].  All state is
    immutable after construction.
    """

    def __init__(self, knots: KnotVector):
        self.knots = knots
        self.pieces = _cell_pieces(knots)

    @property
    def order(self) -> int:
        return self.knots.order

    @property
    def dimension(self) -> int:
        return self.knots.dimension

    def support(self, j: int) -> tuple[float, float]:
        self._check_index(j)
        m = self.order
        return float(self.knots.knots[j]), float(self.knots.knots[j + m])

    def _check_index(self, j: int) -> None:
        if not 0 <= j < self.dimension:
            raise IndexError(f"basis index {j} out of range [0, {self.dimension})")

    # -- pointwise evaluation (Cox-de Boor) ---------------------------------
    def eval_nonzero(self, s):
        """Values of the ``order`` basis functions alive at s, a scalar or a 1-d array.

        Returns ``(first index, values)``: an int and an (order,) array at a
        scalar, arrays of shapes (n,) and (n, order) at n points.  The right
        end of the interval belongs to the last cell; a point outside it, or
        NaN, raises ValueError.
        """
        m = self.order
        t = self.knots.knots
        z = self.knots.breakpoints
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.all((z[0] <= s) & (s <= z[-1])):
            raise ValueError(f"points outside [{z[0]}, {z[-1]}]")
        i = m - 1 + np.minimum(np.searchsorted(z, s, side="right") - 1, len(z) - 2)
        vals = np.zeros((len(s), m))
        vals[:, 0] = 1.0
        left = np.zeros((len(s), m))
        right = np.zeros((len(s), m))
        for k in range(1, m):
            left[:, k] = s - t[i + 1 - k]
            right[:, k] = t[i + k] - s
            saved = 0.0
            for r in range(k):
                tmp = vals[:, r] / (right[:, r + 1] + left[:, k - r])
                vals[:, r] = saved + right[:, r + 1] * tmp
                saved = left[:, k - r] * tmp
            vals[:, k] = saved
        return (int(i[0]) - m + 1, vals[0]) if scalar else (i - m + 1, vals)

    def eval_basis(self, j: int, s):
        """Values of basis function j at s, a scalar or a 1-d array (0 outside its support)."""
        self._check_index(j)
        j0, vals = self.eval_nonzero(np.atleast_1d(s))
        r = j - j0
        alive = (r >= 0) & (r < self.order)
        out = np.where(alive, np.take_along_axis(vals, np.where(alive, r, 0)[:, None], 1)[:, 0], 0.0)
        return float(out[0]) if np.ndim(s) == 0 else out

    # -- cells ----------------------------------------------------------------
    def cell_bounds(self, c: int) -> tuple[float, float]:
        z = self.knots.breakpoints
        return float(z[c]), float(z[c + 1])

    def cells_of_basis(self, j: int) -> range:
        """Indices of the cells on which basis function j is not identically zero."""
        self._check_index(j)
        m = self.order
        return range(max(0, j - m + 1), min(self.knots.num_cells, j + 1))


def _cell_pieces(knots: KnotVector) -> np.ndarray:
    """P[c, r] = ascending local-coordinate coefficients of B_{c+r} on cell c, all cells at once.

    The Cox-de Boor recurrence run on polynomials: at order k, row r of
    cell c is the function j = c + m - k + r, built from rows r - 1 and r
    of order k - 1 times the linear factors (s - t_j)/(t_{j+k-1} - t_j)
    and (t_{j+k} - s)/(t_{j+k} - t_{j+1}), with s = mid + half*x.  Every
    denominator is positive because both functions are alive on the cell.
    """
    m = knots.order
    t = knots.knots
    z = knots.breakpoints
    s0 = 0.5 * (z[:-1] + z[1:])[:, None, None]
    h2 = 0.5 * (z[1:] - z[:-1])[:, None, None]
    c = np.arange(len(z) - 1)[:, None, None]
    P = np.ones((len(z) - 1, 1, 1))
    for k in range(2, m + 1):
        new = np.zeros((len(P), k, k))
        j = c + m - k + np.arange(1, k)[:, None]  # rows 1..k-1: lower function j
        den = t[j + k - 1] - t[j]
        new[:, 1:, :-1] += (s0 - t[j]) / den * P
        new[:, 1:, 1:] += h2 / den * P
        j = c + m - k + np.arange(k - 1)[:, None]  # rows 0..k-2: upper function j + 1
        den = t[j + k] - t[j + 1]
        new[:, :-1, :-1] += (t[j + k] - s0) / den * P
        new[:, :-1, 1:] -= h2 / den * P
        P = new
    P.setflags(write=False)
    return P


def gram_matrix(space: SplineSpace) -> np.ndarray:
    """Gram matrix G[l, j] = int B_l B_j, exact via per-cell Gauss-Legendre on pointwise values.

    The basis is evaluated pointwise by :meth:`SplineSpace.eval_nonzero`,
    not from the polynomial pieces the assembly integrates, so G is an
    independent check of the assembled mass matrix.  The integrand is a
    polynomial of degree <= 2*order - 2 on every cell, so ``order`` Gauss
    nodes are exact.  Each cell's local matrix is symmetrised before it is
    added in, so G == G.T exactly; G is positive definite and banded with
    bandwidth order - 1.
    """
    m = space.order
    x, w = gauss_legendre_rule(m)
    z = space.knots.breakpoints
    h2 = 0.5 * (z[1:] - z[:-1])[:, None]
    j0, vals = space.eval_nonzero((0.5 * (z[1:] + z[:-1])[:, None] + h2 * x).ravel())
    vals = vals.reshape(len(h2), m, m)                      # [cell, node, r]
    local = np.einsum("cq,cqr,cqs->crs", h2 * w, vals, vals)
    idx = j0[::m, None] + np.arange(m)
    G = np.zeros((space.dimension, space.dimension))
    np.add.at(G, (idx[:, :, None], idx[:, None, :]), 0.5 * (local + local.swapaxes(1, 2)))
    return G


def max_error_on_grid(f: Callable, approx: Callable, n: int) -> float:
    """max_j |f(s_j) - approx(s_j)| over the uniform closed n-point grid of [-1, 1]."""
    s = np.linspace(-1.0, 1.0, n)
    fv = np.asarray(f(s))
    av = np.asarray(approx(s))
    return float(np.max(np.abs(fv - av)))
