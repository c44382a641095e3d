"""Galerkin discretization of y - Ky = f with an oscillatory kernel.

The integral operator is (Ky)(s) = int_I K(s,t) e^{i*kappa*|s-t|} y(t) dt
on I = [-1, 1], with a smooth kernel factor K independent of kappa.  Two
trial spaces are supported on the same B-spline mesh:

* the plain spline space (conventional method, multiplier set {0});
* the enriched space spanned by B_j(s) e^{i*eps*kappa*s} for
  eps in (-1, 0, +1), which carries the oscillatory structure of the
  solution (oscillation preserving method).

Blocks are ordered by multiplier (-1, 0, +1).  Rows of the assembled
system correspond to test functions B_j e^{i*eps_q*kappa*s}, columns to
trial functions B_l e^{i*eps_p*kappa*s}, with the L2 inner product
conjugate-linear in the test slot, so

    E[(q,j),(p,l)] = int B_l B_j e^{i(eps_p - eps_q) kappa t} dt
    K[(q,j),(p,l)] = int int K(s,t) B_l(t) B_j(s)
                     e^{i kappa (|s-t| + eps_p t - eps_q s)} dt ds
    f[(q,j)]       = int f(t) B_j(t) e^{-i eps_q kappa t} dt

and the coefficients solve (E - K) a = f.

Assembly is exact (up to roundoff) for polynomial kernel factors and
structured right-hand sides: the inner t-integral of every entry is split
at t = s, where the phase has its kink, and each piece collapses to
polynomial-times-exponential moments whose cost does not depend on kappa.
Smooth non-polynomial data is reduced to the same path by Chebyshev
interpolation (a Filon-type approximation of the amplitude), which keeps
assembly kappa-independent but requires the data itself to be
non-oscillatory -- oscillatory right-hand sides must be expressed as a
:class:`StructuredFunction`.

Assembly works on whole arrays of cells.  A cell enters the phase-dependent
moments only through its width, so each family of cell integrals (operator
tables, mass, load, shared-cell triangles) takes one batched moment call
over its rates and distinct cell widths -- a few for a uniform mesh -- and
one contraction.  Off the 2m - 1 central diagonals of each block, E - K is
a rank-R product of generators (per-basis sums of the operator's cell
tables, R the kernel factor's rank), written straight into the one
buffer, which holds only the leading ceil(n/2) rows on reflection-symmetric
data; only the central diagonals take single cell pairs.  What depends on
the mesh alone sits in an immutable :class:`MeshPlan`, shared by the
solves at every wavenumber.  The quadrature oracles at the bottom of the
module integrate the defining formulas numerically and exist to
cross-check the closed forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import KnotVector, SplineSpace, _uniform_knots
from .oscquad import (
    Polynomial,
    _as_coeffs,
    _composite_rule,
    _eval_on,
    _panels,
    _phase_rule,
    _polyint,
    _polyval,
    _sigma_coeffs,
    _trim,
    _unit_moments,
    _zero_moments,
    oscillatory_quad,
)

__all__ = [
    "CGM_MULTIPLIERS",
    "EN_GRID",
    "OPGM_MULTIPLIERS",
    "DiscreteSystem",
    "OscKernel",
    "StructuredFunction",
    "TrialSpace",
    "apply_kernel_structured",
    "assemble_leading_rows",
    "assemble_mass",
    "assemble_operator",
    "assemble_rhs",
    "convergence_order",
    "eval_solution",
    "mass_entry_quadrature",
    "mesh_plan",
    "operator_entry_quadrature",
    "reflection_symmetric",
    "relative_error_eN",
    "rhs_entry_quadrature",
]

CGM_MULTIPLIERS = (0,)
OPGM_MULTIPLIERS = (-1, 0, 1)

#: Sample grid of the relative-error metric: s_j = -1 + j/1024, j = 1..2048.
EN_GRID = -1.0 + np.arange(1, 2049) / 1024.0
EN_GRID.setflags(write=False)

_KERNEL_FIT_DEGREE = 16
_RHS_FIT_DEGREE = 12
_STRUCTURE_RANGE = 2  # carriers e^{i*tau*kappa*s} with |tau| <= 2
_MAX_AMPLITUDE_DEGREE = 16
_FIT_TAIL = 1e-10   # largest trailing Chebyshev coefficient a fit accepts, relative to its largest
_PLANS = 2          # meshes whose kappa-independent tables stay cached (see mesh_plan)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class StructuredFunction:
    """Finite sum  sum_tau w_tau(s) e^{i*tau*kappa*s}  with polynomial amplitudes.

    This is the closed-form representation of oscillatory data: the
    carriers e^{i*tau*kappa*s} are explicit, the amplitudes are smooth
    polynomials, so all Galerkin integrals against it reduce to exact
    moments.  At most one term per tau, with tau in [-2, 2].
    """

    __slots__ = ("kappa", "terms")

    def __init__(self, kappa: float, terms: Mapping[int, object] | Iterable[tuple[int, object]]):
        if not (math.isfinite(kappa) and kappa > 0):
            raise ValueError("wavenumber must be positive and finite")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, Polynomial] = {}
        for tau, amp in items:
            tau = int(tau)
            if abs(tau) > _STRUCTURE_RANGE:
                raise ValueError(f"carrier index {tau} outside [-{_STRUCTURE_RANGE}, {_STRUCTURE_RANGE}]")
            p = amp if isinstance(amp, Polynomial) else Polynomial(_as_coeffs(amp))
            merged[tau] = merged[tau] + p if tau in merged else p
        self.kappa = float(kappa)
        self.terms = tuple(sorted((t, p) for t, p in merged.items() if not p.is_zero()))

    @property
    def max_degree(self) -> int:
        return max((p.degree for _, p in self.terms), default=0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape, dtype=complex) if s.ndim else 0.0 + 0.0j
        for tau, p in self.terms:
            out = out + p(s) * np.exp(1j * tau * self.kappa * s)
        return out

    def __add__(self, other: "StructuredFunction") -> "StructuredFunction":
        self._check_compatible(other)
        terms = list(self.terms) + list(other.terms)
        return StructuredFunction(self.kappa, terms)

    def __sub__(self, other: "StructuredFunction") -> "StructuredFunction":
        self._check_compatible(other)
        terms = list(self.terms) + [(t, -p) for t, p in other.terms]
        return StructuredFunction(self.kappa, terms)

    def __neg__(self) -> "StructuredFunction":
        return StructuredFunction(self.kappa, [(t, -p) for t, p in self.terms])

    def _check_compatible(self, other: "StructuredFunction") -> None:
        if not isinstance(other, StructuredFunction):
            raise TypeError("expected a StructuredFunction")
        if not math.isclose(self.kappa, other.kappa, rel_tol=1e-12):
            raise ValueError("structured functions carry different wavenumbers")

    def __repr__(self) -> str:
        taus = [t for t, _ in self.terms]
        return f"StructuredFunction(kappa={self.kappa}, carriers={taus})"


class OscKernel:
    """Smooth kernel factor K(s,t) of the oscillatory kernel K(s,t) e^{i*kappa*|s-t|}.

    The factor is either a bivariate polynomial (coefficient matrix
    ``poly_st`` with entry [a, b] multiplying s^a t^b) or a smooth
    non-oscillatory callable, which assembly replaces by its degree-16
    tensor Chebyshev interpolant on I^2.  The factor must not depend on
    kappa; the wavenumber lives in (1, inf).
    """

    __slots__ = ("kappa", "poly_st", "func", "_fit")

    def __init__(self, kappa: float, poly_st=None, func: Callable | None = None):
        if not (math.isfinite(kappa) and kappa > 1.0):
            raise ValueError("wavenumber must be finite and exceed 1")
        if (poly_st is None) == (func is None):
            raise ValueError("provide exactly one of poly_st or func")
        if poly_st is not None:
            C = np.atleast_2d(np.asarray(poly_st, dtype=complex))
            if C.ndim != 2:
                raise ValueError("poly_st must be a 2-d coefficient array")
            if not np.all(np.isfinite(C)):
                raise ValueError("poly_st coefficients must be finite")
            poly_st = C
        self.kappa = float(kappa)
        self.poly_st = poly_st
        self.func = func
        self._fit = None

    @classmethod
    def polynomial(cls, coeffs, kappa: float) -> "OscKernel":
        return cls(kappa=kappa, poly_st=coeffs)

    @classmethod
    def smooth(cls, func: Callable, kappa: float) -> "OscKernel":
        return cls(kappa=kappa, func=func)

    @property
    def is_polynomial(self) -> bool:
        return self.poly_st is not None

    def coefficient_matrix(self) -> np.ndarray:
        """Monomial coefficient matrix of the factor (fitted if necessary)."""
        if self.poly_st is not None:
            return self.poly_st
        if self._fit is None:
            self._fit = _chebfit_2d(self.func, _KERNEL_FIT_DEGREE)
        return self._fit

    def eval_grid(self, S, T):
        """Factor values on broadcastable arrays (used by the quadrature oracle)."""
        if self.poly_st is not None:
            Sb, Tb = np.broadcast_arrays(np.asarray(S, float), np.asarray(T, float))
            return np.polynomial.polynomial.polyval2d(Sb, Tb, self.poly_st)
        return _eval_on(self.func, S, T)


@dataclass(frozen=True)
class TrialSpace:
    """A spline space together with the oscillatory carriers of its basis.

    The basis consists of B_j(s) e^{i*eps*kappa*s} for every spline index j
    and every multiplier eps, blocks ordered as ``multipliers``, which are
    kept as a tuple of ints (the key of the multipliers' layout).
    """

    splines: SplineSpace
    kappa: float
    multipliers: tuple[int, ...]

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("wavenumber must be positive and finite")
        eps = tuple(int(e) for e in self.multipliers if isinstance(e, numbers.Integral))
        if len(eps) != len(self.multipliers) or len(set(eps)) != len(eps) or not eps:
            raise ValueError("multipliers must be a nonempty set of distinct integers")
        object.__setattr__(self, "multipliers", eps)

    @classmethod
    def cgm(cls, splines: SplineSpace, kappa: float) -> "TrialSpace":
        return cls(splines=splines, kappa=kappa, multipliers=CGM_MULTIPLIERS)

    @classmethod
    def opgm(cls, splines: SplineSpace, kappa: float) -> "TrialSpace":
        return cls(splines=splines, kappa=kappa, multipliers=OPGM_MULTIPLIERS)

    @property
    def block_dim(self) -> int:
        return self.splines.dimension

    @property
    def dimension(self) -> int:
        return len(self.multipliers) * self.splines.dimension


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled Galerkin system (E - K) a = f."""

    space: TrialSpace
    mass: np.ndarray
    operator: np.ndarray
    load: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """E - K, formed on first access and kept read-only: copy it before any in-place routine."""
        M, = _frozen(self.mass - self.operator)
        return M

    @property
    def order(self) -> int:
        return self.mass.shape[0]


# ---------------------------------------------------------------------------
# Chebyshev fitting of smooth (non-oscillatory) data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cheb_to_mono(deg: int) -> np.ndarray:
    """M[:, i] = monomial coefficients of the Chebyshev polynomial T_i, i <= deg.  Callers must not mutate it."""
    M = np.zeros((deg + 1, deg + 1))
    for i in range(deg + 1):
        M[: i + 1, i] = np.polynomial.chebyshev.cheb2poly(np.eye(i + 1)[i])
    M.setflags(write=False)
    return M


def _chebfit_2d(func: Callable, deg: int) -> np.ndarray:
    """Monomial coefficient matrix of a smooth bivariate function on [-1, 1]^2."""
    cheb = np.polynomial.chebyshev
    pts = cheb.chebpts1(deg + 1)
    F = _eval_on(func, *np.meshgrid(pts, pts, indexing="ij")).astype(complex)
    if not np.all(np.isfinite(F)):
        raise ValueError("kernel factor must be finite on [-1, 1]^2")
    A = cheb.chebfit(pts, F, deg)          # fit columns along s: (deg+1, n_t)
    B = cheb.chebfit(pts, A.T, deg)        # fit along t: (deg+1, deg+1) = [b, a]
    C_cheb = B.T
    scale = max(float(np.max(np.abs(C_cheb))), 1e-300)
    tail = max(float(np.max(np.abs(C_cheb[-2:, :]))), float(np.max(np.abs(C_cheb[:, -2:]))))
    if tail > _FIT_TAIL * scale:
        raise ValueError(
            f"kernel factor is not resolved by the fixed degree-{deg} tensor Chebyshev fit: its trailing "
            f"coefficients exceed {_FIT_TAIL:g} of its largest"
        )
    C_cheb = np.where(np.abs(C_cheb) < 1e-15 * scale, 0.0, C_cheb)
    M = _cheb_to_mono(deg)
    out = M @ C_cheb @ M.T
    # drop trailing all-zero rows/columns
    while out.shape[0] > 1 and not np.any(out[-1, :]):
        out = out[:-1, :]
    while out.shape[1] > 1 and not np.any(out[:, -1]):
        out = out[:, :-1]
    return out


# ---------------------------------------------------------------------------
# Closed-form cell integrals, batched over cells
# ---------------------------------------------------------------------------

def _cells(sp: SplineSpace):
    """Per-cell geometry: midpoints, half-widths, width groups and local pieces.

    Returns ``(s0, h2, widths, group, pieces)``: cell c is [s0 - h2, s0 + h2]
    and the moments take widths[group[c]].  The distinct half-widths are
    grouped in increasing order, a new group starting at the first one more
    than 4 ulp of the breakpoints above the least of the current group, and
    each group takes its least width.  So no cell's width moves by more
    than 4 ulp, and a uniform mesh, whose rounded breakpoints give its cells
    a few bitwise-distinct widths, runs on one width.
    ``pieces[r, i, c]`` is the x^i coefficient of B_{c+r} on cell c, a
    contiguous copy (numpy copies a strided operand at every product).
    Per-cell arrays keep cells on their last axis, so elementwise work runs
    along the long axis.
    """
    z = sp.knots.breakpoints
    s0 = 0.5 * (z[:-1] + z[1:])
    h2 = 0.5 * (z[1:] - z[:-1])
    widths, group = np.unique(h2, return_inverse=True)
    tol = 4 * np.spacing(np.max(np.abs(z)))
    least = np.empty(len(widths), dtype=int)         # index of each width's group's least width
    lead = 0
    for i, w in enumerate(widths):
        if w - widths[lead] > tol:
            lead = i
        least[i] = lead
    leads, merged = np.unique(least, return_inverse=True)
    return s0, h2, widths[leads], merged[group], np.ascontiguousarray(np.moveaxis(sp.pieces, 0, -1))


def _shift_scale(deg: int, s0: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """T[k, a, c] = coefficient of x^k in (s0[c] + h2[c]*x)^a: p(s0 + h2*x) = sum_k (p @ T[k]) x^k."""
    a = np.arange(deg + 1)
    binom = np.array([[math.comb(j, k) for j in a] for k in a], dtype=float)
    s0_powers = np.vander(s0, deg + 1, increasing=True).T[np.maximum(a - a[:, None], 0)]
    return binom[:, :, None] * s0_powers * np.vander(h2, deg + 1, increasing=True).T[:, None]


class MeshPlan:
    """What a solve on one mesh uses that depends on neither kappa nor the load.

    Built by :func:`mesh_plan`: the spline space, its cell geometry
    (:func:`_cells`) and mirror test, and, each built on first use, the
    B-spline values on :data:`EN_GRID`, the index arrays of the cell pairs
    and of the central diagonals, and the plain method's mass band.  Every
    table is a read-only array that is a function of the mesh alone, so a
    plan is an immutable value: threads may share it, a table built twice
    comes out the same, and a solve gives the same bits on a fresh plan as
    on a reused one.  The tables of a multiplier set do not depend on the
    mesh (:func:`_layout`).  The kernel factor's tables are built per
    solve: caching them saved under 1% of a sweep pass, and for a fitted
    kernel they approach the size of E - K.
    """

    def __init__(self, splines: SplineSpace):
        self.splines = splines
        self.cells = _frozen(*_cells(splines))
        z = splines.knots.breakpoints
        self.mirrored = bool(np.array_equal(z, -z[::-1]))

    @cached_property
    def en_values(self) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, vals)``: the indices and values of the B-splines alive at each point of EN_GRID.

        The values are stored complex, the type :func:`eval_solution`'s
        product with the coefficients would cast them to on every call.
        """
        j0, vals = self.splines.eval_nonzero(EN_GRID)
        return _frozen(j0[:, None] + np.arange(self.splines.order), vals.astype(complex))

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(side, shift)`` of the cell pairs x = 0..4m-4 apart by x - (2m-2) (:func:`_operator_parts`).

        side[x, 0] is 0 below the shared cells and 1 above; shift[x, c] = x + c.
        """
        m, nc = self.splines.order, self.cells[4].shape[-1]
        x = np.arange(4 * m - 3)[:, None]
        return _frozen((x > 2 * m - 2).astype(int), x + np.arange(nc))

    @cached_property
    def upper(self) -> np.ndarray:
        """upper[i, 0, l] = l - i >= m: where side 1's generators hold within a block (:func:`_assemble`)."""
        d, m = self.splines.dimension, self.splines.order
        return sliding_window_view(np.arange(1 - d, d) >= m, d)[::-1, None]

    @cached_property
    def band_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(inside, i, j)``: the central-diagonal entries (i, j) of a block.

        inside[m-1+o, i] flags the entries (i, i+o) that lie in the block.
        """
        d, m = self.splines.dimension, self.splines.order
        i = np.arange(d)
        j = i + np.arange(1 - m, m)[:, None]                        # j[m-1+o, i] = i + o
        inside = (j >= 0) & (j < d)
        return _frozen(inside, np.broadcast_to(i, j.shape)[inside], j[inside])

    @cached_property
    def gram(self) -> np.ndarray:
        """The plain method's mass band: every rate is 0, so it is the splines' Gram band at every kappa."""
        band, = _frozen(_mass_band(self, CGM_MULTIPLIERS, 0.0))
        return band


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=_PLANS)
def _plan(order: int, knots: bytes) -> MeshPlan:
    return MeshPlan(SplineSpace(KnotVector(order, np.frombuffer(knots))))


def mesh_plan(knots: KnotVector) -> MeshPlan:
    """The plan of the mesh with these knots, shared by every space on it.

    The plans of the last two meshes stay cached, so solves at many
    wavenumbers on one mesh build its tables once.
    """
    return _plan(knots.order, knots.knots.tobytes())


def uniform_plan(N: int, m: int) -> MeshPlan:
    """:func:`mesh_plan` of ``make_uniform_knots(N, m)``, looked up without building or checking the knot vector."""
    return _plan(m, _uniform_knots(N, m).tobytes())


def _cell_tables(cells, local: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """V[k, l, r, c] = int_{cell c} amp_l(s) B_{c+r}(s) e^{i*rates[k, l]*s} ds for all k, l, r, c.

    ``local[:, l, c]`` holds the coefficients of amp_l in cell c's local
    coordinate x (s = s0 + h2*x).  ``rates`` is (K, L), pairing each rate
    with its amplitude, or (K, 1) for every rate against every amplitude.
    One moment call covers every (rate, cell width).
    """
    s0, h2, widths, group, pieces = cells
    m, nc = pieces.shape[1:]
    D, L = local.shape[:2]
    prod = np.zeros((m + D - 1, L, m, nc), dtype=complex)  # [n, l, r, c]: x^n coefficient of amp_l B_{c+r}
    for i in range(m):
        prod[i:i + D] += local[:, :, None] * pieces[:, i]
    mom = _unit_moments(np.multiply.outer(rates, widths).ravel(), m + D - 2)
    mom = mom.T.reshape((m + D - 1,) + rates.shape + (len(widths),))   # [n, k, l, width]
    if len(widths) > 1:
        mom = mom[..., group]                               # [n, k, l, c]; a single width broadcasts
    V = sum(mom[n][:, :, None] * prod[n] for n in range(m + D - 1))
    pre = h2 * np.exp(1j * rates[..., None] * s0)
    return pre[:, :, None] * V


def _fold(table: np.ndarray) -> np.ndarray:
    """out[..., c + r] = sum over (r, c) of table[..., r, c]: a banded cell table summed onto its rows."""
    m, nc = table.shape[-2:]
    out = np.zeros(table.shape[:-2] + (nc + m - 1,), dtype=complex)
    for r in range(m):
        out[..., r:r + nc] += table[..., r, :]
    return out


def _band(pairs: np.ndarray) -> np.ndarray:
    """Diagonals band[..., m-1+o, i] = entry (i, i+o), |o| < m, of a sum of cell-pair matrices.

    ``pairs[b, x, a, c, ...]`` couples B_{c+a} on cell c with B_{c+x-x0+b} on
    cell c + x - x0, x0 >= m - 1 the middle index of x, so it lands on
    diagonal o = x - x0 + b - a; entries off the central diagonals are dropped.
    The trailing axes lead the result, a view of a [m-1+o, i, ...] array:
    with the summed axes first, every in-place add takes contiguous slices,
    which numpy would otherwise copy.
    """
    m, nx, nc = pairs.shape[0], pairs.shape[1], pairs.shape[3]
    x0 = (nx - 1) // 2
    cols = np.zeros((nx + m - 1,) + pairs.shape[2:], dtype=complex)          # [x + b, a, c, ...]
    for b in range(m):
        cols[b:b + nx] += pairs[b]
    band = np.zeros((2 * m - 1, nc + m - 1) + pairs.shape[4:], dtype=complex)
    for a in range(m):
        for o in range(2 * m - 1):
            band[o, a:a + nc] += cols[a + x0 - m + 1 + o, a]
    return np.moveaxis(band, (0, 1), (-2, -1))


@lru_cache(maxsize=None)
def _collapsed_rule(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The collapsed (Duffy) tensor Gauss rule of :func:`_triangle_moments` at degree D - 1 per variable.

    With v = -1 + (u + 1)(y + 1)/2 the triangle -1 <= v <= u <= 1 is the
    square in (u, y), and dv = (u + 1)/2 dy.  Below the switch both phases
    are under T = max(1, D - 1), so the u-integrand has degree 2D - 1 and
    total phase under 4T, and the y-integrand degree D - 1 and total phase
    under 2T.  Returns u[i], v[i, j], Up[a, i] = weight_i (u_i + 1)/2 u_i^a
    and Vp[i, j, b] = weight_j v_ij^b.  Callers must not mutate them.
    """
    T = max(1.0, D - 1.0)
    u, wu = _phase_rule(2 * D - 1, 4.0 * T)
    y, wy = _phase_rule(D - 1, 2.0 * T)
    v = -1.0 + np.outer(u + 1.0, y + 1.0) / 2.0
    rule = (u, v, (wu * (u + 1.0) / 2.0) * u ** np.arange(D)[:, None],
            (wy[:, None] * v[..., None] ** np.arange(D)).astype(complex))
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def _sigma_rule(D: int) -> tuple[np.ndarray, ...]:
    """The degree-fixed tables of :func:`_triangle_moments` at D = max(A, B).

    ratio[b, n] = (-1)^(b-n) b!/n! (0 for n > b) and its power index
    power[b, n] = max(b - n, 0) + 1, so s_b[n] = ratio (i*lt)^-power;
    sign[b] = (-1)^b, flip[a, b] = (-1)^(a+b), the window index
    window[a, n] = a + n into the 1-d moments, and mu(0, 0), the limit
    both regimes share, (Z[a+b+1] + (-1)^b Z[a]) / (b+1) with
    Z[k] = int_{-1}^{1} x^k dx (:func:`_zero_moments`).  Callers must not
    mutate them.
    """
    b = np.arange(D)
    k = b[:, None] - b                                      # [b, n] = b - n
    fact = np.array([math.factorial(i) for i in b], dtype=float)
    window = np.add.outer(b, b)
    Z = _zero_moments(2 * D - 1)
    return _frozen(np.where(k >= 0, (-1.0) ** k * fact[:, None] / fact, 0.0), np.maximum(k, 0) + 1,
                   (-1.0) ** b, (-1.0) ** window, window, (Z[window + 1] + (-1.0) ** b * Z[:D, None]) / (b + 1))


def _triangle_moments(ls: np.ndarray, lt: np.ndarray, A: int, B: int) -> np.ndarray:
    """mu[e, a, b] = int_{-1}^{1} du int_{-1}^{u} u^a v^b e^{i(ls[e]*u + lt[e]*v)} dv.

    Two regimes, each at a cost fixed by D = max(A, B), so it does not
    depend on the phases.  Once |lt| reaches T = max(1, D - 1), the inner
    integral g_b(u) = int_{-1}^{u} v^b e^{i*lt*v} dv is its boundary (sigma)
    expansion e^{i*lt*u} s_b(u) - e^{-i*lt} s_b(-1), with
    s_b[n] = (-1)^(b-n) (i*lt)^-(b-n+1) b!/n! at most 1/|lt| in size, so mu
    follows from the 1-d moments of :func:`_unit_moments` at ls + lt and ls.
    When |ls| reaches T instead, the reflection (u, v) -> (-v, -u) gives
    mu(ls, lt)[a, b] = (-1)^(a+b) mu(-lt, -ls)[b, a], the same expansion
    with the phases swapped.  Below T in both, the collapsed Gauss rule of
    :func:`_collapsed_rule`, except at ls = lt = 0, which takes the exact
    limit of :func:`_sigma_rule`.  Each row is its own product, so row e
    does not depend on the rest of the batch.
    """
    D = max(A, B)
    T = max(1.0, D - 1.0)
    swap = np.abs(lt) < T
    sigma = ~swap | (np.abs(ls) >= T)
    zero = (ls == 0) & (lt == 0)
    gauss = ~(sigma | zero)
    nsigma = np.count_nonzero(sigma)
    ratio, power, sign, flip, window, limit = _sigma_rule(D)
    mu = np.empty((len(ls), D, D), dtype=complex)
    if nsigma:
        whole = nsigma == len(ls)                           # the branch covers the batch
        lu, lv, rev = (ls, lt, swap) if whole else (ls[sigma], lt[sigma], swap[sigma])
        reflect = np.count_nonzero(rev)
        if reflect:
            lu, lv = np.where(rev, -lv, lu), np.where(rev, -lu, lv)
        s = ratio * (1.0 / (1j * lv))[:, None, None] ** power                  # [e, b, n] = s_b[n]
        const = -np.exp(-1j * lv)[:, None] * (s @ sign)
        mom = _unit_moments(np.concatenate([lu + lv, lu]), 2 * D - 2)
        out = mom[:len(lu), window] @ s.swapaxes(1, 2) + mom[len(lu):, :D, None] * const[:, None, :]
        if reflect:
            out[rev] = flip * out[rev].swapaxes(1, 2)
        if whole:
            return out[:, :A, :B]
        mu[sigma] = out
    mu[zero] = limit
    if np.count_nonzero(gauss):
        u, v, Up, Vp = _collapsed_rule(D)
        G = np.matmul(np.exp(1j * np.multiply.outer(lt[gauss], v))[:, :, None, :], Vp)[:, :, 0]   # [e, i, b]
        mu[gauss] = (Up * np.exp(1j * np.multiply.outer(ls[gauss], u))[:, None, :]) @ G
    return mu[:, :A, :B]


def _chebfit_cells(func: Callable, s0: np.ndarray, h2: np.ndarray, deg: int) -> np.ndarray:
    """Local monomial coefficients (deg+1, ncells) of the degree-``deg`` Chebyshev interpolant per cell."""
    cheb = np.polynomial.chebyshev
    pts = cheb.chebpts1(deg + 1)
    s = (s0[:, None] + h2[:, None] * pts).ravel()
    vals = np.asarray(_eval_on(func, s), dtype=complex).reshape(len(s0), deg + 1)
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side must be finite on [-1, 1]")
    coef = cheb.chebfit(pts, vals.T, deg)
    scale = np.maximum(np.max(np.abs(coef), axis=0), 1e-300)
    if np.any(np.max(np.abs(coef[-2:]), axis=0) > _FIT_TAIL * scale):
        raise ValueError(
            f"right-hand side is not resolved by the fixed degree-{deg} Chebyshev fit per cell: its trailing "
            f"coefficients exceed {_FIT_TAIL:g} of its largest; oscillatory data must be given in structured form"
        )
    return _cheb_to_mono(deg) @ coef


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _check_kappa(space: TrialSpace, kappa: float) -> None:
    if not math.isclose(space.kappa, kappa, rel_tol=1e-12):
        raise ValueError(f"wavenumber mismatch: trial space has {space.kappa}, data has {kappa}")


class _Layout:
    """The rates and index arrays of one multiplier set, built by :func:`_layout`.

    ``mass`` and ``sides`` pair the distinct rates of the mass tables and
    of the operator's cell tables with each entry's index among them
    (``np.unique``), ``ls``/``lt`` those of the shared-cell triangles
    (:func:`_operator_parts`).  ``symmetric`` tells whether the multipliers
    read backwards are their negatives.  On a mirrored mesh
    (``MeshPlan.mirrored``) s -> -s then maps the trial basis onto itself
    in reversed order: it takes B_j e^{i*eps*kappa*s} to
    B_{d-1-j} e^{-i*eps*kappa*s}, the basis function at the reversed
    index, so J E J = E.
    """

    def __init__(self, multipliers: tuple[int, ...]):
        eps = self.eps = np.array(multipliers)
        self.diff = eps - eps[:, None]                      # [q, p] = eps_p - eps_q
        self.mass = np.unique(self.diff, return_inverse=True)
        srate = np.stack([1 - eps, -(1 + eps)])             # [side, q]; the t side has -srate at eps_p
        self.sides = np.unique(np.stack([srate, -srate]), return_inverse=True)
        self.ls = np.unique(np.stack([1 - eps, 1 + eps])[:, :, None], return_inverse=True)      # [side, q, 1]
        self.lt = np.unique(np.stack([eps - 1, -(eps + 1)])[:, None, :], return_inverse=True)   # [side, 1, p]
        self.pairs = np.repeat(self.ls[0], len(self.lt[0])), np.tile(self.lt[0], len(self.ls[0]))
        self.symmetric = bool(np.array_equal(eps, -eps[::-1]))
        _frozen(eps, self.diff, *self.mass, *self.sides, *self.ls, *self.lt, *self.pairs)


@lru_cache(maxsize=None)
def _layout(multipliers: tuple[int, ...]) -> _Layout:
    """The layout of a multiplier set, shared by every mesh and wavenumber.

    Unbounded: a layout is a few arrays of at most (number of multipliers)^2
    entries, and the two methods use two sets.
    """
    return _Layout(multipliers)


def _mass_band(plan: MeshPlan, multipliers: tuple[int, ...], kappa: float) -> np.ndarray:
    """Diagonals of the mass blocks: band[q, p, m-1+o, i] = E_qp[i, i+o].

    Every block E_qp is symmetric and E_pq is its conjugate: the local cell
    matrices are symmetrised and the blocks below the block diagonal
    conjugated, so E comes out exactly Hermitian.  When the mesh and the
    multipliers mirror (``MeshPlan.mirrored``, ``_Layout.symmetric``),
    reversing every axis of the band is J E J; the band is averaged with
    its reversal, so E is exactly centrosymmetric as well.
    """
    lay = _layout(multipliers)
    rates, at = lay.mass
    m = plan.splines.order
    pieces = plan.cells[4]
    tables = _cell_tables(plan.cells, pieces.swapaxes(0, 1), rates[:, None] * kappa)     # [k, b, a, c]
    local = tables.swapaxes(1, 2)[at]                                           # [q, p, a, b, c]
    pairs = np.zeros((m, 2 * m - 1, m, pieces.shape[-1]) + at.shape, dtype=complex)   # [b, x, a, c, q, p]
    pairs[:, m - 1] = (0.5 * (local + local.swapaxes(2, 3))).transpose(3, 2, 4, 0, 1)
    band = _band(pairs)
    for q in range(len(lay.eps)):
        band[q + 1:, q] = band[q, q + 1:].conj()
    if plan.mirrored and lay.symmetric:
        band = 0.5 * (band + band[::-1, ::-1, ::-1, ::-1])
    return band


def _operator_parts(space: TrialSpace, kernel: OscKernel, plan: MeshPlan):
    """K as generators plus diagonals: ``((x, S), band)``, or None for a zero kernel.

    With K(s,t) = sum_r phi_r(s) psi_r(t) (SVD), the phase on t < s (side 0)
    is kappa((1 - eps_q) s + (eps_p - 1) t) and on t > s (side 1)
    kappa(-(1 + eps_q) s + (eps_p + 1) t), so each side of a cell pair
    factorizes into per-cell tables of phi_r and psi_r; x[side, r, q, i] and
    S[side, r, p, l] sum them over the cells of B_i and B_l.  When
    l <= i - m every cell of B_l lies below every cell of B_i, so entry
    (i, l) of block (q, p) is sum_r x[0, r, q, i] S[0, r, p, l]; likewise
    side 1 when l >= i + m.  The 2m - 1 central diagonals take the cell
    pairs less than 2m - 1 apart and the shared-cell triangles, which are
    linear in each cell's coefficient tensor W.
    """
    C = kernel.coefficient_matrix()
    if not np.any(C):
        return None
    s0, h2, widths, group, P = plan.cells
    m, nc = P.shape[1:]
    kappa = space.kappa
    lay = _layout(space.multipliers)

    U, sv, Vh = np.linalg.svd(C, full_matrices=False)
    keep = sv > sv[0] * 1e-15
    roots = np.sqrt(sv[keep])
    R = len(roots)
    A0, B0 = C.shape
    T = _shift_scale(max(A0, B0) - 1, s0, h2)
    local = np.zeros((max(A0, B0), 2 * R, nc), dtype=complex)
    local[:A0, :R] = np.einsum("kac,ar->krc", T[:A0, :A0], U[:, keep] * roots)   # phi_r, local coordinates
    local[:B0, R:] = np.einsum("kbc,br->krc", T[:B0, :B0], Vh[keep].T * roots)   # psi_r

    rates, at = lay.sides
    tables = _cell_tables(plan.cells, local, rates[:, None] * kappa)      # [k, l, r, c]
    X = tables[at[0], :R]                                   # [side, q, r, a, c]
    Y = tables[at[1], R:]                                   # [side, p, r, b, c]
    gens = (_fold(X).swapaxes(1, 2), _fold(Y).swapaxes(1, 2))

    # cell pairs (c, c + x - (2m-2)) from side 0 below and side 1 above; the shared cells replace x = 2m-2
    side, shift = plan.pair_index
    Ypad = np.zeros(Y.shape[:-1] + (nc + 4 * m - 4,), dtype=complex)
    Ypad[..., 2 * m - 2:2 * m - 2 + nc] = Y
    Yx = Ypad[side, :, :, :, shift].transpose(4, 0, 1, 2, 3)[:, :, None, :, None]   # [b, x, 1, c, 1, p, r]
    Xx = X[side[:, 0]].transpose(0, 3, 4, 1, 2)[None, :, :, :, :, None]             # [1, x, a, c, q, 1, r]
    pairs = np.empty((m, 4 * m - 3, m, nc, len(lay.eps), len(lay.eps)), dtype=complex)   # [b, x, a, c, q, p]
    np.multiply(Xx[..., 0], Yx[..., 0], out=pairs)
    for r in range(1, R):
        pairs += Xx[..., r] * Yx[..., r]

    # shared cells: W[rj, rl, a, b, c] = local kernel factor times pieces rj (in u) and rl (in v)
    Cc = np.einsum("kac,ab,lbc->klc", T[:A0, :A0], C, T[:B0, :B0])
    W = np.zeros((m, m, A0 + m - 1, B0 + m - 1, nc), dtype=complex)
    for i in range(m):
        for j in range(m):
            W[:, :, i:i + A0, j:j + B0] += P[:, None, i, None, None] * P[None, :, j, None, None] * Cc
    A, B = W.shape[2:4]
    # the upper triangle (t > s) at phases (ls, lt) is the lower one at (-ls, -lt)
    # under (u, v) -> (-u, -v), with the sign (-1)^(a+b)
    (ls, ils), (lt, ilt) = lay.ls, lay.lt
    mu = _triangle_moments(np.multiply.outer(lay.pairs[0] * kappa, widths).ravel(),
                           np.multiply.outer(lay.pairs[1] * kappa, widths).ravel(), A, B)
    mu = mu.reshape(len(ls), len(lt), len(widths), A, B).transpose(0, 1, 3, 4, 2)
    flip = (-1.0) ** np.add.outer(np.arange(A), np.arange(B))[..., None]
    tri = (mu[ils[0], ilt[0]] + flip * mu[ils[1], ilt[1]])[..., group]   # [q, p, a, b, c]
    pre = h2 * h2 * np.exp(1j * np.multiply.outer(lay.diff * kappa, s0))
    pairs[:, 2 * m - 2] = (np.einsum("jlabc,qpabc->qpjlc", W, tri) * pre[:, :, None, None]).transpose(3, 2, 4, 0, 1)
    return gens, _band(pairs)


def _assemble(space: TrialSpace, kernel: OscKernel | None = None, mass: bool = False) -> np.ndarray:
    """E (no kernel), K (``mass`` false) or the rows of E - K that determine it, written once into one buffer.

    The generators' products go straight into the buffer (negated for
    E - K), block row by block row: side 0 over every block, then side 1
    over l >= i + m through a Toeplitz view of 2d - 1 flags; the central
    diagonals last.  On reflection-symmetric data only the leading
    ceil(n/2) rows are computed.  E - K is returned as those rows; K has
    its trailing rows mirrored from them into the n x n result
    (:func:`_mirror`).
    """
    d, m, nb = space.block_dim, space.splines.order, len(space.multipliers)
    n = nb * d
    h = n - n // 2 if kernel is not None and reflection_symmetric(space, kernel) else n
    plan = mesh_plan(space.splines.knots)
    parts = None if kernel is None else _operator_parts(space, kernel, plan)
    if not mass:
        band = np.zeros((nb, nb, 2 * m - 1, d), dtype=complex)
    elif space.multipliers == CGM_MULTIPLIERS:
        band = plan.gram
    else:
        band = _mass_band(plan, space.multipliers, space.kappa)
    A = (np.zeros if parts is None else np.empty)((h if mass else n, n), dtype=complex)
    if parts is not None:
        (x, S), op_band = parts
        if mass:
            x = -x
        band = band - op_band if mass else op_band
    inside, i, j = plan.band_index
    for q in range(-(-h // d)):
        r = min(h - q * d, d)                               # rows of block row q that are computed
        rows = A[q * d:q * d + r].reshape(r, nb, d)
        if parts is not None:
            for side, where in enumerate((True, plan.upper[:r])):
                xs, Ss = x[side, :, q, :r, None, None], S[side, :, None]
                np.multiply(xs[0], Ss[0], out=rows, where=where)
                for xr, Sr in zip(xs[1:], Ss[1:]):
                    np.add(rows, xr * Sr, out=rows, where=where)
        diagonals = band[q][:, inside]
        if r < d:                                           # the last, partial block row
            keep = i < r
            diagonals, i, j = diagonals[:, keep], i[keep], j[keep]
        rows[i, :, j] = diagonals.T
    if h < len(A):
        _mirror(A)
    return A


def _mirror(A: np.ndarray) -> None:
    """Overwrite A's trailing rows with its leading rows reversed, so J A J = A exactly.

    With E exactly centrosymmetric (see :func:`_mass_band`), this commutes
    with forming E - K: the trailing rows of E - K are those of E minus
    the mirrored ones of K, bit for bit.
    """
    n = A.shape[0]
    k, h = n // 2, n - n // 2
    A[h:] = A[:k][::-1, ::-1]
    if h > k:
        A[k, h:] = A[k, :k][::-1]


def assemble_mass(space: TrialSpace) -> np.ndarray:
    """Block Gram matrix E of the trial basis (Hermitian, diagonal blocks real)."""
    return _assemble(space, mass=True)


def assemble_operator(space: TrialSpace, kernel: OscKernel) -> np.ndarray:
    """Block matrix of the integral operator against the trial basis.

    The inner t-integral of each entry is split at t = s, and every piece
    comes in closed form from batched moments whose cost does not depend
    on kappa (see :func:`_operator_parts`).
    """
    _check_kappa(space, kernel.kappa)
    return _assemble(space, kernel)


def assemble_leading_rows(space: TrialSpace, kernel: OscKernel) -> np.ndarray:
    """The rows of E - K that determine it: the leading ceil(n/2) on reflection-symmetric data, else all n.

    All n rows are ``assemble_mass - assemble_operator`` bit for bit.  On
    reflection-symmetric data (:func:`reflection_symmetric`),
    J (E - K) J = E - K exactly, and the leading rows are its rows bit for
    bit except, for odd n, the middle row's trailing floor(n/2) entries,
    which :func:`assemble_operator` mirrors from the leading ones and
    :func:`oscfred.linalg.fold_rows` does not read.  ``fold_rows`` takes
    either.
    """
    _check_kappa(space, kernel.kappa)
    return _assemble(space, kernel, mass=True)


def reflection_symmetric(space: TrialSpace, kernel: OscKernel) -> bool:
    """Whether E - K commutes with the index reversal J, decided from the data.

    The trial basis must mirror (mirror-symmetric breakpoints, multipliers
    closed under negation); the reflection leaves |s - t| alone and fixes
    the kernel factor when K(-s, -t) = K(s, t), that is when its
    coefficients at odd a + b are exactly zero.  Then J (E - K) J = E - K
    up to roundoff, and assembly makes it exact: the mass band is averaged
    with its mirror image and only the leading rows are computed (the
    trailing ones copied from them), so :mod:`oscfred.linalg` solves and
    conditions the system on its two halves.
    """
    C = kernel.coefficient_matrix()
    odd = np.add.outer(np.arange(C.shape[0]), np.arange(C.shape[1])) % 2 == 1
    mirrors = mesh_plan(space.splines.knots).mirrored and _layout(space.multipliers).symmetric
    return mirrors and not np.any(C[odd])


def assemble_rhs(space: TrialSpace, f) -> np.ndarray:
    """Load vector of f against the trial basis.

    ``f`` may be a :class:`StructuredFunction` (closed form), or a smooth
    non-oscillatory callable, which is replaced per cell by its Chebyshev
    interpolant before exact integration.
    """
    cells = mesh_plan(space.splines.knots).cells
    s0, h2 = cells[:2]
    if isinstance(f, StructuredFunction):
        _check_kappa(space, f.kappa)
        if not f.terms:
            return np.zeros(space.dimension, dtype=complex)
        taus = np.array([tau for tau, _ in f.terms])
        coeffs = np.zeros((f.max_degree + 1, len(taus)), dtype=complex)
        for t, (_, w) in enumerate(f.terms):
            coeffs[:w.degree + 1, t] = w.coeffs
        local = np.einsum("kac,at->ktc", _shift_scale(f.max_degree, s0, h2), coeffs)
    else:
        if not callable(f):
            raise TypeError("right-hand side must be a StructuredFunction or a callable")
        taus = np.zeros(1, dtype=int)
        local = _chebfit_cells(f, s0, h2, _RHS_FIT_DEGREE)[:, None]
    rates = taus - np.array(space.multipliers)[:, None]     # [q, t]: tau_t - eps_q
    return _fold(_cell_tables(cells, local, rates * space.kappa).sum(axis=1)).ravel()


def eval_solution(space: TrialSpace, a, s):
    """Evaluate  sum_p sum_j a[(p,j)] B_j(s) e^{i*eps_p*kappa*s}  at s (scalar or array).

    On :data:`EN_GRID` itself the B-spline values come from the mesh plan.
    The carriers e^{+-i*kappa*s} share one exponential (e^{-i*kappa*s} is
    the conjugate of e^{i*kappa*s}), and eps = 0 takes none.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (space.dimension,):
        raise ValueError(f"coefficient vector must have length {space.dimension}, got {a.shape}")
    sp = space.splines
    d = sp.dimension
    scalar = np.ndim(s) == 0
    pts = np.atleast_1d(np.asarray(s, dtype=float))
    if pts is EN_GRID:
        idx, vals = mesh_plan(sp.knots).en_values
    else:
        j0, vals = sp.eval_nonzero(pts)
        idx = j0[:, None] + np.arange(sp.order)
    out = np.zeros(len(pts), dtype=complex)
    wave = None
    for bi, eps in enumerate(space.multipliers):
        term = np.einsum("ir,ir->i", vals, a[bi * d + idx])
        if abs(eps) == 1:
            wave = np.exp(1j * space.kappa * pts) if wave is None else wave
            term *= wave if eps == 1 else wave.conj()
        elif eps:
            term *= np.exp(1j * eps * space.kappa * pts)
        out += term
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def relative_error_eN(y_h: Callable, y: Callable, norm_y: float) -> float:
    """Relative L2 error metric sampled on the fixed 2048-point grid.

    Implements (1/norm_y) * sqrt(sum_j |y(s_j) - y_h(s_j)|^2 / 2048) with
    s_j = -1 + j/1024, j = 1..2048.
    """
    if not norm_y > 0:
        raise ValueError("norm_y must be positive")
    diff = np.asarray(y(EN_GRID)) - np.asarray(y_h(EN_GRID))
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)) / norm_y)


def convergence_order(e_N: float, e_2N: float) -> float:
    """Observed order log2(e_N / e_2N) from errors at mesh sizes N and 2N."""
    if not (e_N > 0 and e_2N > 0):
        raise ValueError("convergence_order requires positive errors")
    return math.log2(e_N / e_2N)


# ---------------------------------------------------------------------------
# Closed-form application of the integral operator to structured functions
# ---------------------------------------------------------------------------

def _times_power(coeffs: np.ndarray, a: int) -> np.ndarray:
    """Coefficients of s^a times the polynomial ``coeffs``."""
    return np.concatenate((np.zeros(a, dtype=complex), coeffs))


def apply_kernel_structured(kernel: OscKernel, y: StructuredFunction) -> StructuredFunction:
    """Closed-form K y for a polynomial kernel factor and structured y.

    Splitting the integral at t = s turns each term w(t) e^{i*tau*kappa*t}
    into boundary-expansion polynomials, so the image is again structured:
    the pieces on each carrier are summed, in the order they arise, by
    :class:`StructuredFunction`.  Raises if the kernel is not polynomial
    or an amplitude degree would exceed 16.

    The expansion divides by ((tau -/+ 1) kappa)^(k+1) against k!-sized
    factors, so it loses digits where |tau -/+ 1| kappa is below the
    amplitude degree: for y = (1 + s + ... + s^12) + e^{i*kappa*s} and a
    unit kernel factor the relative error is 1.8e-10 at kappa = 1.5,
    1.5e-13 at kappa = 3 and 1e-15 at kappa = 10.
    """
    if not kernel.is_polynomial:
        raise ValueError("closed-form operator application needs a polynomial kernel factor")
    if not math.isclose(kernel.kappa, y.kappa, rel_tol=1e-12):
        raise ValueError("kernel and structured function carry different wavenumbers")
    C = kernel.coefficient_matrix()
    kappa = kernel.kappa
    pieces: list[tuple[int, np.ndarray]] = []
    for tau, w in y.terms:
        for a in range(C.shape[0]):
            row = C[a, :]
            if not np.any(row):
                continue
            pa = np.convolve(_trim(row), w.coeffs)
            # lower part: e^{i*kappa*s} * int_{-1}^{s} pa(t) e^{i*mu*t} dt
            mu = (tau - 1) * kappa
            if mu == 0.0:
                P = _polyint(pa)
                poly = P.copy()
                poly[0] -= _polyval(P, -1.0)
                pieces.append((1, _times_power(poly, a)))
            else:
                sg = _sigma_coeffs(pa, mu)
                pieces.append((tau, _times_power(sg, a)))
                pieces.append((1, _times_power(np.array([-np.exp(-1j * mu) * _polyval(sg, -1.0)]), a)))
            # upper part: e^{-i*kappa*s} * int_{s}^{1} pa(t) e^{i*nu*t} dt
            nu = (tau + 1) * kappa
            if nu == 0.0:
                P = _polyint(pa)
                poly = -P
                poly[0] += _polyval(P, 1.0)
                pieces.append((-1, _times_power(poly, a)))
            else:
                sg = _sigma_coeffs(pa, nu)
                pieces.append((-1, _times_power(np.array([np.exp(1j * nu) * _polyval(sg, 1.0)]), a)))
                pieces.append((tau, _times_power(-sg, a)))
    image = StructuredFunction(kappa, pieces)
    for tau, p in image.terms:
        if p.degree > _MAX_AMPLITUDE_DEGREE:
            raise ValueError(f"amplitude degree {p.degree} on carrier {tau} exceeds the cap {_MAX_AMPLITUDE_DEGREE}")
    return image


# ---------------------------------------------------------------------------
# Quadrature oracles (independent route for every assembled entry)
# ---------------------------------------------------------------------------

def operator_entry_quadrature(space: TrialSpace, kernel: OscKernel, row: int, col: int,
                              density: float = 20.0) -> complex:
    """Brute-force value of operator entry (row, col) by oscillation-resolving quadrature.

    Each cell of the supports of B_j and B_l takes a composite Gauss rule
    with at least ``density`` nodes per wavelength of the rate 2*kappa, and
    the double integral is one tensor product over the pairs of distinct
    cells.  On a shared cell [t_a, t_b] the t-integral is split at the kink
    t = s: the cell's rule on [0, 1] is mapped onto [t_a, s] and [s, t_b]
    for every s node at once.  Doubling ``density`` is the refinement
    check used by the self-test suite.
    """
    sp = space.splines
    kappa = space.kappa
    d = sp.dimension
    qi, j = divmod(row, d)
    pi, l = divmod(col, d)
    eq = space.multipliers[qi]
    ep = space.multipliers[pi]

    def integrand(S, T):
        return kernel.eval_grid(S, T) * np.exp(1j * kappa * (np.abs(S - T) + ep * T - eq * S))

    def panels(c):
        a, b = sp.cell_bounds(c)
        return max(2, _panels(2 * kappa, b - a, density))

    def support_rule(basis):
        """Nodes, weights times B_basis and cell index of the rules on the cells of B_basis."""
        cells = sp.cells_of_basis(basis)
        rules = [_composite_rule(*sp.cell_bounds(c), panels(c)) for c in cells]
        nodes, weights = (np.concatenate(x) for x in zip(*rules))
        return nodes, weights * sp.eval_basis(basis, nodes), np.repeat(cells, [len(x) for x, _ in rules])

    S, ws, cs = support_rule(j)
    T, wt, ct = support_rule(l)
    V = integrand(S[:, None], T)
    V[cs[:, None] == ct] = 0.0
    total = ws @ V @ wt
    for c in set(cs) & set(ct):
        on = cs == c
        u, wu = _composite_rule(0.0, 1.0, panels(c))
        for end in sp.cell_bounds(c):
            span = S[on, None] - end
            Tc = end + span * u                             # the rule on [end, s] or [s, end]
            Bl = sp.eval_basis(l, Tc.ravel()).reshape(Tc.shape)
            total += ws[on] @ (integrand(S[on, None], Tc) * Bl * np.abs(span)) @ wu
    return complex(total)


def mass_entry_quadrature(space: TrialSpace, row: int, col: int) -> complex:
    """Brute-force value of mass entry (row, col), cell by cell.

    Integrating each cell on its own keeps the breakpoints, where the
    spline product loses smoothness, off the interior of every panel.
    """
    sp = space.splines
    kappa = space.kappa
    d = sp.dimension
    qi, j = divmod(row, d)
    pi, l = divmod(col, d)
    omega = (space.multipliers[pi] - space.multipliers[qi]) * kappa
    fn = lambda t: sp.eval_basis(j, t) * sp.eval_basis(l, t) * np.exp(1j * omega * t)
    cells = sorted(set(sp.cells_of_basis(j)) & set(sp.cells_of_basis(l)))
    return complex(sum(oscillatory_quad(fn, *sp.cell_bounds(c), omega, target=1e-15) for c in cells))


def rhs_entry_quadrature(space: TrialSpace, f: Callable, row: int) -> complex:
    """Brute-force value of load entry ``row`` for a callable f, cell by cell."""
    sp = space.splines
    kappa = space.kappa
    d = sp.dimension
    qi, j = divmod(row, d)
    eq = space.multipliers[qi]
    rate = (abs(eq) + _STRUCTURE_RANGE) * kappa
    fn = lambda t: f(t) * sp.eval_basis(j, t) * np.exp(-1j * eq * kappa * t)
    return complex(sum(oscillatory_quad(fn, *sp.cell_bounds(c), rate, target=1e-15)
                       for c in sp.cells_of_basis(j)))
