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
Those moments and their regime switches live in :mod:`oscfred.oscquad`;
this module only assembles them.
Smooth non-polynomial data is reduced to the same path by Chebyshev
interpolation (a Filon-type approximation of the amplitude), which keeps
assembly kappa-independent but requires the data itself to be
non-oscillatory -- oscillatory right-hand sides must be expressed as a
:class:`StructuredFunction`.  One routine, :func:`_chebfit`, makes every
such fit: a kernel factor's tensor fit once, when :meth:`OscKernel.smooth`
builds the kernel, and a callable load's fit per cell at assembly.

Assembly works on whole arrays of cells.  A cell enters the phase-dependent
moments only through its width, so each family of cell integrals (operator
tables, mass, load, shared-cell triangles) takes one batched moment call
over its rates and distinct cell widths -- a few for a uniform mesh -- and
one contraction.  Off the 2m - 1 central diagonals of each block, E - K is
a rank-R product of generators (per-basis sums of the operator's cell
tables, R the kernel factor's rank), written straight into the rows that
:func:`system_rows` builds on request from the band and generators; only
the central diagonals take single cell pairs and the shared-cell
triangles, which read the generators' rank-R cell products.  What depends
on the mesh alone sits in an immutable :class:`MeshPlan`, shared by the
solves at every wavenumber.  The quadrature oracles at the bottom of the
module integrate the defining formulas numerically and exist to cross-check
the closed forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp
from numpy.polynomial._polybase import ABCPolyBase
from numpy.polynomial.polyutils import trimseq

from .bspline import KnotVector, SplineSpace, _uniform_knots
from .oscquad import (
    _composite_rule,
    _eval_on,
    _frozen,
    _panels,
    _sigma_rule,
    _triangle_moments,
    _unit_moments,
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
    "system_rows",
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

def _check_kappa(a: float, b: float) -> None:
    if not math.isclose(a, b, rel_tol=1e-12):
        raise ValueError(f"wavenumber mismatch: {a} against {b}")


def _amplitude(amp) -> np.ndarray:
    """Power-basis coefficients of an amplitude (sequence or numpy series), as a trimmed complex copy."""
    if isinstance(amp, ABCPolyBase):
        # a Polynomial whose domain is its window holds them already; convert() costs about 0.15 ms
        if not (isinstance(amp, Polynomial) and np.array_equal(amp.domain, amp.window)):
            amp = amp.convert(kind=Polynomial)
        amp = amp.coef
    c = np.array(amp, dtype=complex, ndmin=1)
    if c.ndim != 1 or not len(c):
        raise ValueError("amplitude coefficients must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(c)):
        raise ValueError("amplitude coefficients must be finite")
    return trimseq(c)


class StructuredFunction:
    """Finite sum  sum_tau w_tau(s) e^{i*tau*kappa*s}  with polynomial amplitudes.

    This is the closed-form representation of oscillatory data: the
    carriers e^{i*tau*kappa*s} are explicit, the amplitudes are smooth
    polynomials, so all Galerkin integrals against it reduce to exact
    moments.  Amplitudes are power-basis coefficient sequences (ascending)
    or :mod:`numpy.polynomial` series; ``terms`` holds (tau, trimmed read-only
    complex array) pairs sorted by tau in [-2, 2], repeated carriers summed
    and zero amplitudes dropped.
    """

    __slots__ = ("kappa", "terms")

    def __init__(self, kappa: float, terms: Mapping[int, object] | Iterable[tuple[int, object]]):
        if not (math.isfinite(kappa) and kappa > 0):
            raise ValueError("wavenumber must be positive and finite")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, np.ndarray] = {}
        for tau, amp in items:
            if not isinstance(tau, numbers.Integral) or isinstance(tau, bool):
                raise ValueError(f"carrier index must be an integer, got {tau!r}")
            tau = int(tau)
            if abs(tau) > _STRUCTURE_RANGE:
                raise ValueError(f"carrier index {tau} outside [-{_STRUCTURE_RANGE}, {_STRUCTURE_RANGE}]")
            c = _amplitude(amp)
            merged[tau] = npp.polyadd(merged[tau], c) if tau in merged else c
        self.kappa = float(kappa)
        self.terms = tuple(sorted((t, *_frozen(c)) for t, c in merged.items() if len(c) > 1 or c[0]))

    @property
    def max_degree(self) -> int:
        return max((len(c) - 1 for _, c in self.terms), default=0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape, dtype=complex) if s.ndim else 0.0 + 0.0j
        for tau, c in self.terms:
            w = npp.polyval(s, c)
            out = out + (w * np.exp(1j * tau * self.kappa * s) if tau else w)
        return out

    def __add__(self, other: "StructuredFunction") -> "StructuredFunction":
        if not isinstance(other, StructuredFunction):
            raise TypeError("expected a StructuredFunction")
        _check_kappa(self.kappa, other.kappa)
        return StructuredFunction(self.kappa, list(self.terms) + list(other.terms))

    def __sub__(self, other: "StructuredFunction") -> "StructuredFunction":
        return self + (-other)

    def __neg__(self) -> "StructuredFunction":
        return StructuredFunction(self.kappa, [(t, -c) for t, c in self.terms])

    def __repr__(self) -> str:
        taus = [t for t, _ in self.terms]
        return f"StructuredFunction(kappa={self.kappa}, carriers={taus})"


class OscKernel:
    """Smooth kernel factor K(s,t) of the oscillatory kernel K(s,t) e^{i*kappa*|s-t|}.

    An immutable value: ``coeffs`` is a read-only monomial coefficient
    matrix, entry [a, b] multiplying s^a t^b, fixed at construction.
    :meth:`polynomial` keeps a private copy of the caller's nonempty matrix;
    :meth:`smooth` replaces a non-oscillatory callable by its degree-16
    tensor Chebyshev interpolant on I^2 (:func:`_chebfit`), so a factor
    that is not finite there or that the fit does not resolve raises at
    once.  ``func`` keeps the callable (None for a polynomial factor) for
    :meth:`eval_grid`, the quadrature oracle's view of the factor.  The
    factor must not depend on kappa; the wavenumber lives in (1, inf).
    """

    __slots__ = ("kappa", "coeffs", "func")

    def __init__(self, kappa: float, poly_st=None, func: Callable | None = None):
        if not (math.isfinite(kappa) and kappa > 1.0):
            raise ValueError("wavenumber must be finite and exceed 1")
        if (poly_st is None) == (func is None):
            raise ValueError("provide exactly one of poly_st or func")
        if func is None:
            C = np.array(poly_st, dtype=complex, ndmin=2)
            if C.ndim != 2 or not C.size:
                raise ValueError("poly_st must be a nonempty 2-d coefficient array")
            if not np.all(np.isfinite(C)):
                raise ValueError("poly_st coefficients must be finite")
        else:
            C = _chebfit(func, lambda x: np.meshgrid(x, x, indexing="ij"), _KERNEL_FIT_DEGREE, 2,
                         "kernel factor", "tensor Chebyshev fit", floor=1e-15)
            a, b = np.nonzero(C)                            # drop trailing all-zero rows and columns
            C = C[:max(a, default=0) + 1, :max(b, default=0) + 1]
        self.kappa = float(kappa)
        self.coeffs, = _frozen(C)
        self.func = func

    @classmethod
    def polynomial(cls, coeffs, kappa: float) -> "OscKernel":
        return cls(kappa=kappa, poly_st=coeffs)

    @classmethod
    def smooth(cls, func: Callable, kappa: float) -> "OscKernel":
        return cls(kappa=kappa, func=func)

    @property
    def is_polynomial(self) -> bool:
        return self.func is None

    def eval_grid(self, S, T):
        """Factor values on broadcastable arrays (used by the quadrature oracle)."""
        if self.func is None:
            Sb, Tb = np.broadcast_arrays(np.asarray(S, float), np.asarray(T, float))
            return np.polynomial.polynomial.polyval2d(Sb, Tb, self.coeffs)
        return _eval_on(self.func, S, T)


@dataclass(frozen=True)
class TrialSpace:
    """A spline space together with the oscillatory carriers of its basis.

    The basis consists of B_j(s) e^{i*eps*kappa*s} for every spline index j
    and every multiplier eps, blocks ordered as ``multipliers``, which are
    kept as a tuple of ints (the key of the multipliers' layout), each
    below 2**62 in magnitude.
    """

    splines: SplineSpace
    kappa: float
    multipliers: tuple[int, ...]

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("wavenumber must be positive and finite")
        eps = tuple(int(e) for e in self.multipliers if isinstance(e, numbers.Integral) and not isinstance(e, bool))
        if len(eps) != len(self.multipliers) or len(set(eps)) != len(eps) or not eps:
            raise ValueError("multipliers must be a nonempty set of distinct integers")
        for e in eps:
            if abs(e) >= 2 ** 62:
                raise ValueError(f"multiplier {e} is out of range: |eps| must be below 2**62, "
                                 f"so that the layout's differences of multipliers fit in int64")
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


def _chebfit(func: Callable, at: Callable, deg: int, axes: int, name: str, fit: str,
             hint: str = "", floor: float = 0.0) -> np.ndarray:
    """Monomial coefficients of the degree-``deg`` Chebyshev interpolant of ``func`` along its values' leading axes.

    ``at(x)`` maps the points x = chebpts1(deg + 1) to the arguments of
    ``func``, whose values take one axis of x for each of the leading
    ``axes`` axes, in the variables' order; the interpolant's monomial
    coefficients take their place, the other axes (cells, say) as they
    were.  A non-finite sample raises.  So does a fit whose coefficients
    of degree deg - 1 or deg along any fitted axis exceed
    :data:`_FIT_TAIL` of its largest, both taken over the fitted axes at
    each index of the others.  Chebyshev coefficients below ``floor`` of
    that largest become zero before conversion.
    """
    cheb = np.polynomial.chebyshev
    x = cheb.chebpts1(deg + 1)
    vals = np.asarray(_eval_on(func, *at(x)), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite on [-1, 1]" + (f"^{axes}" if axes > 1 else ""))

    def along_each(f, a):
        """f applied to the leading axis, which then moves behind the other fitted ones, ``axes`` times."""
        for _ in range(axes):
            a = np.moveaxis(f(a.reshape(deg + 1, -1)).reshape(a.shape), 0, axes - 1)
        return a

    coef = along_each(lambda v: cheb.chebfit(x, v, deg), vals)
    mag = np.abs(coef)
    fitted = tuple(range(axes))
    scale = np.maximum(mag.max(axis=fitted), 1e-300)
    tail = mag.copy()
    tail[(slice(deg - 1),) * axes] = 0.0
    if np.any(tail.max(axis=fitted) > _FIT_TAIL * scale):
        raise ValueError(
            f"{name} is not resolved by the fixed degree-{deg} {fit}: its trailing "
            f"coefficients exceed {_FIT_TAIL:g} of its largest{hint}"
        )
    return along_each(_cheb_to_mono(deg).__matmul__, np.where(mag < floor * scale, 0.0, coef))


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


def _to_cells(s0: np.ndarray, h2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """local[k, l, c] = coefficient of x^k in amp_l(s0 + h2*x) on cell c, amp_l(s) = sum_a coeffs[a, l] s^a."""
    a = np.arange(len(coeffs))
    binom = np.array([[math.comb(j, k) for j in a] for k in a], dtype=float)
    s0_powers = np.vander(s0, len(a), increasing=True).T[np.maximum(a - a[:, None], 0)]
    T = binom[:, :, None] * s0_powers * np.vander(h2, len(a), increasing=True).T[:, None]   # [k, a, c]
    return np.einsum("kac,al->klc", T, coeffs)


def _with_pieces(pieces: np.ndarray, local: np.ndarray) -> np.ndarray:
    """prod[n, l, r, c] = coefficient of x^n in amp_l B_{c+r} on cell c, ``local`` as :func:`_to_cells` gives it."""
    m, nc = pieces.shape[1:]
    prod = np.zeros((len(local) + m - 1, local.shape[1], m, nc), dtype=complex)
    for i in range(m):
        prod[i:i + len(local)] += local[:, :, None] * pieces[:, i]
    return prod


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
        """upper[i, 0, l] = l - i >= m: where side 1's generators hold within a block (:func:`_rows`)."""
        d, m = self.splines.dimension, self.splines.order
        return sliding_window_view(np.arange(1 - d, d) >= m, d)[::-1, None]

    @cached_property
    def band_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(inside, i, j)``: the central-diagonal entries (i, j) of a block, row by row.

        inside[i, m-1+o] flags the entries (i, i+o) that lie in the block.
        """
        d, m = self.splines.dimension, self.splines.order
        i = np.arange(d)[:, None]
        j = i + np.arange(1 - m, m)                                 # j[i, m-1+o] = i + o
        inside = (j >= 0) & (j < d)
        return _frozen(inside, np.broadcast_to(i, j.shape)[inside], j[inside])

    @cached_property
    def gram(self) -> np.ndarray:
        """The plain method's mass band: every rate is 0, so it is the splines' Gram band at every kappa."""
        band, = _frozen(_mass_band(self, CGM_MULTIPLIERS, 0.0))
        return band


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


def _cell_tables(cells, prod: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """V[k, l, r, c] = int_{cell c} amp_l(s) B_{c+r}(s) e^{i*rates[k, l]*s} ds for all k, l, r, c.

    ``prod`` holds the products amp_l B_{c+r} of :func:`_with_pieces`.
    ``rates`` is (K, L), pairing each rate with its amplitude, or (K, 1)
    for every rate against every amplitude.  One moment call covers every
    (rate, cell width).
    """
    s0, h2, widths, group = cells[:4]
    mom = _unit_moments(np.multiply.outer(rates, widths).ravel(), len(prod) - 1)
    mom = mom.T.reshape((len(prod),) + rates.shape + (len(widths),))   # [n, k, l, width]
    if len(widths) > 1:
        mom = mom[..., group]                               # [n, k, l, c]; a single width broadcasts
    V = sum(mom[n][:, :, None] * prod[n] for n in range(len(prod)))
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


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

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
    prod = _with_pieces(pieces, pieces.swapaxes(0, 1))                          # [n, b, a, c]
    tables = _cell_tables(plan.cells, prod, rates[:, None] * kappa)             # [k, b, a, c]
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
    pairs less than 2m - 1 apart and the shared-cell triangles, whose tensor
    W sums over r the cell products phi_r B_{c+j} psi_r B_{c+l} the tables take.
    """
    C = kernel.coeffs
    if not np.any(C):
        return None
    s0, h2, widths, group, P = plan.cells
    m, nc = P.shape[1:]
    kappa = space.kappa
    lay = _layout(space.multipliers)

    U, sv, Vh = np.linalg.svd(C, full_matrices=False)
    if not np.isfinite(sv[0]):
        raise ValueError("kernel factor poly_st is too large: its largest singular value overflows")
    k = math.frexp(sv[0])[1] // 2       # phi_r, psi_r carry 2^-k: W's sums stay in range, and 2^k moves no bit
    keep = sv > sv[0] * 1e-15
    roots = np.sqrt(sv[keep]) * 2.0 ** -k
    R = len(roots)
    coeffs = np.zeros((max(C.shape), 2 * R), dtype=complex)
    coeffs[:C.shape[0], :R] = U[:, keep] * roots            # phi_r
    coeffs[:C.shape[1], R:] = Vh[keep].T * roots            # psi_r
    prod = _with_pieces(P, _to_cells(s0, h2, coeffs))       # [n, r, j, c]

    rates, at = lay.sides
    tables = _cell_tables(plan.cells, prod, rates[:, None] * kappa)   # [k, l, r, c]
    X = tables[at[0], :R]                                   # [side, q, r, a, c]
    Y = tables[at[1], R:]                                   # [side, p, r, b, c]
    gens = (_fold(X).swapaxes(1, 2) * 2.0 ** k, _fold(Y).swapaxes(1, 2) * 2.0 ** k)
    # shared cells: W[j, l, a, b, c] = coefficient of u^a v^b in 4^-k K(s, t) B_{c+j}(s) B_{c+l}(t) on cell c
    W = np.einsum("arjc,brlc->jlabc", prod[:, :R], prod[:, R:])
    del prod                                                # a fitted factor's largest table

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

    A = W.shape[2]
    # the upper triangle (t > s) at phases (ls, lt) is the lower one at (-ls, -lt)
    # under (u, v) -> (-u, -v), with the sign (-1)^(a+b)
    (ls, ils), (lt, ilt) = lay.ls, lay.lt
    mu = _triangle_moments(np.multiply.outer(lay.pairs[0] * kappa, widths).ravel(),
                           np.multiply.outer(lay.pairs[1] * kappa, widths).ravel(), A, A)
    mu = mu.reshape(len(ls), len(lt), len(widths), A, A).transpose(0, 1, 3, 4, 2)
    flip = (-1.0) ** np.add.outer(np.arange(A), np.arange(A))[..., None]
    tri = (mu[ils[0], ilt[0]] + flip * mu[ils[1], ilt[1]])[..., group]   # [q, p, a, b, c]
    pre = h2 * h2 * np.exp(1j * np.multiply.outer(lay.diff * kappa, s0))
    pairs[:, 2 * m - 2] = (np.einsum("jlabc,qpabc->qpjlc", W, tri) * pre[:, :, None, None]).transpose(3, 2, 4, 0, 1)
    return gens, _band(pairs) * 2.0 ** k * 2.0 ** k


def _rows(space: TrialSpace, kernel: OscKernel | None = None, mass: bool = False):
    """``(fill, h)``: ``fill(out, lo)`` writes rows lo.. of E (no kernel), K (``mass`` false) or E - K into out.

    The band and the generators are formed here once.  Their products go
    in (negated for E - K) block row by block row: side 0 over every
    block, then side 1 over l >= i + m through a Toeplitz view of 2d - 1
    flags; the central diagonals last.  The leading h rows determine the
    matrix: ceil(n/2) on reflection-symmetric data (the odd middle row's
    trailing floor(n/2) entries mirrored from its leading ones), else n.
    """
    d, m, nb = space.block_dim, space.splines.order, len(space.multipliers)
    n = nb * d
    k = n // 2
    h = n - k if kernel is not None and reflection_symmetric(space, kernel) else n
    plan = mesh_plan(space.splines.knots)
    parts = None if kernel is None else _operator_parts(space, kernel, plan)
    if not mass:
        band = np.zeros((nb, nb, 2 * m - 1, d), dtype=complex)
    elif space.multipliers == CGM_MULTIPLIERS:
        band = plan.gram
    else:
        band = _mass_band(plan, space.multipliers, space.kappa)
    if parts is not None:
        (x, S), op_band = parts
        if mass:
            x = -x
        band = band - op_band if mass else op_band
    inside, i, j = plan.band_index
    rows_of, cols = (np.arange(nb)[:, None] * d + i).ravel(), np.tile(j, nb)   # the diagonals' entries, by row
    diagonals = band.swapaxes(2, 3)[:, :, inside].transpose(0, 2, 1).reshape(len(rows_of), nb)

    def fill(out: np.ndarray, lo: int) -> np.ndarray:
        hi = lo + len(out)
        rows = out.reshape(len(out), nb, d)
        if parts is None:
            rows[...] = 0.0
        else:
            for q in range(lo // d, -(-hi // d)):
                a, b = max(lo - q * d, 0), min(hi - q * d, d)              # the rows of block row q
                block = rows[q * d + a - lo:q * d + b - lo]
                for side, where in enumerate((True, plan.upper[a:b])):
                    xs, Ss = x[side, :, q, a:b, None, None], S[side, :, None]
                    np.multiply(xs[0], Ss[0], out=block, where=where)
                    for xr, Sr in zip(xs[1:], Ss[1:]):
                        np.add(block, xr * Sr, out=block, where=where)
        at = slice(*np.searchsorted(rows_of, (lo, hi)))
        rows[rows_of[at] - lo, :, cols[at]] = diagonals[at]
        if k < h < n and lo <= k < hi:
            out[k - lo, h:] = out[k - lo, :k][::-1]
        return out

    return fill, h


def _assemble(space: TrialSpace, kernel: OscKernel | None = None) -> np.ndarray:
    """E (no kernel) or K; rows past the leading h of :func:`_rows` are those rows reversed, so J K J = K exactly.

    As J E J = E exactly (:func:`_mass_band`), each entry of E - K is E's minus the mirrored one of K, bit for bit.
    """
    n = space.dimension
    fill, h = _rows(space, kernel, mass=kernel is None)
    A = np.empty((n, n), dtype=complex)
    fill(A[:h], 0)
    A[h:] = A[:n - h][::-1, ::-1]
    return A


def assemble_mass(space: TrialSpace) -> np.ndarray:
    """Block Gram matrix E of the trial basis (Hermitian, diagonal blocks real)."""
    return _assemble(space)


def assemble_operator(space: TrialSpace, kernel: OscKernel) -> np.ndarray:
    """Block matrix of the integral operator against the trial basis.

    The inner t-integral of each entry is split at t = s, and every piece
    comes in closed form from batched moments whose cost does not depend
    on kappa (see :func:`_operator_parts`).
    """
    _check_kappa(space.kappa, kernel.kappa)
    return _assemble(space, kernel)


def system_rows(space: TrialSpace, kernel: OscKernel) -> tuple[Callable[[int, int], np.ndarray], int]:
    """``(rows, h)``: ``rows(lo, hi)`` builds rows lo..hi-1 of E - K afresh from a band and generators formed once.

    The leading h rows determine E - K and are those of ``assemble_mass -
    assemble_operator`` bit for bit: ceil(n/2) on reflection-symmetric
    data (:func:`reflection_symmetric`), where J (E - K) J = E - K
    exactly, else n.  :func:`oscfred.linalg.solve` takes ``rows``, n and h as they are.
    """
    _check_kappa(space.kappa, kernel.kappa)
    fill, h = _rows(space, kernel, mass=True)
    return (lambda lo, hi: fill(np.empty((hi - lo, space.dimension), dtype=complex), lo)), h


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
    C = kernel.coeffs
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
        _check_kappa(space.kappa, f.kappa)
        if not f.terms:
            return np.zeros(space.dimension, dtype=complex)
        taus = np.array([tau for tau, _ in f.terms])
        coeffs = np.zeros((f.max_degree + 1, len(taus)), dtype=complex)
        for t, (_, w) in enumerate(f.terms):
            coeffs[:len(w), t] = w
        local = _to_cells(s0, h2, coeffs)
    else:
        if not callable(f):
            raise TypeError("right-hand side must be a StructuredFunction or a callable")
        taus = np.zeros(1, dtype=int)
        local = _chebfit(f, lambda x: (s0 + h2 * x[:, None],), _RHS_FIT_DEGREE, 1, "right-hand side",
                         "Chebyshev fit per cell", "; oscillatory data must be given in structured form")[:, None]
    rates = taus - np.array(space.multipliers)[:, None]     # [q, t]: tau_t - eps_q
    return _fold(_cell_tables(cells, _with_pieces(cells[4], local), rates * space.kappa).sum(axis=1)).ravel()


def eval_solution(space: TrialSpace, a, s):
    """Evaluate  sum_p sum_j a[(p,j)] B_j(s) e^{i*eps_p*kappa*s}  at s, a scalar or an array of any shape.

    Returns a complex scalar or an array of the shape of s.  On
    :data:`EN_GRID` itself the B-spline values come from the mesh plan.
    The carriers e^{+-i*kappa*s} share one exponential (e^{-i*kappa*s} is
    the conjugate of e^{i*kappa*s}), and eps = 0 takes none.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (space.dimension,):
        raise ValueError(f"coefficient vector must have length {space.dimension}, got {a.shape}")
    sp = space.splines
    d = sp.dimension
    s = np.asarray(s, dtype=float)
    pts = s.ravel()
    if s is EN_GRID:
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
    return complex(out[0]) if s.ndim == 0 else out.reshape(s.shape)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def relative_error_eN(y_h: Callable, y: Callable, norm_y: float) -> float:
    """Relative L2 error metric sampled on the fixed 2048-point grid.

    Implements (1/norm_y) * sqrt(sum_j |y(s_j) - y_h(s_j)|^2 / 2048) with
    s_j = -1 + j/1024, j = 1..2048.
    """
    if not (math.isfinite(norm_y) and norm_y > 0):
        raise ValueError(f"norm_y must be finite and positive, got {norm_y!r}")
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

def apply_kernel_structured(kernel: OscKernel, y: StructuredFunction) -> StructuredFunction:
    """Closed-form K y for a polynomial kernel factor and structured y.

    Splitting the integral at t = s turns each term w(t) e^{i*tau*kappa*t}
    into boundary-expansion polynomials (the tables of
    :func:`oscfred.oscquad._sigma_rule`), so the image is again structured:
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
    _check_kappa(kernel.kappa, y.kappa)
    C = kernel.coeffs
    kappa = kernel.kappa
    pieces: list[tuple[int, np.ndarray]] = []
    for tau, w in y.terms:
        for a in range(C.shape[0]):
            row = C[a, :]
            if not np.any(row):
                continue
            pa = np.convolve(trimseq(row), w)
            shift = np.zeros(a, dtype=complex)              # times s^a
            # side t < s is e^{i*kappa*s} int_{-1}^{s} pa(t) e^{i*mu*t} dt, side t > s is
            # e^{-i*kappa*s} int_{s}^{1} (p = -pa carries its sign); each is F(s) e^{i*tau*kappa*s}
            # plus a constant times the carrier, -e^{i*mu*end} F(end)
            for carrier, end, p in ((1, -1.0, pa), (-1, 1.0, -pa)):
                mu = (tau - carrier) * kappa
                if mu == 0.0:                               # tau is the carrier: F is an antiderivative
                    F = npp.polyint(p, lbnd=end)
                else:
                    ratio, power = _sigma_rule(len(p))[:2]
                    F = p @ (ratio * (1.0 / (1j * mu)) ** power)
                    pieces.append((carrier, np.concatenate((shift, [-np.exp(1j * mu * end) * npp.polyval(end, F)]))))
                pieces.append((tau, np.concatenate((shift, F))))
    image = StructuredFunction(kappa, pieces)
    for tau, p in image.terms:
        if len(p) - 1 > _MAX_AMPLITUDE_DEGREE:
            raise ValueError(f"amplitude degree {len(p) - 1} on carrier {tau} exceeds the cap {_MAX_AMPLITUDE_DEGREE}")
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
