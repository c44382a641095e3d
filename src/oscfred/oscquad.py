"""Quadrature engine for integrals with a linear oscillatory phase.

Everything in this module revolves around integrals of the form

    I(omega) = int_a^b u(t) exp(i*omega*t) dt

with a real phase rate ``omega``.  Three complementary tools are provided:

* exact moments of polynomial amplitudes (:func:`poly_exp_moment`), whose
  cost is independent of ``omega`` -- the workhorse of Galerkin assembly;
* boundary (integration-by-parts) expansions and a Filon-type rule for
  smooth non-polynomial amplitudes (:func:`sigma_n`, :func:`filon_integral`);
* a brute-force panelized Gauss-Legendre integrator
  (:func:`oscillatory_quad`) that resolves the oscillation node-by-node and
  serves as the independent reference for everything else.

The boundary expansion divides by powers of ``omega`` and therefore loses
accuracy as the total phase ``|omega*(b-a)|`` shrinks; all closed-form
paths switch to plain Gauss-Legendre in that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MAX_GAUSS_NODES",
    "Polynomial",
    "SmoothAmplitude",
    "filon_integral",
    "gauss_legendre",
    "gauss_legendre_rule",
    "oscillatory_quad",
    "poly_exp_moment",
    "sigma_n",
    "sigma_polynomial",
]

MAX_GAUSS_NODES = 64


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gauss_legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Rules are computed once and cached; callers must not mutate the
    returned arrays.
    """
    if not 1 <= q <= MAX_GAUSS_NODES:
        raise ValueError(f"Gauss-Legendre node count must be in [1, {MAX_GAUSS_NODES}], got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _eval_on(fn: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate a callable on an array, falling back to a scalar loop."""
    try:
        vals = np.asarray(fn(t))
        if vals.shape == t.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.asarray([fn(ti) for ti in t])


def gauss_legendre(u: Callable, a: float, b: float, q: int) -> complex:
    """q-point Gauss-Legendre approximation of int_a^b u(t) dt.

    Exact for polynomials of degree <= 2q - 1.
    """
    x, w = gauss_legendre_rule(q)
    half = 0.5 * (b - a)
    t = 0.5 * (a + b) + half * x
    return complex(half * np.sum(w * _eval_on(u, t)))


def _composite_gauss(f: Callable, a: float, b: float, panels: int, q: int) -> complex:
    """Composite q-point Gauss-Legendre over ``panels`` equal subintervals."""
    x, w = gauss_legendre_rule(q)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    t = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    vals = _eval_on(f, t).reshape(panels, q)
    return complex(np.sum(half * (vals @ w)))


def oscillatory_quad(
    f: Callable,
    a: float,
    b: float,
    omega: float,
    *,
    q: int = 24,
    nodes_per_wavelength: float = 20.0,
    target: float = 1e-14,
    max_doublings: int = 8,
) -> complex:
    """Brute-force reference value of int_a^b f(t) dt for an oscillatory f.

    ``omega`` is the fastest phase rate present in ``f`` (in radians per
    unit length); it only controls the panel density.  Panels are sized so
    that at least ``nodes_per_wavelength`` Gauss nodes fall on each
    wavelength, then the panel count is doubled until two successive
    values agree to ``target`` (absolute) or to 1e-13 relative.

    This integrator costs O(omega) and exists purely as an independent
    check of the closed-form paths; it is used by the self-test command
    and throughout the test suite.
    """
    if b <= a:
        if b == a:
            return 0.0 + 0.0j
        raise ValueError("oscillatory_quad requires a <= b")
    wavelengths = abs(omega) * (b - a) / (2.0 * math.pi)
    panels = max(4, math.ceil(wavelengths * nodes_per_wavelength / q))
    prev = _composite_gauss(f, a, b, panels, q)
    for _ in range(max_doublings):
        panels *= 2
        cur = _composite_gauss(f, a, b, panels, q)
        if abs(cur - prev) <= max(target, 1e-13 * abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(
        f"oscillatory_quad did not stabilize after {max_doublings} doublings "
        f"({panels} panels); integrand rougher than its phase hint?"
    )


# ---------------------------------------------------------------------------
# Polynomial amplitudes
# ---------------------------------------------------------------------------

def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing exact zeros, keeping at least one coefficient."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _as_coeffs(p) -> np.ndarray:
    if isinstance(p, Polynomial):
        return p.coeffs
    c = np.atleast_1d(np.asarray(p, dtype=complex))
    if c.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return _trim(c)


def _polyval(c: np.ndarray, t):
    """Horner evaluation; ``t`` may be a scalar or an ndarray."""
    acc = np.zeros_like(np.asarray(t, dtype=complex)) if np.ndim(t) else 0.0 + 0.0j
    for ck in c[::-1]:
        acc = acc * t + ck
    return acc


def _polyder(c: np.ndarray) -> np.ndarray:
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


def _polyint(c: np.ndarray) -> np.ndarray:
    out = np.empty(len(c) + 1, dtype=complex)
    out[0] = 0.0
    out[1:] = c / np.arange(1, len(c) + 1)
    return out


class Polynomial:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are stored ascending: ``p(t) = c[0] + c[1] t + ...``.
    Trailing exact zeros are trimmed on construction, so ``degree`` is
    meaningful except for the zero polynomial (degree 0 with c = [0]).
    Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] | np.ndarray):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        c = _trim(c.copy())
        c.setflags(write=False)
        self.coeffs = c

    # -- basic protocol ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, t):
        return _polyval(self.coeffs, t)

    def __repr__(self) -> str:
        return f"Polynomial({np.array2string(self.coeffs, precision=6)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and bool(np.all(self.coeffs == other.coeffs))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        a, b = self.coeffs, _as_coeffs(other)
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        other = other if isinstance(other, Polynomial) else Polynomial(_as_coeffs(other))
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial(_as_coeffs(other)) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        if np.isscalar(other):
            return Polynomial(self.coeffs * other)
        return Polynomial(np.convolve(self.coeffs, _as_coeffs(other)))

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------
    def derivative(self, k: int = 1) -> "Polynomial":
        c = self.coeffs
        for _ in range(k):
            c = _polyder(c)
        return Polynomial(c)

    def antiderivative(self) -> "Polynomial":
        return Polynomial(_polyint(self.coeffs))

    def shifted_scaled(self, s0: float, h: float) -> "Polynomial":
        """Return q with q(x) = p(s0 + h*x) (Horner composition)."""
        return Polynomial(_compose_affine(self.coeffs, s0, h))


def _compose_affine(c: np.ndarray, s0: float, h: float) -> np.ndarray:
    """Coefficients of p(s0 + h*x) from the coefficients of p(s)."""
    acc = np.zeros(1, dtype=complex)
    lin = np.array([s0, h], dtype=complex)
    for ck in c[::-1]:
        acc = np.convolve(acc, lin)
        acc[0] += ck
    return _trim(acc)


# ---------------------------------------------------------------------------
# Boundary (integration-by-parts) expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothAmplitude:
    """A smooth amplitude given by a callable plus derivative callables.

    ``derivatives[k-1]`` must evaluate the k-th derivative.  The number of
    supplied derivatives bounds the expansion orders available to
    :func:`sigma_n` and :func:`filon_integral`.
    """

    func: Callable[[float], complex]
    derivatives: tuple = field(default_factory=tuple)

    @property
    def order(self) -> int:
        return len(self.derivatives)

    def deriv(self, k: int) -> Callable:
        if k == 0:
            return self.func
        if k <= len(self.derivatives):
            return self.derivatives[k - 1]
        raise ValueError(f"amplitude provides derivatives up to order {len(self.derivatives)}, need {k}")

    @staticmethod
    def from_polynomial(p: Polynomial | Sequence[complex], order: int) -> "SmoothAmplitude":
        c = _as_coeffs(p)
        chain = []
        cur = c
        for _ in range(order):
            cur = _polyder(cur)
            chain.append((lambda cc: (lambda t: _polyval(cc, t)))(cur))
        return SmoothAmplitude(lambda t, cc=c: _polyval(cc, t), tuple(chain))


def sigma_n(u: SmoothAmplitude, t: float, omega: float, n: int) -> complex:
    """Boundary-expansion kernel: sum_{j<n} (-1)^j (i*omega)^-(j+1) u^(j)(t)."""
    if omega == 0:
        raise ValueError("sigma_n is undefined for omega = 0; use a non-oscillatory rule")
    if n < 1:
        raise ValueError("expansion order n must be >= 1")
    if u.order < n - 1:
        raise ValueError(f"amplitude provides {u.order} derivatives, sigma_n needs {n - 1}")
    inv = 1.0 / (1j * omega)
    coef = inv
    acc = 0.0 + 0.0j
    for j in range(n):
        acc += coef * u.deriv(j)(t)
        coef *= -inv
    return acc


def _sigma_coeffs(c: np.ndarray, omega: float) -> np.ndarray:
    """Coefficients of sigma[p] for polynomial p, with n = deg(p) + 1.

    sigma[p](t) = sum_j (-1)^j (i*omega)^-(j+1) p^(j)(t); with the full
    order the boundary expansion of the moment integral is exact.
    """
    inv = 1.0 / (1j * omega)
    out = np.zeros(len(c), dtype=complex)
    work = c * inv
    while True:
        out[: len(work)] += work
        if len(work) == 1:
            break
        work = _polyder(work) * (-inv)
    return out


def sigma_polynomial(p: Polynomial | Sequence[complex], omega: float) -> Polynomial:
    """Polynomial sigma[p] such that d/dt [e^{i omega t} sigma[p](t)] = p(t) e^{i omega t}."""
    if omega == 0:
        raise ValueError("sigma_polynomial is undefined for omega = 0")
    return Polynomial(_sigma_coeffs(_as_coeffs(p), omega))


# ---------------------------------------------------------------------------
# Exact polynomial-times-exponential moments
# ---------------------------------------------------------------------------

def _pem_gauss(c: np.ndarray, a: float, b: float, omega: float) -> complex:
    deg = len(c) - 1
    phase = abs(omega * (b - a))
    q = (deg + 2) // 2 + 8 + math.ceil(0.4 * phase)
    if q > MAX_GAUSS_NODES:
        mid = 0.5 * (a + b)
        return _pem_gauss(c, a, mid, omega) + _pem_gauss(c, mid, b, omega)
    x, w = gauss_legendre_rule(q)
    half = 0.5 * (b - a)
    t = 0.5 * (a + b) + half * x
    vals = _polyval(c, t) * np.exp(1j * omega * t)
    return complex(half * np.sum(w * vals))


def _pem_recurrence(c: np.ndarray, a: float, b: float, omega: float) -> complex:
    iw = 1j * omega
    eb = np.exp(iw * b)
    ea = np.exp(iw * a)
    mom = (eb - ea) / iw
    acc = c[0] * mom
    bp = 1.0
    ap = 1.0
    for k in range(1, len(c)):
        bp *= b
        ap *= a
        mom = (bp * eb - ap * ea - k * mom) / iw
        acc += c[k] * mom
    return complex(acc)


def _pem_sigma(c: np.ndarray, a: float, b: float, omega: float) -> complex:
    s = _sigma_coeffs(c, omega)
    return complex(np.exp(1j * omega * b) * _polyval(s, b) - np.exp(1j * omega * a) * _polyval(s, a))


def _pem(c: np.ndarray, a: float, b: float, omega: float) -> complex:
    """Exact int_a^b p(t) e^{i omega t} dt for coefficient array ``c``.

    Dispatches between the boundary expansion (cheap, phase-independent)
    and Gauss-Legendre.  The boundary forms divide by omega^k and suffer
    k!-type cancellation unless the phase outgrows the degree: each step
    of the recurrence scales the error carried from the previous moment
    by k/|omega*h| (h the half-width), so they are used only once the
    total phase reaches twice the degree, where every step damps it.
    Below that switch a modest Gauss rule is exact to roundoff.
    """
    c = _trim(c)
    deg = len(c) - 1
    if deg == 0 and c[0] == 0:
        return 0.0 + 0.0j
    phase = abs(omega * (b - a))
    if phase < max(1.0, 2.0 * deg):
        return _pem_gauss(c, a, b, omega)
    if deg <= 12:
        return _pem_recurrence(c, a, b, omega)
    return _pem_sigma(c, a, b, omega)


@lru_cache(maxsize=None)
def _moment_rule(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights and powers x^k (k = 0..K) of :func:`_unit_moments`' Gauss rule at degree K.

    The rule is the one for the largest total phase below the switch,
    max(1, 2K), split into panels as in :func:`_pem_gauss` if one would
    need more than ``MAX_GAUSS_NODES`` nodes.  Callers must not mutate
    the returned arrays.
    """
    phase = max(1.0, 2.0 * K)
    base = (K + 2) // 2 + 8
    panels = 1
    while base + math.ceil(0.4 * phase / panels) > MAX_GAUSS_NODES and base < MAX_GAUSS_NODES:
        panels *= 2
    x, wt = gauss_legendre_rule(base + math.ceil(0.4 * phase / panels))
    x = ((x + np.arange(1 - panels, panels, 2)[:, None]) / panels).ravel()
    rule = (x, np.tile(wt / panels, panels), x[:, None] ** np.arange(K + 1))
    for a in rule:
        a.setflags(write=False)
    return rule


def _unit_moments(w: np.ndarray, K: int) -> np.ndarray:
    """Moments M[e, k] = int_{-1}^{1} x^k e^{i w_e x} dx, k = 0..K, for an array of rates w.

    The batched form of :func:`_pem` on [-1, 1] at degree K, with its
    switch: the Gauss rule of :func:`_moment_rule` below a total phase of
    max(1, 2K), and the forward recurrence of :func:`_pem_recurrence`
    above it.  The rule depends on K alone and each row is its own
    product, so row e is bitwise the same whatever else is in the batch.
    The cost does not depend on w.
    """
    w = np.asarray(w, dtype=float)
    M = np.empty((len(w), K + 1), dtype=complex)
    small = np.abs(w) < max(0.5, K)
    if np.any(small):
        x, wt, powers = _moment_rule(K)
        rows = wt * np.exp(1j * w[small, None] * x)
        M[small] = np.matmul(rows[:, None, :], powers)[:, 0]
    if not np.all(small):
        iw = 1j * w[~small]
        ep, em = np.exp(iw), np.exp(-iw)
        mom = (ep - em) / iw
        big = np.empty((len(iw), K + 1), dtype=complex)
        big[:, 0] = mom
        for k in range(1, K + 1):
            mom = (ep - (-1) ** k * em - k * mom) / iw
            big[:, k] = mom
        M[~small] = big
    return M


def poly_exp_moment(p: Polynomial | Sequence[complex], a: float, b: float, omega: float) -> complex:
    """Exact value (up to roundoff) of int_a^b p(t) exp(i*omega*t) dt.

    The cost is O(deg p), independent of ``omega``.
    """
    if b < a:
        raise ValueError("poly_exp_moment requires a <= b")
    return _pem(_as_coeffs(p), float(a), float(b), float(omega))


# ---------------------------------------------------------------------------
# Filon-type rule for smooth amplitudes
# ---------------------------------------------------------------------------

def filon_integral(u: SmoothAmplitude, a: float, b: float, omega: float, n: int) -> complex:
    """Filon-type value of int_a^b u(t) exp(i*omega*t) dt.

    Integrates by parts ``n`` times (the sigma_n boundary terms, exact and
    phase-independent) and evaluates the remaining integral of
    u^(n)(t) e^{i omega t}, whose magnitude is O(omega^-n), by panelized
    Gauss-Legendre with at least 20 nodes per wavelength.  Requires
    derivative callables up to order ``n``; intended for
    |omega*(b-a)| >= 1.
    """
    if omega == 0:
        raise ValueError("filon_integral requires omega != 0")
    if n < 1:
        raise ValueError("expansion order n must be >= 1")
    if u.order < n:
        raise ValueError(f"amplitude provides {u.order} derivatives, filon_integral needs {n}")
    iw = 1j * omega
    boundary = np.exp(iw * b) * sigma_n(u, b, omega, n) - np.exp(iw * a) * sigma_n(u, a, omega, n)
    un = u.deriv(n)
    q = 24
    wavelengths = abs(omega) * (b - a) / (2.0 * math.pi)
    panels = max(2, math.ceil(wavelengths * 20.0 / q))
    rem = _composite_gauss(lambda t: un(t) * np.exp(iw * t), a, b, panels, q)
    return complex(boundary + (-1) ** n / iw ** n * rem)
