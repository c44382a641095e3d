"""Quadrature engine for integrals with a linear oscillatory phase.

Everything in this module revolves around integrals of the form

    I(omega) = int_a^b u(t) exp(i*omega*t) dt

with a real phase rate ``omega``.  Two tools are provided:

* batched exact moments int_{-1}^{1} x^k e^{i*w*x} dx (:func:`_unit_moments`),
  whose cost is independent of ``w`` -- the workhorse of Galerkin assembly;
* a brute-force panelized Gauss-Legendre integrator
  (:func:`oscillatory_quad`) that resolves the oscillation node-by-node and
  serves as the independent reference for everything else; its composite
  rule (:func:`_composite_rule`) also builds the operator oracle's.

The boundary (integration-by-parts) form of a moment divides by powers of
the phase and therefore loses accuracy as the phase falls below the degree;
the moments switch to plain Gauss-Legendre in that regime.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MAX_GAUSS_NODES",
    "Polynomial",
    "gauss_legendre_rule",
    "oscillatory_quad",
]

MAX_GAUSS_NODES = 64
_PANEL_NODES = 24             # Gauss nodes per panel of the reference rules
_NODES_PER_WAVELENGTH = 20.0  # least node density of oscillatory_quad's first pass
_MAX_DOUBLINGS = 8


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


def _eval_on(fn: Callable, *args) -> np.ndarray:
    """fn(*args) on broadcastable arrays; a callable that does not broadcast is called point by point."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        vals = np.asarray(fn(*args))
        if vals.shape == shape:
            return vals
    except (TypeError, ValueError):
        pass
    points = zip(*(a.ravel() for a in np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))))
    return np.asarray([fn(*p) for p in points]).reshape(shape)


def _panels(omega: float, length: float, density: float) -> int:
    """Panels of :func:`_composite_rule` that put ``density`` nodes on each wavelength of rate omega."""
    return math.ceil(abs(omega) * length / (2.0 * math.pi) * density / _PANEL_NODES)


def _composite_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule over ``panels`` equal subintervals of [a, b]."""
    x, w = gauss_legendre_rule(_PANEL_NODES)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mids + half * x).ravel(), (half * w).ravel()


def oscillatory_quad(f: Callable, a: float, b: float, omega: float, *, target: float = 1e-14) -> complex:
    """Brute-force reference value of int_a^b f(t) dt for an oscillatory f.

    ``omega`` is the fastest phase rate present in ``f`` (in radians per
    unit length); it only controls the panel density.  Panels are sized so
    that at least 20 Gauss nodes fall on each wavelength, then the panel
    count is doubled until two successive values agree to ``target``
    (absolute) or to 1e-13 relative.

    This integrator costs O(omega) and exists purely as an independent
    check of the closed-form paths; it is used by the self-test command
    and throughout the test suite.
    """
    if b <= a:
        if b == a:
            return 0.0 + 0.0j
        raise ValueError("oscillatory_quad requires a <= b")
    panels = max(4, _panels(omega, b - a, _NODES_PER_WAVELENGTH))
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        t, w = _composite_rule(a, b, panels)
        cur = complex(w @ _eval_on(f, t))
        if prev is not None and abs(cur - prev) <= max(target, 1e-13 * abs(cur)):
            return cur
        prev = cur
        panels *= 2
    raise RuntimeError(
        f"oscillatory_quad did not stabilize after {_MAX_DOUBLINGS} doublings "
        f"({panels // 2} panels); integrand rougher than its phase hint?"
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


class Polynomial:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are stored ascending: ``p(t) = c[0] + c[1] t + ...``.
    Trailing exact zeros are trimmed on construction, so ``degree`` is
    meaningful except for the zero polynomial (degree 0 with c = [0]).
    Instances are immutable; ``+`` and unary ``-`` return new objects.
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

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        a, b = self.coeffs, _as_coeffs(other)
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[: len(a)] += a
        out[: len(b)] += b
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)


# ---------------------------------------------------------------------------
# Boundary (integration-by-parts) expansions
# ---------------------------------------------------------------------------

def _sigma_coeffs(c: np.ndarray, omega: float) -> np.ndarray:
    """Coefficients of sigma[p](t) = sum_j (-1)^j (i*omega)^-(j+1) p^(j)(t) for polynomial p.

    Summed over every derivative of p, so that
    d/dt [e^{i*omega*t} sigma[p](t)] = p(t) e^{i*omega*t} exactly.
    """
    inv = 1.0 / (1j * omega)
    out = np.zeros(len(c), dtype=complex)
    work = c * inv
    while True:
        out[: len(work)] += work
        if len(work) == 1:
            break
        work = work[1:] * np.arange(1, len(work)) * (-inv)
    return out


# ---------------------------------------------------------------------------
# Exact unit moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phase_rule(K: int, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] for x^k e^{i*w*x}, k <= K, 2|w| <= ``phase``.

    Each panel takes (K + 2) // 2 + 8 + ceil(0.4 * phase / panels) nodes,
    and the panel count doubles while that exceeds ``MAX_GAUSS_NODES``.
    Callers must not mutate the returned arrays.
    """
    base = (K + 2) // 2 + 8
    panels = 1
    while base + math.ceil(0.4 * phase / panels) > MAX_GAUSS_NODES and base < MAX_GAUSS_NODES:
        panels *= 2
    x, wt = gauss_legendre_rule(base + math.ceil(0.4 * phase / panels))
    rule = (((x + np.arange(1 - panels, panels, 2)[:, None]) / panels).ravel(), np.tile(wt / panels, panels))
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def _moment_rule(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights and powers x^k (k = 0..K) of :func:`_unit_moments`' Gauss rule at degree K.

    The rule is :func:`_phase_rule` for the largest total phase below the
    switch, max(1, 2K).  Callers must not mutate the returned arrays.
    """
    x, wt = _phase_rule(K, max(1.0, 2.0 * K))
    powers = x[:, None] ** np.arange(K + 1)
    powers.setflags(write=False)
    return x, wt, powers


@lru_cache(maxsize=None)
def _zero_moments(K: int) -> np.ndarray:
    """Z[k] = int_{-1}^{1} x^k dx = 2/(k+1) for even k and 0 for odd k, k = 0..K: the moments at w = 0.

    Callers must not mutate the returned array.
    """
    k = np.arange(K + 1)
    Z = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0).astype(complex)
    Z.setflags(write=False)
    return Z


def _unit_moments(w: np.ndarray, K: int) -> np.ndarray:
    """Moments M[e, k] = int_{-1}^{1} x^k e^{i w_e x} dx, k = 0..K, for an array of rates w.

    The Gauss rule of :func:`_moment_rule` runs on the nonzero rates below
    a total phase of max(1, 2K); above it, the forward recurrence
    M[k] = (e^{iw} - (-1)^k e^{-iw} - k M[k-1]) / (iw), whose every step
    scales the error carried from M[k-1] by k/|w| <= 1.  A rate of exactly
    0 takes the limit both share, :func:`_zero_moments`, so a batch of
    zero and large rates runs the recurrence alone.  The rule depends on
    K alone and each row is its own product, so row e is bitwise the same
    whatever else is in the batch.  The cost does not depend on w.
    """
    w = np.asarray(w, dtype=float)
    zero = w == 0
    small = (np.abs(w) < max(0.5, K)) != zero              # the nonzero rates below the switch
    big = ~(small | zero)
    M = np.empty((len(w), K + 1), dtype=complex)
    M[zero] = _zero_moments(K)
    if np.count_nonzero(small):
        x, wt, powers = _moment_rule(K)
        rows = wt * np.exp(1j * w[small, None] * x)
        M[small] = np.matmul(rows[:, None, :], powers)[:, 0]
    if np.count_nonzero(big):
        iw = 1j * w[big]
        ep, em = np.exp(iw), np.exp(-iw)
        odd, even = ep + em, ep - em                        # e^{iw} - (-1)^k e^{-iw} at odd and even k
        mom = even / iw
        rec = np.empty((len(iw), K + 1), dtype=complex)
        rec[:, 0] = mom
        for k in range(1, K + 1):
            mom = ((odd if k % 2 else even) - k * mom) / iw
            rec[:, k] = mom
        M[big] = rec
    return M
