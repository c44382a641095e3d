"""Quadrature engine for integrals with a linear oscillatory phase.

Everything in this module revolves around integrals of the form

    I(omega) = int_a^b u(t) exp(i*omega*t) dt

with a real phase rate ``omega``.  It holds the one moment kernel of
Galerkin assembly, whose cost does not depend on the phases:

* exact unit moments int_{-1}^{1} x^k e^{i*w*x} dx (:func:`_unit_moments`);
* the shared-cell triangle moments (:func:`_triangle_moments`) that the kink
  t = s of |s - t| leaves, with their collapsed (Duffy) rule (:func:`_collapsed_rule`);
* the tables of the boundary (sigma) expansion (:func:`_sigma_rule`), the integration
  by parts at the kink that the triangles and ``galerkin.apply_kernel_structured`` take.

A brute-force panelized Gauss-Legendre integrator (:func:`oscillatory_quad`)
resolves the oscillation node by node and is the independent reference for
everything else.  One composite rule (:func:`_composite_rule`) builds its
panels, the operator oracle's and the moments' Gauss rules.  The module
holds quadrature and moments only: polynomial amplitudes are plain
coefficient arrays, handled by :mod:`numpy.polynomial.polynomial`.

The boundary form divides by powers of the phase and so loses accuracy as
the phase falls below the degree; the moments switch to Gauss-Legendre
there: the unit moments below |w| = max(1/2, K), the triangles below
T = max(1, D - 1) in both phases.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "MAX_GAUSS_NODES",
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
    return _frozen(*np.polynomial.legendre.leggauss(q))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


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


def _composite_rule(a: float, b: float, panels: int, nodes: int = _PANEL_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``nodes``-point Gauss-Legendre rule on each of ``panels`` equal subintervals of [a, b]."""
    x, w = gauss_legendre_rule(nodes)
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
# Exact unit and triangle moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phase_rule(K: int, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] for x^k e^{i*w*x}, k <= K, 2|w| <= ``phase``.

    The :func:`_composite_rule` whose panels each take
    (K + 2) // 2 + 8 + ceil(0.4 * phase / panels) nodes, the panel count
    doubling while that exceeds ``MAX_GAUSS_NODES``.  Callers must not
    mutate the returned arrays.
    """
    base = (K + 2) // 2 + 8
    panels = 1
    while base + math.ceil(0.4 * phase / panels) > MAX_GAUSS_NODES and base < MAX_GAUSS_NODES:
        panels *= 2
    return _frozen(*_composite_rule(-1.0, 1.0, panels, base + math.ceil(0.4 * phase / panels)))


def _check_degree(K: int, zero: np.ndarray) -> None:
    """Refuse a moment degree K that :func:`_phase_rule` cannot take when some rate is nonzero (``zero`` is False).

    Its panels take (K + 2) // 2 + 8 nodes and at least one more for the
    phase, so past K = 2 (MAX_GAUSS_NODES - 9) - 1 no panel stays within
    MAX_GAUSS_NODES.  Only small phases ask for the rule, but any nonzero
    rate is refused, so the outcome does not depend on the wavenumber.
    Zero rates take their exact limit at any degree.
    """
    top = 2 * (MAX_GAUSS_NODES - 9) - 1
    if K > top and not zero.all():
        raise ValueError(f"oscillatory moment degree {K} is above {top}, the most the Gauss rules "
                         f"of at most {MAX_GAUSS_NODES} nodes per panel integrate")


@lru_cache(maxsize=None)
def _moment_rule(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights and powers x^k (k = 0..K) of :func:`_unit_moments`' Gauss rule at degree K.

    The rule is :func:`_phase_rule` for the largest total phase below the
    switch, max(1, 2K).  Callers must not mutate the returned arrays.
    """
    x, wt = _phase_rule(K, max(1.0, 2.0 * K))
    return (x, wt) + _frozen(x[:, None] ** np.arange(K + 1))


@lru_cache(maxsize=None)
def _zero_moments(K: int) -> np.ndarray:
    """Z[k] = int_{-1}^{1} x^k dx = 2/(k+1) for even k and 0 for odd k, k = 0..K: the moments at w = 0.

    Callers must not mutate the returned array.
    """
    k = np.arange(K + 1)
    Z, = _frozen(np.where(k % 2 == 0, 2.0 / (k + 1), 0.0).astype(complex))
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
    whatever else is in the batch.  The cost does not depend on w.  A
    degree :func:`_check_degree` refuses raises ValueError.
    """
    w = np.asarray(w, dtype=float)
    zero = w == 0
    _check_degree(K, zero)
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
    return _frozen(u, v, (wu * (u + 1.0) / 2.0) * u ** np.arange(D)[:, None],
                   (wy[:, None] * v[..., None] ** np.arange(D)).astype(complex))


@lru_cache(maxsize=None)
def _sigma_rule(D: int) -> tuple[np.ndarray, ...]:
    """The degree-fixed tables of the boundary (sigma) expansion at D coefficients.

    For p of degree below D and w != 0, F = p @ (ratio * (i*w)^-power) is
    sigma[p] = sum_j (-1)^j (i*w)^-(j+1) p^(j), so d/dt [e^{i*w*t} F] = p e^{i*w*t},
    with ratio[b, n] = (-1)^(b-n) b!/n! (0 for n > b) and power[b, n] = max(b - n, 0) + 1.
    ``galerkin.apply_kernel_structured`` and :func:`_triangle_moments` (rows
    s_b = sigma[v^b] at D = max(A, B)) both take them; the triangles also take
    sign[b] = (-1)^b, flip[a, b] = (-1)^(a+b), window[a, n] = a + n into the 1-d
    moments and mu(0, 0) = (Z[a+b+1] + (-1)^b Z[a]) / (b+1), Z = :func:`_zero_moments`,
    the limit both their regimes share.  Callers must not mutate them.
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
    does not depend on the rest of the batch.  The u-integrand's degree
    2D - 1 is checked by :func:`_check_degree`.
    """
    D = max(A, B)
    T = max(1.0, D - 1.0)
    swap = np.abs(lt) < T
    sigma = ~swap | (np.abs(ls) >= T)
    zero = (ls == 0) & (lt == 0)
    _check_degree(2 * D - 1, zero)
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
