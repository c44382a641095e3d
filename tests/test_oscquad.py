"""Tests of the oscillatory quadrature engine."""

import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscfred.oscquad import (
    _sigma_rule,
    _triangle_moments,
    _unit_moments,
    _zero_moments,
    gauss_legendre_rule,
    oscillatory_quad,
)
from test_galerkin import collapsed_gauss_reference


def osc_ref(c, a, b, omega):
    """Brute-force reference for int p(t) e^{i omega t} dt."""
    return oscillatory_quad(lambda t: np.polynomial.polynomial.polyval(t, c) * np.exp(1j * omega * t), a, b, omega)


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

def gauss(u, a, b, q):
    """q-point Gauss-Legendre value of int_a^b u(t) dt from :func:`gauss_legendre_rule`."""
    x, w = gauss_legendre_rule(q)
    return 0.5 * (b - a) * np.sum(w * u(0.5 * (a + b) + 0.5 * (b - a) * x))


def test_gauss_legendre_quadratic_exact():
    assert gauss(lambda t: t**2, -1.0, 1.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_gauss_legendre_constant():
    assert gauss(lambda t: np.full_like(t, 3.5), 0.25, 2.0, 1) == pytest.approx(3.5 * 1.75, abs=1e-14)


def test_gauss_legendre_cosine():
    assert gauss(np.cos, 0.0, 1.0, 8) == pytest.approx(np.sin(1.0), abs=1e-14)


@pytest.mark.parametrize("q", [0, 65, -3])
def test_gauss_legendre_node_count_validated(q):
    with pytest.raises(ValueError):
        gauss_legendre_rule(q)


# ---------------------------------------------------------------------------
# reference integrator
# ---------------------------------------------------------------------------

def test_oscillatory_quad_calls_a_scalar_integrand_point_by_point():
    # math.cos takes no arrays, so the integrand is called node by node
    assert oscillatory_quad(math.cos, 0.0, 1.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-15)


def test_oscillatory_quad_interval_ends():
    assert oscillatory_quad(np.cos, 0.5, 0.5, 1.0) == 0.0
    with pytest.raises(ValueError, match="a <= b"):
        oscillatory_quad(np.cos, 1.0, 0.5, 1.0)


def test_oscillatory_quad_reports_an_integrand_faster_than_its_phase_hint():
    with pytest.raises(RuntimeError, match="did not stabilize"):
        oscillatory_quad(lambda t: np.exp(1e6j * t), 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# sigma expansions
# ---------------------------------------------------------------------------

def sigma_residual(c, omega):
    """F' + i*omega*F - p for F = sigma[p] from the tables of _sigma_rule: zero up to roundoff."""
    ratio, power = _sigma_rule(len(c))[:2]
    F = c @ (ratio * (1.0 / (1j * omega)) ** power)
    return np.append(F[1:] * np.arange(1, len(F)), 0.0) + 1j * omega * F - c


def test_sigma_polynomial_is_antiderivative_factor():
    # d/dt [e^{iwt} sigma[p](t)] = p(t) e^{iwt}
    npt.assert_allclose(sigma_residual(np.array([1.0, -0.5, 2.0], dtype=complex), 3.0), 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# unit moments
# ---------------------------------------------------------------------------

def test_moment_constant_closed_form():
    omega = np.array([0.5, 3.0, 40.0])
    npt.assert_allclose(_unit_moments(omega, 0)[:, 0], 2.0 * np.sin(omega) / omega, rtol=0, atol=1e-14)


@pytest.mark.parametrize("K, w", [
    (0, 0.0), (4, 0.3), (6, 2.5), (12, 2.9), (12, 30.0), (40, 7.0),
    (100, 20.0),  # Gauss branch needing more than MAX_GAUSS_NODES: split into panels
    (6, 212.0), (9, 0.4), (18, 2.0), (18, 23.0), (18, 700.0),
])
def test_unit_moments_match_oracle(K, w):
    M = _unit_moments(np.array([w, -w]), K)
    for k in range(K + 1):
        ref = osc_ref(np.eye(K + 1)[k], -1.0, 1.0, w)
        assert abs(M[0, k] - ref) <= 1e-13
        assert abs(M[1, k] - np.conj(ref)) <= 1e-13


def mp_unit_moments(w, K):
    """int_{-1}^{1} x^k e^{iwx} dx, k = 0..K, from the Maclaurin series of e^{iwx} at 60 digits."""
    with mpmath.workdps(60):
        t = [mpmath.mpc(1)]
        while abs(t[-1]) > mpmath.mpf(10) ** -60 or len(t) < 2 * K:
            t.append(t[-1] * mpmath.mpc(0, w) / len(t))
        return np.array([complex(mpmath.fsum(t[j] * 2 / (k + j + 1) for j in range(k % 2, len(t), 2)))
                         for k in range(K + 1)])


@pytest.mark.parametrize("K", range(2, 41))
def test_unit_moments_accurate_across_switch(K):
    # rates on both sides of the Gauss/recurrence switch at |w| = max(1/2, K),
    # and at K/4 and K/2, where the forward recurrence would lose up to 1e-4
    scale = 2.0 / np.arange(1, K + 2)
    for f in (0.25, 0.5, 0.999, 1.0, 1.25):
        w = f * max(0.5, K)
        ref = mp_unit_moments(w, K)
        M = _unit_moments(np.array([w, -w]), K)
        assert np.all(np.abs(M[0] - ref) <= 1e-12 * scale), w
        assert np.all(np.abs(M[1] - ref.conj()) <= 1e-12 * scale), -w


@pytest.mark.parametrize("K", [0, 1, 2, 5, 12, 40])
def test_unit_moments_at_zero_rate_are_exact(K):
    # w = 0 takes the exact row 2/(k+1) (even k), 0 (odd k), alone or among
    # small and large rates, and the table is read-only
    k = np.arange(K + 1)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    for w in ([0.0], [-0.0, 0.0], [0.0, 0.3, 3.0 * K + 1.0], [1e6, 0.0, -1e6]):
        M = _unit_moments(np.array(w), K)
        assert np.array_equal(M[np.array(w) == 0], np.broadcast_to(exact, (w.count(0.0), K + 1)))
    assert not _zero_moments(K).flags.writeable


def test_moment_degrees_past_the_gauss_rules_are_refused_at_any_nonzero_rate():
    # (K + 2) // 2 + 8 plus a node for the phase fits 64 nodes up to K = 109
    # (triangles: 2D - 1 <= 109, D <= 55); the recurrence's large rates are
    # refused alike, and exact zero rates pass at any degree
    assert np.isfinite(_unit_moments(np.array([0.5, 1e6]), 109)).all()
    assert np.isfinite(_triangle_moments(np.array([0.5]), np.array([1e6]), 55, 1)).all()
    for w in (0.5, 1e6):
        with pytest.raises(ValueError, match="moment degree 110 is above 109"):
            _unit_moments(np.array([0.0, w]), 110)
        with pytest.raises(ValueError, match="moment degree 111 is above 109"):
            _triangle_moments(np.array([0.0, 0.0]), np.array([0.0, w]), 1, 56)
    assert np.array_equal(_unit_moments(np.zeros(2), 200), np.broadcast_to(_zero_moments(200), (2, 201)))
    assert np.isfinite(_triangle_moments(np.zeros(1), np.zeros(1), 56, 56)).all()


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(0, 60),
    f=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
    sign=st.lists(st.booleans(), min_size=12, max_size=12),
)
@example(K=6, f=[0.0, 1.5, 0.0, 2.0, 1.0], sign=[False, True] * 6)         # exact zeros among large rates
@example(K=2, f=[0.0, 0.1, 2.0, 0.0], sign=[True] * 12)                   # zeros, small and large, w = -0.0
def test_unit_moments_rows_do_not_depend_on_the_batch(K, f, sign):
    # rates on both sides of the Gauss/recurrence switch at |w| = max(1/2, K):
    # each row must be bitwise what a batch of one gives
    w = np.array([(-x if s else x) * max(0.5, K) for x, s in zip(f, sign)])
    M = _unit_moments(w, K)
    for i in range(len(w)):
        assert np.array_equal(M[i], _unit_moments(w[i:i + 1], K)[0]), (K, w[i])


# ---------------------------------------------------------------------------
# the moment kernel across its regime switches
# ---------------------------------------------------------------------------

SWITCH_FACTORS = (0.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.9, 1.1)   # an exact zero, 1e-9 and 10% either side


def near(*switches):
    """A phase of either sign at an exact zero or near one of the switches."""
    return st.builds(lambda f, x, sign: sign * f * x, st.sampled_from(SWITCH_FACTORS),
                     st.sampled_from(switches), st.sampled_from((-1.0, 1.0)))


@st.composite
def moment_cases(draw):
    """(A, B, ls, lt, rates, c, omega): the triangle degrees, phase pairs with their reflections, unit
    rates at the switch of degree 2D - 2 (the triangles' sigma branch), and a polynomial with |omega| >= its degree."""
    D = draw(st.integers(1, 6))
    other = draw(st.integers(1, D))
    A, B = draw(st.sampled_from([(D, other), (other, D)]))
    T, S = max(1.0, D - 1.0), max(0.5, 2 * D - 2)           # the triangles' switch and the unit moments'
    pairs = draw(st.lists(st.tuples(near(T, S), near(T, S)), min_size=1, max_size=4))
    ls = np.array([u for u, _ in pairs] + [-v for _, v in pairs] + [0.0])   # (ls, lt), (-lt, -ls), (0, 0)
    lt = np.array([v for _, v in pairs] + [-u for u, _ in pairs] + [0.0])
    rates = np.array(draw(st.lists(near(S), min_size=1, max_size=3)) + [0.0])
    part = st.floats(-1.0, 1.0)
    c = np.array(draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=17)))
    omega = draw(st.sampled_from((-1.0, 1.0))) * max(1, len(c) - 1) * draw(st.floats(1.0, 1e3))
    return A, B, ls, lt, rates, c, omega


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=moment_cases())
def test_moment_kernel_matches_its_references_at_every_switch(case):
    A, B, ls, lt, rates, c, omega = case
    mu = _triangle_moments(ls, lt, A, B)
    scale = 2.0 / (np.add.outer(np.arange(A), np.arange(B)) + 1)
    for e in range(len(ls)):
        assert np.max(np.abs(mu[e] - collapsed_gauss_reference(ls[e], lt[e], A, B)) / scale) <= 1e-12, (ls[e], lt[e])
        assert np.array_equal(mu[e], _triangle_moments(ls[e:e + 1], lt[e:e + 1], A, B)[0])
    K = 2 * max(A, B) - 2
    M = _unit_moments(rates, K)
    for e, w in enumerate(rates):
        for k in range(K + 1):
            assert abs(M[e, k] - oscillatory_quad(lambda x: x**k * np.exp(1j * w * x), -1.0, 1.0, w)) <= 1e-13, (w, k)
    assert np.max(np.abs(sigma_residual(c, omega))) <= 1e-13 * max(1.0, np.max(np.abs(c)))
