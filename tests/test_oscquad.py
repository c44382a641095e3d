"""Tests of the oscillatory quadrature engine."""

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscfred.oscquad import (
    Polynomial,
    _polyder,
    _sigma_coeffs,
    _unit_moments,
    _zero_moments,
    gauss_legendre_rule,
    oscillatory_quad,
)


def osc_ref(c, a, b, omega):
    """Brute-force reference for int p(t) e^{i omega t} dt."""
    p = Polynomial(c)
    return oscillatory_quad(lambda t: p(t) * np.exp(1j * omega * t), a, b, omega)


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
# Polynomial type
# ---------------------------------------------------------------------------

def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert Polynomial([0.0, 0.0]).is_zero()


def test_polynomial_evaluation_matches_numpy_horner():
    rng = np.random.default_rng(5)
    for deg in (0, 3, 17, 30):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = Polynomial(c)
        t = rng.uniform(-1, 1, 32)
        ref = np.polynomial.polynomial.polyval(t, c)
        npt.assert_allclose(p(t), ref, rtol=1e-12, atol=1e-14)


def test_polynomial_arithmetic():
    p = Polynomial([1.0, 1.0])
    q = Polynomial([0.0, 0.0, 1.0])
    assert (p + q)(2.0) == pytest.approx(p(2.0) + q(2.0))
    assert (p + (-p)).is_zero()


# ---------------------------------------------------------------------------
# sigma expansions
# ---------------------------------------------------------------------------

def test_sigma_polynomial_is_antiderivative_factor():
    # d/dt [e^{iwt} sigma[p](t)] = p(t) e^{iwt}
    p = Polynomial([1.0, -0.5, 2.0])
    omega = 3.0
    sg = Polynomial(_sigma_coeffs(p.coeffs, omega))
    q = Polynomial(_polyder(sg.coeffs)) + Polynomial(sg.coeffs * (1j * omega))
    npt.assert_allclose(q.coeffs, p.coeffs, atol=1e-14)


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
