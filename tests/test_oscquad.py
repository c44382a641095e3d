"""Tests of the oscillatory quadrature engine."""

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscfred.oscquad import (
    Polynomial,
    SmoothAmplitude,
    _pem_gauss,
    _pem_recurrence,
    _pem_sigma,
    _unit_moments,
    filon_integral,
    gauss_legendre,
    oscillatory_quad,
    poly_exp_moment,
    sigma_n,
    sigma_polynomial,
)


def osc_ref(c, a, b, omega):
    """Brute-force reference for int p(t) e^{i omega t} dt."""
    p = Polynomial(c)
    return oscillatory_quad(lambda t: p(t) * np.exp(1j * omega * t), a, b, omega)


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

def test_gauss_legendre_quadratic_exact():
    assert gauss_legendre(lambda t: t**2, -1.0, 1.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_gauss_legendre_constant():
    assert gauss_legendre(lambda t: 3.5 + 0j, 0.25, 2.0, 1) == pytest.approx(3.5 * 1.75, abs=1e-14)


def test_gauss_legendre_cosine():
    assert gauss_legendre(np.cos, 0.0, 1.0, 8) == pytest.approx(np.sin(1.0), abs=1e-14)


@pytest.mark.parametrize("q", [0, 65, -3])
def test_gauss_legendre_node_count_validated(q):
    with pytest.raises(ValueError):
        gauss_legendre(np.cos, 0.0, 1.0, q)


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
    assert (p * q).degree == 3
    assert (p + q)(2.0) == pytest.approx(p(2.0) + q(2.0))
    assert (p - p).is_zero()
    assert p.derivative()(0.3) == pytest.approx(1.0)
    assert p.antiderivative().derivative() == p


def test_polynomial_shifted_scaled():
    p = Polynomial([1.0, -2.0, 3.0, 0.5j])
    q = p.shifted_scaled(0.4, 0.25)
    for x in (-1.0, -0.2, 0.9):
        assert q(x) == pytest.approx(p(0.4 + 0.25 * x), rel=1e-13)


# ---------------------------------------------------------------------------
# sigma expansions
# ---------------------------------------------------------------------------

def test_sigma_one_term():
    u = SmoothAmplitude.from_polynomial([2.0, 5.0], order=3)
    omega = 7.0
    assert sigma_n(u, 0.5, omega, 1) == pytest.approx(u.func(0.5) / (1j * omega))


def test_sigma_two_terms_hand_value():
    # u(t) = t at t=0, omega=1: 0/(i) - 1/(i)^2 = 1
    u = SmoothAmplitude.from_polynomial([0.0, 1.0], order=2)
    assert sigma_n(u, 0.0, 1.0, 2) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_sigma_constant_amplitude_any_order():
    u = SmoothAmplitude.from_polynomial([1.0], order=6)
    for n in (1, 3, 6):
        assert sigma_n(u, -0.3, 4.0, n) == pytest.approx(1.0 / (4.0j), abs=1e-15)


def test_sigma_rejects_zero_omega_and_missing_derivatives():
    u = SmoothAmplitude.from_polynomial([1.0, 1.0], order=1)
    with pytest.raises(ValueError):
        sigma_n(u, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        sigma_n(u, 0.0, 1.0, 3)


def test_sigma_polynomial_is_antiderivative_factor():
    # d/dt [e^{iwt} sigma[p](t)] = p(t) e^{iwt}
    p = Polynomial([1.0, -0.5, 2.0])
    omega = 3.0
    sg = sigma_polynomial(p, omega)
    q = sg.derivative() + Polynomial(sg.coeffs * (1j * omega))
    npt.assert_allclose(q.coeffs, p.coeffs, atol=1e-14)


def test_smooth_amplitude_derivatives_consistent_with_finite_differences():
    u = SmoothAmplitude(np.exp, (np.exp, np.exp))
    rng = np.random.default_rng(0)
    h = 1e-5
    for t in rng.uniform(-0.8, 0.8, 5):
        fd = (u.func(t + h) - u.func(t - h)) / (2 * h)
        assert u.deriv(1)(t) == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------------------
# poly_exp_moment
# ---------------------------------------------------------------------------

def test_moment_constant_closed_form():
    for omega in (0.5, 3.0, 40.0):
        val = poly_exp_moment([1.0], -1.0, 1.0, omega)
        assert val == pytest.approx(2.0 * np.sin(omega) / omega, abs=1e-14)


def test_moment_small_phase_vs_oracle():
    c = np.array([0.0, 1.0])
    val = poly_exp_moment(c, -1.0, 1.0, 0.1)
    assert abs(val - osc_ref(c, -1.0, 1.0, 0.1)) < 1e-12


def test_moment_cubic_large_phase_vs_oracle():
    c = np.array([0.0, 0.0, 0.0, 1.0])
    omega = 50.0
    val = poly_exp_moment(c, -1.0, 1.0, omega)
    assert abs(val - osc_ref(c, -1.0, 1.0, omega)) < 1e-11
    assert abs(val) < 10.0 / omega  # boundary-expansion magnitude O(1/omega)


def test_moment_rejects_reversed_interval():
    with pytest.raises(ValueError):
        poly_exp_moment([1.0], 1.0, -1.0, 2.0)


def test_moment_zero_polynomial():
    assert poly_exp_moment([0.0], -1.0, 1.0, 5.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    deg=st.integers(0, 8),
    seed=st.integers(0, 2**31 - 1),
    phase=st.floats(0.9, 1.1),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_moment_branches_agree_near_switch(deg, seed, phase, sign):
    # both evaluation paths must agree where the dispatch switches; scale
    # includes the data size since the integral itself may nearly cancel
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    a, b = -0.7, 0.55
    omega = sign * phase / (b - a)
    gauss = _pem_gauss(c, a, b, omega)
    boundary = _pem_recurrence(c, a, b, omega)
    scale = max(abs(gauss), float(np.sum(np.abs(c))) * (b - a))
    assert abs(gauss - boundary) <= 1e-10 * scale


def test_moment_recurrence_matches_sigma_sum():
    # Both boundary forms divide by omega^k against k!-growing terms, so
    # they only carry full precision once the total phase clears about
    # half the degree, a region that contains the one the production
    # dispatch uses them in (phase at least twice the degree).  (At phase
    # ~ 1 and degree 12 either form loses ~8 digits to the same intrinsic
    # cancellation, in any implementation.)
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        for omega in (max(1.0, 0.55 * n), 4.0 + n, 30.0):
            rec = _pem_recurrence(c, -1.0, 1.0, omega)
            sig = _pem_sigma(c, -1.0, 1.0, omega)
            assert abs(rec - sig) <= 1e-10 * max(abs(rec), 1e-16)


@pytest.mark.parametrize("K, w", [
    (0, 0.0), (4, 0.3), (6, 2.5), (12, 2.9), (12, 30.0), (40, 7.0),
    (100, 20.0),  # Gauss branch needing more than MAX_GAUSS_NODES: split into panels
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


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(0, 60),
    f=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
    sign=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_unit_moments_rows_do_not_depend_on_the_batch(K, f, sign):
    # rates on both sides of the Gauss/recurrence switch at |w| = max(1/2, K):
    # each row must be bitwise what a batch of one gives
    w = np.array([(-x if s else x) * max(0.5, K) for x, s in zip(f, sign)])
    M = _unit_moments(w, K)
    for i in range(len(w)):
        assert np.array_equal(M[i], _unit_moments(w[i:i + 1], K)[0]), (K, w[i])


@pytest.mark.parametrize("k, w", [(20, 5.0), (30, 8.0), (12, 3.5), (90, 8.0)])
def test_pem_accurate_past_switch(k, w):
    ref = mp_unit_moments(w, k)[k]
    assert abs(poly_exp_moment(np.eye(k + 1)[k], -1.0, 1.0, w) - ref) <= 1e-12 * 2.0 / (k + 1)


def test_moment_conjugation_symmetry():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(7)  # real amplitude
    for omega in (0.3, 4.0, 212.0):
        plus = poly_exp_moment(c, -0.9, 0.8, omega)
        minus = poly_exp_moment(c, -0.9, 0.8, -omega)
        assert abs(plus - np.conj(minus)) <= 1e-12


def test_moment_random_degrees_and_phases_vs_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        deg = int(rng.integers(0, 19))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        omega = float(rng.choice([0.0, 0.4, 2.0, 23.0, 700.0]))
        val = poly_exp_moment(c, -1.0, 1.0, omega)
        ref = osc_ref(c, -1.0, 1.0, omega)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Filon-type integration
# ---------------------------------------------------------------------------

def test_filon_exact_for_low_degree_polynomials():
    # remainder integrand vanishes when deg(u) < n
    u = SmoothAmplitude.from_polynomial([1.5, -2.0, 0.75], order=4)
    omega = 35.0
    ref = poly_exp_moment([1.5, -2.0, 0.75], -1.0, 1.0, omega)
    val = filon_integral(u, -1.0, 1.0, omega, n=3)
    assert abs(val - ref) <= 1e-13


def test_filon_exponential_amplitude():
    u = SmoothAmplitude(np.exp, (np.exp, np.exp, np.exp))
    omega = 100.0
    ref = oscillatory_quad(lambda t: np.exp(t) * np.exp(1j * omega * t), 0.0, 1.0, omega)
    assert abs(filon_integral(u, 0.0, 1.0, omega, 3) - ref) <= 1e-9


def test_filon_rational_amplitude():
    u = SmoothAmplitude(
        lambda t: 1.0 / (2.0 + t),
        (lambda t: -1.0 / (2.0 + t) ** 2, lambda t: 2.0 / (2.0 + t) ** 3),
    )
    omega = 500.0
    ref = oscillatory_quad(lambda t: np.exp(1j * omega * t) / (2.0 + t), -1.0, 1.0, omega)
    assert abs(filon_integral(u, -1.0, 1.0, omega, 2) - ref) <= 1e-8


def test_filon_error_decreases_with_order():
    # The dropped remainder is O(omega^-(n+1)), so the pure boundary
    # truncation must improve monotonically with n; the full rule (which
    # adds the remainder back numerically) must beat the truncation.
    u = SmoothAmplitude(np.exp, (np.exp, np.exp, np.exp))
    omega = 1e3
    ref = oscillatory_quad(lambda t: np.exp(t) * np.exp(1j * omega * t), 0.0, 1.0, omega)
    iw = 1j * omega
    truncated = [
        np.exp(iw) * sigma_n(u, 1.0, omega, n) - sigma_n(u, 0.0, omega, n)
        for n in (1, 2, 3)
    ]
    errs = [abs(v - ref) for v in truncated]
    assert errs[0] > errs[1] > errs[2]
    assert abs(filon_integral(u, 0.0, 1.0, omega, 3) - ref) < errs[2]


def test_filon_requires_enough_derivatives():
    u = SmoothAmplitude(np.exp, (np.exp,))
    with pytest.raises(ValueError):
        filon_integral(u, 0.0, 1.0, 10.0, 2)


def test_filon_conjugation_symmetry():
    u = SmoothAmplitude(np.cos, (lambda t: -np.sin(t), lambda t: -np.cos(t)))
    val_p = filon_integral(u, -1.0, 1.0, 60.0, 2)
    val_m = filon_integral(u, -1.0, 1.0, -60.0, 2)
    assert abs(val_p - np.conj(val_m)) <= 1e-12
