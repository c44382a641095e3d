"""Tests of the dense complex LU / condition-number layer."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from oscfred import linalg
from oscfred.linalg import SingularMatrixError, cond2, lu_factor, lu_solve


def solve(A, b):
    """x with A x = b by lu_factor/lu_solve."""
    return lu_solve(lu_factor(A), b)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_validators_reject_bad_input():
    with pytest.raises(ValueError):
        lu_factor(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cond2(np.array([1.0, 2.0]))
    for call in (lu_factor, cond2):
        with pytest.raises(ValueError, match="must be finite"):
            call(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        lu_solve(lu_factor(np.eye(1)), np.array([[1.0]]))
    with pytest.raises(ValueError, match="must be finite"):
        lu_solve(lu_factor(np.eye(1)), np.array([np.inf]))


# ---------------------------------------------------------------------------
# LU factorization and solve
# ---------------------------------------------------------------------------

def test_lu_of_a_centrosymmetric_matrix_factors_its_halves():
    # J itself folds to diag(1, -1); a random J A J = A of odd order to halves of orders 4 and 3.
    # A square A is left unchanged, and lu_factor gives its own leading ceil(n/2) rows, from which
    # halves and solve give what they give on a copy of them, bit for bit
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    for A in (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), X + X[::-1, ::-1]):
        A0 = A.copy()
        n, h = len(A), (len(A) + 1) // 2
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        copied = lambda lo, hi: A[lo:hi].copy()
        blocks = [H.copy() for H in linalg.halves(copied, n, h)]
        fact = lu_factor(A)
        assert np.array_equal(A, A0)
        assert fact[1:] == (n, h) and np.shares_memory(fact[0](0, h), A)
        folded = [H.copy() for H in linalg.halves(*fact)]
        assert [len(H) for H in folded] == [h, n // 2]
        assert all(np.array_equal(H, B) for H, B in zip(folded, blocks, strict=True))
        x = lu_solve(fact, b)
        assert np.array_equal(x, linalg.solve(copied, n, h, b)[0])
        npt.assert_allclose(A @ x, b, atol=1e-12)
        npt.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)


def test_lu_detects_exact_singularity():
    # a whole matrix, folded (zeros) or not, reports the zero pivot
    for A in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
        with pytest.raises(SingularMatrixError):
            solve(A, np.ones(A.shape[1]))


def test_lu_requires_square():
    # lu_factor takes square matrices only: not even the leading rows of one
    for shape in ((3, 2), (1, 3), (0, 0), (2, 3)):
        with pytest.raises(ValueError):
            lu_factor(np.ones(shape))


def test_solve_identity_and_diagonal():
    npt.assert_allclose(solve(np.eye(4), np.arange(1.0, 5.0)), np.arange(1.0, 5.0))
    x = solve(np.diag([2.0, 1j]), np.array([2.0, 1j]))
    npt.assert_allclose(x, [1.0, 1.0])
    x = solve(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([3.0, 4.0]))     # must pivot, not fail
    npt.assert_allclose(x, [2.0, 3.0])


def test_solve_manufactured_rhs():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    x_star = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    x = solve(A, A @ x_star)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-10


def test_solve_dimension_mismatch():
    for A in (np.eye(3), np.diag([1.0, 2.0, 3.0])):     # folded and whole
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(A, np.ones(4))


def test_backward_stable_residuals_many_sizes():
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    for _ in range(100):
        n = int(rng.integers(2, 301))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve(A, b)
        resid = np.linalg.norm(A @ x - b)
        bound = 100.0 * n * eps * np.linalg.norm(A, 2) * np.linalg.norm(x)
        assert resid <= bound


# ---------------------------------------------------------------------------
# condition number
# ---------------------------------------------------------------------------

def test_cond2_identity_and_diagonal():
    assert cond2(np.eye(6)) == pytest.approx(1.0, rel=1e-6)
    assert cond2(np.diag([10.0, 1.0])) == pytest.approx(10.0, rel=1e-6)


def test_cond2_hilbert():
    H = scipy.linalg.hilbert(4)
    assert cond2(H) == pytest.approx(1.5514e4, rel=1e-4)
    assert cond2(H) == pytest.approx(np.linalg.cond(H), rel=1e-12)


def test_cond2_scaling_invariance_and_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 101))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = cond2(A)
        assert c >= 1.0 - 1e-9
        assert cond2(3.7j * A) == pytest.approx(c, rel=1e-6)


def test_cond2_matches_svd_oracle_small():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(A, compute_uv=False)
        assert cond2(A) == pytest.approx(sv[0] / sv[-1], rel=1e-12)


def test_cond2_singular_is_infinite():
    assert cond2(np.zeros((2, 2))) == np.inf


def test_cond2_deterministic():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    assert cond2(A) == cond2(A.copy())


# ---------------------------------------------------------------------------
# even/odd fold of centrosymmetric systems
# ---------------------------------------------------------------------------

def centrosymmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A + A[::-1, ::-1], rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 30, 31])
def test_fold_solves_and_conditions_like_the_whole(n):
    A, b = centrosymmetric(n, n)
    x, c = np.linalg.solve(A, b), cond2(A)
    fact = lu_factor(A)
    assert [M.shape[0] for M in linalg.halves(*fact)] == ([1] if n == 1 else [(n + 1) // 2, n // 2])
    y = lu_solve(fact, b)
    assert np.linalg.norm(A @ y - b) <= 1e-13 * np.linalg.norm(A, 2) * np.linalg.norm(y)
    npt.assert_allclose(y, x, rtol=1e-12 * c)
    assert linalg.solve(*fact, cond=True)[1] == pytest.approx(c, rel=1e-12)


def test_fold_leaves_the_matrix_and_the_load_alone():
    # the halves are folded into a fresh buffer, and neither lu_factor nor lu_solve writes its input
    A, b = centrosymmetric(7, 1)
    A0, b0 = A.copy(), b.copy()
    fact = lu_factor(A)
    assert not any(np.shares_memory(M, A) for M in linalg.halves(*fact))
    lu_solve(fact, b)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)


def rows_of(A, calls):
    """halves' rows function over A, recording the (lo, hi) of every call."""
    def rows(lo, hi):
        calls.append((lo, hi))
        return A[lo:hi].copy()
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 30, 31])
def test_fold_reads_only_the_leading_rows(n):
    # the halves come from rows [0, ceil(n/2)) alone, built in one call:
    # garbage below them changes nothing, and they are the defining
    # formulas bit for bit
    A, b = centrosymmetric(n, n + 100)
    h, k = n - n // 2, n // 2
    blocks = [H.copy() for H in linalg.halves(*lu_factor(A))]
    M = A.copy()
    M[h:] = np.nan
    calls = []
    folded = [H.copy() for H in linalg.halves(rows_of(M, calls), n, h)]
    assert calls == [(0, h)]
    assert len(folded) == len(blocks) and all(np.array_equal(H, B) for H, B in zip(folded, blocks))
    CJ = A[:k, h:][:, ::-1]                     # the defining formulas, as one whole-array step
    assert np.array_equal(blocks[0][:k, :k], A[:k, :k] + CJ)
    assert n == 1 or np.array_equal(blocks[1], A[:k, :k] - CJ)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 30, 31])
def test_solve_is_gesv_on_the_halves_loads_mapped_back(n):
    # the load split, gesv on each half and the map back are the defining
    # formulas bit for bit, and gesdd's extreme values give cond2
    A, b = centrosymmetric(n, n + 200)
    h, k, r2 = n - n // 2, n // 2, math.sqrt(2.0)
    fact = lu_factor(A)
    blocks = [H.copy() for H in linalg.halves(*fact)]
    x, c, seconds = linalg.solve(*fact, b, cond=True)
    assert set(seconds) == {"fold", "solve", "cond"} and min(seconds.values()) >= 0.0
    sv = [np.linalg.svd(H, compute_uv=False) for H in blocks]
    assert c == max(s[0] for s in sv) / min(s[-1] for s in sv)
    if n == 1:
        assert np.array_equal(x, np.linalg.solve(blocks[0], b))
        return
    even = np.linalg.solve(blocks[0], np.concatenate(((b[:k] + b[h:][::-1]) / r2, b[k:h])))
    odd = np.linalg.solve(blocks[1], (b[:k] - b[h:][::-1]) / r2)
    assert np.array_equal(x[:k], (even[:k] + odd) / r2)
    assert np.array_equal(x[k:h], even[k:])
    assert np.array_equal(x[h:], ((even[:k] - odd) / r2)[::-1])


def test_solve_without_a_load_or_a_condition_number():
    # no b: no gesv and x is None; no cond: no gesdd and cond2 is NaN
    A, b = centrosymmetric(9, 3)
    x, c, seconds = linalg.solve(*lu_factor(A))
    assert x is None and math.isnan(c) and seconds["solve"] == seconds["cond"] == 0.0
    x, c, seconds = linalg.solve(*lu_factor(A), b)
    assert np.array_equal(x, linalg.solve(*lu_factor(A), b, cond=True)[0])
    assert math.isnan(c) and seconds["cond"] == 0.0


def test_solve_refuses_a_load_its_blocks_do_not_fit():
    # the load of an order-n matrix has length n, whether it is one whole
    # block (h = n) or folds into halves (h = ceil(n/2)); a misfit is
    # refused before any row is built
    A = np.arange(9.0).reshape(3, 3) + 4 * np.eye(3)
    C, b = centrosymmetric(9, 4)
    for M, h, loads in ((A, 3, (np.ones(2), np.ones(4), np.ones(5), np.ones(6), np.ones((3, 1)))),
                        (C, 5, (b[:8], np.ones(7), np.ones(10), b[:, None]))):
        calls = []
        for load in loads:
            with pytest.raises(ValueError, match="dimension mismatch"):
                linalg.solve(rows_of(M, calls), len(M), h, load)
        assert calls == []
        assert np.array_equal(linalg.solve(rows_of(M, calls), len(M), h, M @ np.ones(len(M)))[0],
                              lu_solve(lu_factor(M), M @ np.ones(len(M))))


@pytest.mark.parametrize("n, h", [(4, 3), (6, 5), (6, 2), (5, 6)])
def test_halves_and_solve_refuse_leading_rows_other_than_n_or_half(n, h):
    # h = n is the whole matrix and h = ceil(n/2) its halves; any other h
    # would fold blocks of the wrong orders, so it is refused before a row is built
    A, b = centrosymmetric(n, n)
    calls = []
    with pytest.raises(ValueError, match="leading rows"):
        next(linalg.halves(rows_of(A, calls), n, h))
    for load in (None, b):
        with pytest.raises(ValueError, match="leading rows"):
            linalg.solve(rows_of(A, calls), n, h, load, cond=True)
    assert calls == []


@pytest.mark.parametrize("n", [7, 390, 514])
def test_halves_builds_one_half_at_a_time_past_1_mib(n):
    # the leading rows of n = 7 fit 1 MiB, so one call builds them for both
    # halves; those of opgm N=128 and cgm N=512 do not, so each half takes
    # its own pass over [0, its order); either way the odd half is written
    # over the even one's buffer
    A, _ = centrosymmetric(n, n + 300)
    h, k = n - n // 2, n // 2
    expected = [H.copy() for H in linalg.halves(*lu_factor(A))]
    calls = []
    blocks = linalg.halves(rows_of(A, calls), n, h)
    even = next(blocks)
    assert np.array_equal(even, expected[0])
    assert calls[0][0] == 0 and calls[-1][1] == h
    first = len(calls)
    odd = next(blocks)
    assert np.array_equal(odd, expected[1])
    assert next(blocks, None) is None
    assert np.shares_memory(even, odd)
    if 16 * n * h <= 1 << 20:
        assert calls == [(0, h)]
    else:
        assert calls[first][0] == 0 and calls[-1][1] == k
    calls = []
    whole, = linalg.halves(rows_of(A, calls), n, n)      # h = n: A itself, from one call
    assert calls == [(0, n)] and np.array_equal(whole, A)


@pytest.mark.parametrize("n", [390, 514, 1542])
def test_fold_rows_transient_is_a_twentieth_of_the_matrix(n):
    # the orders of opgm N=128, cgm N=512 and opgm N=512: halves writes
    # each half from the rows it is given in ufunc calls of at most 2048
    # entries, so it allocates little beside its one buffer (and the copies
    # taken here), and they are the defining formulas bit for bit
    A, b = centrosymmetric(n, n)
    h, k = n - n // 2, n // 2
    tracemalloc.start()
    try:
        blocks = [H.copy() for H in linalg.halves(lambda lo, hi: A[lo:hi], n, h)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 16 * h * h - sum(H.nbytes for H in blocks) <= 0.05 * 16 * n * n
    CJ = A[:k, h:][:, ::-1]
    r2 = math.sqrt(2.0)
    even = np.block([[A[:k, :k] + CJ, A[:k, k:h] * r2], [A[k:h, :k] * r2, A[k:h, k:h]]])
    assert np.array_equal(blocks[0], even)
    assert np.array_equal(blocks[1], A[:k, :k] - CJ)


def test_fold_rows_validates_shape_and_finiteness():
    A, b = centrosymmetric(6, 5)
    C = A.copy()
    C[0, 0] += 1.0                              # all n rows of a matrix that is not centrosymmetric
    rows, n, h = lu_factor(C)                   # the single block, as it is
    whole, = linalg.halves(rows, n, h)
    assert h == n == 6 and np.shares_memory(whole, C) and np.array_equal(whole, C)
    S = A.copy()
    S[5, 0] = np.inf
    with pytest.raises(ValueError):
        lu_factor(S)
    for shape in ((4, 6), (2, 6), (3, 6), (6, 5), (6, 7)):    # not square, the leading ceil(n/2) rows included
        with pytest.raises(ValueError):
            lu_factor(np.ones(shape, dtype=complex))
    for M, load in ((np.ones((5, 5), dtype=complex), b), (A, b[:5])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lu_solve(lu_factor(M), load)
    S = A[:3].copy()
    S[0, 0] = np.inf                            # a non-finite leading row fails the even half
    with pytest.raises(ValueError, match="must be finite"):
        next(linalg.halves(lambda lo, hi: S[lo:hi], 6, 3))
    S = A[:3].copy()
    S[0, 0], S[0, -1] = 1e308, 1e308            # finite rows whose even half overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        next(linalg.halves(lambda lo, hi: S[lo:hi], 6, 3))
    S[0, -1] = -1e308                           # and whose odd half alone overflows
    blocks = linalg.halves(lambda lo, hi: S[lo:hi], 6, 3)
    next(blocks)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        next(blocks)
    A, _ = centrosymmetric(390, 6)              # rows past 1 MiB: the check comes before the next chunk
    A[0, 0] = np.nan
    calls = []
    with pytest.raises(ValueError, match="must be finite"):
        next(linalg.halves(rows_of(A, calls), 390, 195))
    assert calls == [(0, 48)]
    with pytest.raises(ValueError, match="must be finite"):   # the whole block of a rows function
        next(linalg.halves(lambda lo, hi: np.full((hi - lo, 6), np.nan), 6, 6))


@pytest.mark.parametrize("n", [7, 390, 515])
def test_lu_factor_gives_the_rows_of_the_matrix_itself(n):
    # below and past 1 MiB of leading rows, odd and even n: lu_factor's
    # rows are views of A, folded by halves into what a copy of A gives,
    # and one entry off centrosymmetry takes all n rows
    A, _ = centrosymmetric(n, n + 400)
    rows, m, h = lu_factor(A)
    assert (m, h) == (n, n - n // 2)
    assert np.shares_memory(rows(0, h), A) and np.array_equal(rows(2, 5), A[2:5])
    copy = A.copy()
    folded = [H.copy() for H in linalg.halves(lambda lo, hi: copy[lo:hi], n, h)]
    assert all(np.array_equal(H, B) for H, B in zip(linalg.halves(rows, m, h), folded, strict=True))
    A[-1, 0] += 1.0
    assert lu_factor(A)[1:] == (n, n)


@pytest.mark.parametrize("n", [390, 514, 1026])
def test_lu_factor_cond2_and_lu_solve_hold_no_copy_of_the_matrix(n):
    # on a centrosymmetric C the solve holds one half of C at a time in one
    # buffer (a quarter of C) and the chunk of rows it is folded from,
    # and lu_factor allocates no n x n complex array at all; LAPACK's
    # own copy of a half is not traced
    C, b = centrosymmetric(n, n + 500)
    size = 16.0 * n * n
    for call, bound in ((lambda: lu_factor(C), 0.1), (lambda: cond2(C), 0.3),
                        (lambda: lu_solve(lu_factor(C), b), 0.3)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * size, (peak / size, bound)


def test_cond2_of_blocks_is_the_block_diagonal_condition():
    # cond2 of a centrosymmetric matrix comes from its halves' singular
    # values: it is the condition of their block diagonal, and +inf when
    # the odd half B - CJ is zero (C = BJ)
    A, _ = centrosymmetric(7, 3)
    blocks = [H.copy() for H in linalg.halves(*lu_factor(A))]
    sv = [np.linalg.svd(H, compute_uv=False) for H in blocks]
    assert cond2(A) == max(s[0] for s in sv) / min(s[-1] for s in sv)
    assert cond2(A) == pytest.approx(cond2(scipy.linalg.block_diag(*blocks)), rel=1e-12)
    B = np.random.default_rng(3).standard_normal((2, 2))
    top = np.hstack([B, B[:, ::-1]])
    assert cond2(np.vstack([top, top[::-1, ::-1]])) == np.inf


def test_singular_half_raises():
    # J A J = A with the invertible even half [[2, sqrt(2)], [sqrt(2), 3]] and the odd half B - CJ = 0
    A = np.array([[1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
    fact = lu_factor(A)
    assert fact[2] == 2 and linalg.solve(*fact, cond=True)[1] == np.inf
    with pytest.raises(SingularMatrixError):
        lu_solve(fact, np.ones(3))
