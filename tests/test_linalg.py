"""Tests of the dense complex LU / condition-number layer."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from oscfred import linalg
from oscfred.linalg import (
    SingularMatrixError,
    as_complex_matrix,
    as_complex_vector,
    cond2,
    cond2_blocks,
    fold_rows,
    lu_factor,
    lu_solve,
    solve_blocks,
)


def fold_solve(A, b):
    """x with A x = b by LAPACK gesv on A's rows as one block, A left unchanged."""
    return solve_blocks(*fold_rows(np.array(A, dtype=complex), b))


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_validators_reject_bad_input():
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_complex_vector(np.array([[1.0]]))
    with pytest.raises(ValueError):
        as_complex_vector(np.array([np.inf]))


# ---------------------------------------------------------------------------
# LU factorization and solve
# ---------------------------------------------------------------------------

def test_lu_of_a_centrosymmetric_matrix_factors_its_halves():
    # J itself folds to diag(1, -1); a random J A J = A of odd order to halves of orders 4 and 3.
    # lu_factor's blocks are fold_rows' halves of A's leading rows and lu_solve is their gesv, bit for bit
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    for A in (np.array([[0.0, 1.0], [1.0, 0.0]]), X + X[::-1, ::-1]):
        b = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
        blocks, loads = fold_rows(np.array(A[:len(A) - len(A) // 2], dtype=complex), b)
        fact = lu_factor(A)
        assert [len(H) for H in fact] == [(len(A) + 1) // 2, len(A) // 2]
        assert all(np.array_equal(H, B) for H, B in zip(fact, blocks, strict=True))
        x = lu_solve(fact, b)
        assert np.array_equal(x, solve_blocks(blocks, loads))
        npt.assert_allclose(A @ x, b, atol=1e-12)
        npt.assert_allclose(x, fold_solve(A, b), rtol=1e-12)


def test_lu_detects_exact_singularity():
    # the explicit-matrix pair and the fold of assembled rows must both report the zero pivot
    solvers = (lambda A: lu_solve(lu_factor(A), np.ones(len(A))), lambda A: fold_solve(A, np.ones(len(A))))
    for call in solvers:
        with pytest.raises(SingularMatrixError):
            call(np.zeros((3, 3)))
        with pytest.raises(SingularMatrixError):
            call(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_requires_square():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))


def test_solve_identity_and_diagonal():
    npt.assert_allclose(fold_solve(np.eye(4), np.arange(1.0, 5.0)), np.arange(1.0, 5.0))
    x = fold_solve(np.diag([2.0, 1j]), np.array([2.0, 1j]))
    npt.assert_allclose(x, [1.0, 1.0])
    x = fold_solve(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([3.0, 4.0]))     # must pivot, not fail
    npt.assert_allclose(x, [2.0, 3.0])


def test_solve_manufactured_rhs():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    x_star = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    x = fold_solve(A, A @ x_star)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-10


def test_solve_dimension_mismatch():
    fact = lu_factor(np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lu_solve(fact, np.ones(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fold_solve(np.eye(3), np.ones(4))


def test_backward_stable_residuals_many_sizes():
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    for _ in range(100):
        n = int(rng.integers(2, 301))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = fold_solve(A, b)
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
    blocks, loads = fold_rows(A[:n - n // 2].copy(), b)
    assert [M.shape[0] for M in blocks] == ([1] if n == 1 else [(n + 1) // 2, n // 2])
    y = solve_blocks(blocks, loads)
    assert np.linalg.norm(A @ y - b) <= 1e-13 * np.linalg.norm(A, 2) * np.linalg.norm(y)
    npt.assert_allclose(y, x, rtol=1e-12 * c)
    assert cond2_blocks(blocks) == pytest.approx(c, rel=1e-12)


def test_fold_writes_the_halves_into_the_buffer_and_keeps_the_load():
    A, b = centrosymmetric(7, 1)
    b0, rows = b.copy(), A[:4].copy()
    blocks, _ = fold_rows(rows, b)
    assert all(np.shares_memory(M, rows) for M in blocks)
    assert np.array_equal(b, b0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 30, 31])
def test_fold_reads_only_the_leading_rows(n):
    # the halves come from rows [0, ceil(n/2)) alone: garbage below them
    # changes nothing, and they are the defining formulas bit for bit
    A, b = centrosymmetric(n, n + 100)
    h = n - n // 2
    blocks, loads = fold_rows(A[:h].copy(), b)
    M = A.copy()
    M[h:] = np.nan
    halves = linalg._halves(M)
    assert len(halves) == len(blocks)
    assert all(np.array_equal(H, B) for H, B in zip(halves, blocks))
    assert np.all(np.isnan(M[h:]))
    k = n // 2                                  # the defining formulas, as one whole-array step
    CJ = A[:k, h:][:, ::-1]
    assert np.array_equal(blocks[0][:k, :k], A[:k, :k] + CJ)
    assert n == 1 or np.array_equal(blocks[1], A[:k, :k] - CJ)
    assert n == 1 or np.array_equal(loads[1], (b[:k] - b[h:][::-1]) / math.sqrt(2.0))


@pytest.mark.parametrize("n", [390, 514, 1542])
def test_fold_rows_transient_is_a_twentieth_of_the_matrix(n):
    # the orders of opgm N=128, cgm N=512 and opgm N=512: the fold works
    # through fixed-size chunk buffers, so it allocates little beside the
    # rows it folds, and its halves are the defining formulas bit for bit
    A, b = centrosymmetric(n, n)
    h, k = n - n // 2, n // 2
    rows = A[:h].copy()
    tracemalloc.start()
    try:
        blocks, loads = fold_rows(rows, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * 16 * n * n
    CJ = A[:k, h:][:, ::-1]
    r2 = math.sqrt(2.0)
    even = np.block([[A[:k, :k] + CJ, A[:k, k:h] * r2], [A[k:h, :k] * r2, A[k:h, k:h]]])
    assert np.array_equal(blocks[0], even)
    assert np.array_equal(blocks[1], A[:k, :k] - CJ)


def test_fold_rows_validates_shape_and_finiteness():
    A, b = centrosymmetric(6, 5)
    blocks, loads = fold_rows(A, b)             # all n rows: the single block, as it is
    assert len(blocks) == 1 and blocks[0] is A and loads[0] is b
    S = A.copy()
    S[5, 0] = np.inf
    with pytest.raises(ValueError):
        fold_rows(S, b)
    for shape in ((4, 6), (2, 6), (6, 5), (3, 5), (6, 7)):    # neither all 6 rows nor the leading 3
        with pytest.raises(ValueError):
            fold_rows(np.ones(shape, dtype=complex), b)
    with pytest.raises(ValueError):
        fold_rows(A[:3], b[:5])
    S = A[:3].copy()
    S[0, 0] = np.inf
    with pytest.raises(ValueError):
        fold_rows(S, b)
    S = A[:3].copy()
    S[0, 0], S[0, -1] = 1e308, 1e308            # finite rows whose even half overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        fold_rows(S, b)


def test_cond2_of_blocks_is_the_block_diagonal_condition():
    rng = np.random.default_rng(3)
    P, Q = rng.standard_normal((4, 4)), rng.standard_normal((3, 3))
    assert cond2_blocks([P, Q]) == pytest.approx(cond2(scipy.linalg.block_diag(P, Q)), rel=1e-12)
    assert cond2_blocks([P, np.zeros((2, 2))]) == np.inf


def test_singular_half_raises():
    # J A J = A with the invertible even half [[2, sqrt(2)], [sqrt(2), 3]] and the odd half B - CJ = 0
    A = np.array([[1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
    blocks, loads = fold_rows(A[:2], np.ones(3))
    assert cond2_blocks(blocks) == np.inf
    with pytest.raises(SingularMatrixError):
        solve_blocks(blocks, loads)
