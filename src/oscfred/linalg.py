"""Dense complex linear algebra for the discrete Galerkin systems.

Every entry point works on the blocks of a matrix A.  An exactly
centrosymmetric A (J A J = A bitwise, J the index reversal) has two: the
orthogonal even/odd transform splits it into independent halves of
orders ceil(n/2) and floor(n/2), each a function of A's leading ceil(n/2)
rows alone.  A half costs an eighth of the whole in LU and SVD flops, so a
folded solve with its condition number costs about a quarter of the
unfolded one.  Any other matrix is the single block ``(A,)``.

* :func:`fold` -- blocks of A from a function that gives its rows, in
  chunks of at most 1 MiB, so that A need never be held whole;
* :func:`lu_factor` -- the blocks of a square A, folded through
  :func:`fold` when A is exactly centrosymmetric;
* :func:`lu_solve` -- partial-pivoted LU solve, ``np.linalg.solve``
  (LAPACK ``gesv``), on each block, the load split onto the blocks
  (:func:`split`) and their solutions mapped back (:func:`unfold`);
* :func:`cond2_blocks` -- exact 2-norm condition number sigma_max/sigma_min
  from the singular values, ``np.linalg.svd(compute_uv=False)`` (LAPACK
  ``gesdd`` without vectors), over the same blocks; :func:`cond2` over the
  blocks of one square matrix.

:func:`oscfred.problems.run_galerkin` folds, solves and conditions one
block at a time.  numpy's LAPACK is the only one the package calls.
Matrices and vectors are plain complex ndarrays, checked for shape and
finiteness at the entry points.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["SingularMatrixError", "cond2", "cond2_blocks", "lu_factor", "lu_solve"]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a zero pivot survives partial pivoting.

    For the Galerkin systems this signals that 1 is (numerically) an
    eigenvalue of the discrete operator or that the basis is degenerate.
    """


_SINGULAR = "exactly singular matrix: zero pivot after partial pivoting"


def _square(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or len(M) < 1:
        raise ValueError(f"expected a square matrix of positive order, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _matching_vector(n: int, b) -> np.ndarray:
    v = np.asarray(b, dtype=complex)
    if v.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, vector has shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


_ROOT2 = math.sqrt(2.0)
_CHUNK_BYTES = 1 << 20      # the rows :func:`fold` asks for at a time
_OP_SIZE = 2048             # least entries per ufunc call in :func:`fold`


def passes(n: int, h: int) -> list[tuple]:
    """:func:`fold` parities per pass: ``(None,)`` if h = n, both halves if h rows fit in 1 MiB, else one a pass."""
    return [(None,)] if h == n else [(0, 1)] if 16 * n * h <= _CHUNK_BYTES else [(0,), (1,)]


def fold(rows: Callable[[int, int], np.ndarray], n: int, parities: tuple, out: np.ndarray | None = None) -> tuple:
    """Blocks ``parities`` of an order-n matrix A, from one pass over the rows lo..hi-1 that ``rows(lo, hi)`` gives.

    ``(None,)`` gives A itself, from one call.  Otherwise each parity is
    the even (0) or odd (1) half of a centrosymmetric A, written into a
    fresh array or, for one half, the leading entries of the flat array
    ``out``.  The leading rows come in one call if they fit in
    1 MiB, else in calls of at most that and an eighth of A.
    For n = 2k or 2k + 1 they read [B, c, C] (the column c for odd n
    only) and, for odd n, row k reads [r, alpha, .].  The orthogonal
    transform to the vectors (e_i +- e_{n-1-i})/sqrt(2), i < k, and the
    middle unit vector takes A to diag(even, odd) with

        even = [[B + CJ, sqrt(2) c], [sqrt(2) r, alpha]]   (order n - k)
        odd  = B - CJ                                       (order k)

    A ufunc call takes max(2048, n^2/64) entries: numpy buffers each
    strided operand, and three buffers of n^2/64 entries are under a
    twentieth of A.  Raises ValueError on a non-finite entry.
    """
    if parities == (None,):
        return (_square(rows(0, n)),)
    k, h = n // 2, n - n // 2
    sizes = [k if p else h for p in parities]
    halves = [(np.empty(s * s, dtype=complex) if out is None else out[:s * s]).reshape(s, s) for s in sizes]
    size = max(sizes)                               # the rows to read
    step = size if 16 * n * size <= _CHUNK_BYTES else max(1, min(_CHUNK_BYTES // (16 * n), n // 8))
    sub = max(1, max(_OP_SIZE, n * n // 64) // max(k, 1))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        R = rows(lo, hi)
        top = min(hi, k) - lo                       # the chunk's rows above the middle one
        for a in range(0, top, sub):
            b = min(a + sub, top)
            for p, H in zip(parities, halves):
                (np.subtract if p else np.add)(R[a:b, :k], R[a:b, h:][:, ::-1], out=H[lo + a:lo + b, :k])
        if h > k and 0 in parities:                 # odd n: sqrt(2) c, and the middle row
            H = halves[parities.index(0)]
            np.multiply(R[:top, k], _ROOT2, out=H[lo:lo + top, k])
            if hi > k:
                np.multiply(R[k - lo, :k], _ROOT2, out=H[k, :k])
                H[k, k] = R[k - lo, k]
        del R                                       # before the next chunk is built
        if not all(np.isfinite(H[lo:hi]).all() for H in halves):
            raise ValueError("matrix entries must be finite")
    return tuple(halves)


def split(v: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """The load of each of ``count`` blocks: the even and odd halves of v, or v itself for one block."""
    if count == 1:
        return (v,)
    k = len(v) // 2
    top, bottom = v[:k], v[len(v) - k:][::-1]
    return np.concatenate(((top + bottom) / _ROOT2, v[k:len(v) - k])), (top - bottom) / _ROOT2


def unfold(xs) -> np.ndarray:
    """Solution of A x = b from the solutions of A's blocks; a single block's as it is."""
    if len(xs) == 1:
        return xs[0]
    even, odd = xs
    k, h = len(odd), len(even)
    x = np.empty(h + k, dtype=complex)
    x[:k] = (even[:k] + odd) / _ROOT2
    x[h:] = ((even[:k] - odd) / _ROOT2)[::-1]
    x[k:h] = even[k:]
    return x


def lu_factor(A) -> tuple[np.ndarray, ...]:
    """The checked blocks of a square A for :func:`lu_solve` and :func:`cond2_blocks`; A is not written.

    An exactly centrosymmetric A gives its halves (:func:`fold`), any
    other A the single block ``(A,)``.  No factor is kept for reuse.
    """
    M = _square(A)
    if not np.array_equal(M, M[::-1, ::-1]):
        return (M,)
    return fold(lambda lo, hi: M[lo:hi], len(M), (0, 1)[:len(M)])      # order 1: the even half alone


def lu_solve(blocks, b) -> np.ndarray:
    """x with A x = b from ``lu_factor(A)``: gesv on each block; SingularMatrixError on a zero pivot."""
    v = _matching_vector(sum(len(H) for H in blocks), b)
    try:
        return unfold([np.linalg.solve(H, w) for H, w in zip(blocks, split(v, len(blocks)))])
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_SINGULAR) from None


def cond2_blocks(blocks) -> float:
    """cond2 of diag(*blocks), the blocks as they are; +inf when the least singular value is exactly 0."""
    sv = [np.linalg.svd(H, compute_uv=False) for H in blocks]
    smin = min(s[-1] for s in sv)
    return float("inf") if smin == 0.0 else float(max(s[0] for s in sv) / smin)


def cond2(A) -> float:
    """2-norm condition number sigma_max/sigma_min of a square matrix, over its halves if it is centrosymmetric."""
    return cond2_blocks(lu_factor(A))
