"""Dense complex linear algebra for the discrete Galerkin systems.

Every entry point works on the halves of an exactly centrosymmetric matrix
(J A J = A bitwise, J the index reversal): the orthogonal even/odd
transform splits such a system into two independent halves of orders
ceil(n/2) and floor(n/2).  A half costs an eighth of the whole in LU and
SVD flops, so a folded solve with its condition number costs about a
quarter of the unfolded one.  Any other matrix is the single block
``(A,)`` and runs through the same calls.

* :func:`lu_factor` -- the blocks of A x = b, from a square A or from the
  leading ceil(n/2) rows of a centrosymmetric A that assembly computes,
  folded in place;
* :func:`lu_solve` -- partial-pivoted LU solve, ``np.linalg.solve``
  (LAPACK ``gesv``), on each block, and the map of the blocks' solutions
  back to x;
* :func:`cond2_blocks` -- exact 2-norm condition number sigma_max/sigma_min
  from the singular values, ``np.linalg.svd(compute_uv=False)`` (LAPACK
  ``gesdd`` without vectors), over the same blocks; :func:`cond2` over the
  blocks of one square matrix.

A square matrix is tested for exact centrosymmetry, so one assembled
outside the solve path (criterion 7b's Gram matrix, the benchmark's traced
solve) is folded as well.  numpy's LAPACK is the only one the package
calls.  Matrices and vectors are plain complex ndarrays, checked for shape
and finiteness at the entry points.
"""

from __future__ import annotations

import math

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


def _centrosymmetric(M: np.ndarray) -> bool:
    """Whether J M J = M holds bitwise, J the index reversal."""
    return bool(np.array_equal(M, M[::-1, ::-1]))


_FOLD_CHUNK_BYTES = 1 << 15


def _halves(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`lu_factor`'s halves, made in place in M[:ceil(n/2)], n = M.shape[1]; later rows are not read.

    The rows of B go in chunks of about 32 KiB (at least 8 rows) through a
    contiguous work array holding B, CJ and the even half's rows in turn; a
    ufunc on any non-contiguous operand, the strided B and CJ themselves
    included, would buffer or copy it.  One finiteness check per chunk
    covers both halves' rows.  Raises ValueError if an entry of either half
    is not finite.
    """
    k = M.shape[1] // 2
    h = M.shape[1] - k
    step = max(8, _FOLD_CHUNK_BYTES // (M.itemsize * max(k, 1)))
    flat = np.empty(3 * min(step, k) * k, dtype=complex)
    finite = True
    for a in range(0, k, step):
        r = min(step, k - a)
        work = flat[:3 * r * k].reshape(3, r, k)
        B, CJ, even = work
        np.copyto(B, M[a:a + r, :k])
        np.copyto(CJ, M[a:a + r, h:][:, ::-1])
        np.add(B, CJ, out=even)
        np.subtract(B, CJ, out=CJ)                  # the odd half's rows
        finite = finite and bool(np.isfinite(work[1:]).all())
        M[a:a + r, :k] = even
        M[a:a + r, h:] = CJ
    M[:k, k:h] *= _ROOT2
    M[k:h, :k] *= _ROOT2
    if not (finite and np.isfinite(M[:k, k:h]).all() and np.isfinite(M[k:h, :h]).all()):
        raise ValueError("matrix entries must be finite")
    return (M[:h, :h], M[:k, h:]) if k else (M[:h, :h],)


def _blocks(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """The halves of a copy of M's leading rows when M is centrosymmetric, else ``(M,)``; M is left alone."""
    return _halves(M[:len(M) - len(M) // 2].copy()) if _centrosymmetric(M) else (M,)


def _split(v: np.ndarray, blocks: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The load of each block: the even and odd halves of v, or v itself for one block."""
    if len(blocks) == 1:
        return (v,)
    k = len(v) // 2
    top, bottom = v[:k], v[len(v) - k:][::-1]
    return np.concatenate(((top + bottom) / _ROOT2, v[k:len(v) - k])), (top - bottom) / _ROOT2


def lu_factor(A) -> tuple[np.ndarray, ...]:
    """The checked blocks of A x = b for :func:`lu_solve`, from a square A or the leading rows of a centrosymmetric one.

    A square A is not written: the halves of a copy of its leading rows
    when it is exactly centrosymmetric, else the single block ``(A,)``.
    An array of shape (ceil(n/2), n), n >= 2, is the leading rows of an A
    that is centrosymmetric by construction, as
    :func:`oscfred.galerkin.assemble_leading_rows` gives them.  For
    n = 2k or 2k + 1 those rows read [B, c, C] (the column c for odd n
    only) and, for odd n, row k reads [r, alpha, .].  The orthogonal
    transform to the vectors (e_i +- e_{n-1-i})/sqrt(2), i < k, and the
    middle unit vector takes A to diag(even, odd) with

        even = [[B + CJ, sqrt(2) c], [sqrt(2) r, alpha]]   (order n - k)
        odd  = B - CJ                                       (order k)

    The halves are written over the rows, even over [B, c] and odd over
    C, and returned as views: a complex128 array is overwritten, any other
    is converted first and left unchanged.  Every block is checked to be
    finite; any other shape raises ValueError.  No factor is kept for
    reuse: :func:`lu_solve` runs gesv on the blocks, and
    :func:`cond2_blocks` takes the same blocks.
    """
    M = np.asarray(A, dtype=complex)
    if M.ndim == 2 and M.shape[0] == M.shape[1] - M.shape[1] // 2 < M.shape[1]:
        return _halves(M)
    return _blocks(_square(M))


def lu_solve(blocks, b) -> np.ndarray:
    """x with A x = b from ``lu_factor(A)``: gesv on each block; SingularMatrixError on a zero pivot."""
    v = _matching_vector(sum(len(H) for H in blocks), b)
    try:
        return _unfold([np.linalg.solve(H, w) for H, w in zip(blocks, _split(v, blocks))])
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_SINGULAR) from None


def cond2_blocks(blocks) -> float:
    """cond2 of diag(*blocks), the blocks as they are; +inf when the least singular value is exactly 0."""
    sv = [np.linalg.svd(H, compute_uv=False) for H in blocks]
    smin = min(s[-1] for s in sv)
    if smin == 0.0:
        return float("inf")
    return float(max(s[0] for s in sv) / smin)


def cond2(A) -> float:
    """2-norm condition number sigma_max/sigma_min from the singular values.

    A centrosymmetric matrix is taken over its halves, whose singular
    values together are its own.
    """
    return cond2_blocks(_blocks(_square(A)))


def _unfold(xs) -> np.ndarray:
    """Solution of A x = b from the solutions of :func:`lu_factor`'s halves; a single block's as it is."""
    if len(xs) == 1:
        return xs[0]
    even, odd = xs
    k, h = len(odd), len(even)
    x = np.empty(h + k, dtype=complex)
    x[:k] = (even[:k] + odd) / _ROOT2
    x[h:] = ((even[:k] - odd) / _ROOT2)[::-1]
    x[k:h] = even[k:]
    return x
