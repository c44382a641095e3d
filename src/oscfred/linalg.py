"""Dense complex linear algebra for the discrete Galerkin systems.

Every entry point works on the halves of an exactly centrosymmetric matrix
(J A J = A bitwise, J the index reversal): the orthogonal even/odd
transform splits such a system into two independent halves of orders
ceil(n/2) and floor(n/2).  A half costs an eighth of the whole in LU and
SVD flops, so a folded solve with its condition number costs about a
quarter of the unfolded one.  Any other matrix is the single block
``(A,)`` and runs through the same calls.

* :func:`fold_rows` / :func:`unfold` -- the blocks of A x = b from the
  rows of A that assembly computes: the halves, written in place into A's
  leading ceil(n/2) rows, or all n rows as one block; and the map of the
  blocks' solutions back to x;
* :func:`solve_blocks` -- partial-pivoted LU solve, ``np.linalg.solve``
  (LAPACK ``gesv``), on each of :func:`fold_rows`'s blocks;
* :func:`cond2_blocks` -- exact 2-norm condition number sigma_max/sigma_min
  from the singular values, ``np.linalg.svd(compute_uv=False)`` (LAPACK
  ``gesdd`` without vectors), over :func:`fold_rows`'s blocks; :func:`cond2`
  over the blocks of one explicit matrix;
* :func:`lu_factor` / :func:`lu_solve` -- a factorization of the blocks
  kept for reuse through ``scipy.linalg`` (LAPACK ``getrf`` / ``getrs``);
  they import scipy on first call, so nothing else pays for it.

:func:`cond2` and :func:`lu_factor` take a whole matrix assembled outside
the solve path (criterion 7b's Gram matrix, the benchmark's traced solve)
and test it for exact centrosymmetry themselves.

Matrices and vectors are plain complex ndarrays; the validators below
enforce the construction invariants (shape, finiteness) at the public
entry points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LUFactorization",
    "SingularMatrixError",
    "as_complex_matrix",
    "as_complex_vector",
    "cond2",
    "cond2_blocks",
    "fold_rows",
    "lu_factor",
    "lu_solve",
    "solve_blocks",
    "unfold",
]

class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a zero pivot survives partial pivoting.

    For the Galerkin systems this signals that 1 is (numerically) an
    eigenvalue of the discrete operator or that the basis is degenerate.
    """


def as_complex_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with positive dimensions, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def as_complex_vector(b) -> np.ndarray:
    v = np.asarray(b, dtype=complex)
    if v.ndim != 1 or len(v) < 1:
        raise ValueError(f"expected a 1-d vector of positive length, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


_SINGULAR = "exactly singular matrix: zero pivot after partial pivoting"


def _square(A) -> np.ndarray:
    M = as_complex_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    return M


def _matching_vector(n: int, b) -> np.ndarray:
    v = as_complex_vector(b)
    if len(v) != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, vector has length {len(v)}")
    return v


_ROOT2 = math.sqrt(2.0)


def _centrosymmetric(M: np.ndarray) -> bool:
    """Whether J M J = M holds bitwise, J the index reversal."""
    return bool(np.array_equal(M, M[::-1, ::-1]))


_FOLD_CHUNK_BYTES = 1 << 15


def _halves(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`fold_rows`'s halves, made in place in M[:ceil(n/2)], n = M.shape[1]; later rows are not read.

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


@dataclass(frozen=True)
class LUFactorization:
    """Packed LU factors (unit lower / upper in one array) plus pivot rows, one pair per block.

    A centrosymmetric matrix has two blocks, its even and odd halves (see
    :func:`fold_rows`); any other matrix has one, itself.
    """

    lu: tuple[np.ndarray, ...]
    piv: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return sum(lu.shape[0] for lu in self.lu)


def lu_factor(A) -> LUFactorization:
    """Partial-pivoted LU of each block of a square matrix; raises SingularMatrixError on a zero pivot."""
    import scipy.linalg

    lus, pivs = [], []
    for M in _blocks(_square(A)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
        if np.any(np.diag(lu) == 0):
            raise SingularMatrixError(_SINGULAR)
        lus.append(lu)
        pivs.append(piv)
    return LUFactorization(lu=tuple(lus), piv=tuple(pivs))


def lu_solve(fact: LUFactorization, b) -> np.ndarray:
    """Solve A x = b from a factorization of A, block by block."""
    import scipy.linalg

    v = _matching_vector(fact.n, b)
    return unfold([scipy.linalg.lu_solve(f, w, check_finite=False)
                   for f, w in zip(zip(fact.lu, fact.piv), _split(v, fact.lu))])


def solve_blocks(blocks, loads) -> np.ndarray:
    """x from :func:`fold_rows`'s checked blocks, solved as they are (gesv); SingularMatrixError on a zero pivot."""
    try:
        return unfold([np.linalg.solve(H, w) for H, w in zip(blocks, loads)])
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


def fold_rows(S, b) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Blocks of A x = b and their loads, from the rows S of A that :func:`oscfred.galerkin.assemble_leading_rows` gives.

    With n = len(b), S is either all n rows of A, the single block
    ``((S,), (b,))``, or the leading ceil(n/2) rows of an A that is
    centrosymmetric by construction.  For n = 2k or 2k + 1 those rows read
    [B, c, C] (the column c for odd n only) and, for odd n, row k reads
    [r, alpha, .].  The orthogonal transform to the vectors
    (e_i +- e_{n-1-i})/sqrt(2), i < k, and the middle unit vector takes A
    to diag(even, odd) with

        even = [[B + CJ, sqrt(2) c], [sqrt(2) r, alpha]]   (order n - k)
        odd  = B - CJ                                       (order k)

    The halves are written over S, even over [B, c] and odd over C, and
    returned as views; b is not modified.  So a complex128 S is
    overwritten, while any other S is converted first, S itself left
    unchanged.  Each block is checked to be finite.
    """
    v, M, n = as_complex_vector(b), np.asarray(S, dtype=complex), len(b)
    if M.shape == (n, n):
        blocks = (as_complex_matrix(M),)
    elif M.shape == (n - n // 2, n):
        blocks = _halves(M)
    else:
        raise ValueError(f"dimension mismatch: a load of length {n} needs all {n} or the leading "
                         f"{n - n // 2} rows of the matrix, got shape {M.shape}")
    return blocks, _split(v, blocks)


def unfold(xs) -> np.ndarray:
    """Solution of A x = b from the solutions of :func:`fold_rows`'s halves; a single block's as it is."""
    if len(xs) == 1:
        return xs[0]
    even, odd = xs
    k, h = len(odd), len(even)
    x = np.empty(h + k, dtype=complex)
    x[:k] = (even[:k] + odd) / _ROOT2
    x[h:] = ((even[:k] - odd) / _ROOT2)[::-1]
    x[k:h] = even[k:]
    return x
