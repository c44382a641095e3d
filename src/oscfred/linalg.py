"""Dense complex linear algebra for the discrete Galerkin systems.

Every entry point works on the halves of an exactly centrosymmetric matrix
(J A J = A bitwise, J the index reversal): the orthogonal even/odd
transform splits such a system into two independent halves of orders
ceil(n/2) and floor(n/2).  A half costs an eighth of the whole in LU and
SVD flops, so a folded solve with its condition number costs about a
quarter of the unfolded one.  Any other matrix is the single block
``(A,)`` and runs through the same calls.

* :func:`fold` / :func:`unfold` -- the halves of A x = b, written into
  A's own buffer, and the map of the halves' solutions back to x;
* :func:`solve` -- one-shot partial-pivoted LU solve, ``np.linalg.solve``
  (LAPACK ``gesv``), on each block;
* :func:`cond2` -- exact 2-norm condition number sigma_max/sigma_min from
  the singular values, ``np.linalg.svd(compute_uv=False)`` (LAPACK
  ``gesdd`` without vectors), over the blocks of one matrix or of several;
* :func:`lu_factor` / :func:`lu_solve` -- a factorization of the blocks
  kept for reuse (including solves with A^H) through ``scipy.linalg``
  (LAPACK ``getrf`` / ``getrs``); they import scipy on first call, so
  nothing else pays for it.

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
    "fold",
    "lu_factor",
    "lu_solve",
    "solve",
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


def _halves(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`fold`'s halves of a centrosymmetric M, written into M's buffer."""
    n = M.shape[0]
    k = n // 2
    if k == 0:
        return (M,)
    h = n - k
    B, CJ, odd = M[:k, :k], M[:k, h:][:, ::-1], M[h:, h:]
    np.subtract(B, CJ, out=odd)
    np.add(B, CJ, out=B)
    M[:k, k:h] *= _ROOT2
    M[k:h, :k] *= _ROOT2
    return M[:h, :h], odd


def _blocks(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """The halves of a copy of M when M is centrosymmetric, else ``(M,)``; M is left alone."""
    return _halves(M.copy()) if _centrosymmetric(M) else (M,)


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
    :func:`fold`); any other matrix has one, itself.
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


def lu_solve(fact: LUFactorization, b, conj_transpose: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) from a factorization of A.

    The fold is a real orthogonal similarity, so A^H folds to the halves'
    conjugate transposes and both modes solve block by block.
    """
    import scipy.linalg

    v = _matching_vector(fact.n, b)
    trans = 2 if conj_transpose else 0
    return unfold([scipy.linalg.lu_solve(f, w, trans=trans, check_finite=False)
                   for f, w in zip(zip(fact.lu, fact.piv), _split(v, fact.lu))])


def solve(A, b) -> np.ndarray:
    """One-shot solve A x = b with partial-pivoted LU (LAPACK gesv) on each block.

    Raises SingularMatrixError on a zero pivot, the condition lu_factor checks.
    """
    M = _square(A)
    v = _matching_vector(M.shape[0], b)
    blocks = _blocks(M)
    try:
        return unfold([np.linalg.solve(H, w) for H, w in zip(blocks, _split(v, blocks))])
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_SINGULAR) from None


def cond2(A, *more) -> float:
    """2-norm condition number sigma_max/sigma_min from the singular values.

    With further square matrices, the condition number of the
    block-diagonal matrix diag(A, *more): the largest sigma_max over the
    least sigma_min.  A centrosymmetric matrix is taken over its halves,
    whose singular values together are its own.  Returns +inf when the
    smallest singular value is exactly zero.
    """
    sv = [np.linalg.svd(H, compute_uv=False) for M in (A, *more) for H in _blocks(_square(M))]
    smin = min(s[-1] for s in sv)
    if smin == 0.0:
        return float("inf")
    return float(max(s[0] for s in sv) / smin)


def fold(A, b) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Blocks of A x = b and their loads: for an exactly centrosymmetric A its two halves.

    With n = 2k or 2k + 1, A's leading k rows read [B, c, C] (the column c
    for odd n only) and, for odd n, row k reads [r, alpha, .].  The
    orthogonal transform to the vectors (e_i +- e_{n-1-i})/sqrt(2), i < k,
    and the middle unit vector takes A to diag(even, odd) with

        even = [[B + CJ, sqrt(2) c], [sqrt(2) r, alpha]]   (order n - k)
        odd  = B - CJ                                       (order k)

    The halves are written over the leading and trailing diagonal blocks of
    A's complex128 buffer and returned as views; b is not modified.  So a
    complex128 A is overwritten, while any other A is converted first and
    the halves live in the converted copy, A itself left unchanged.  A
    matrix that is not centrosymmetric, or of order 1, comes back as the
    single block ``((A,), (b,))``, converted to complex.
    """
    M = _square(A)
    v = _matching_vector(M.shape[0], b)
    blocks = _halves(M) if _centrosymmetric(M) else (M,)
    return blocks, _split(v, blocks)


def unfold(xs) -> np.ndarray:
    """Solution of A x = b from the solutions of :func:`fold`'s halves; a single block's as it is."""
    if len(xs) == 1:
        return xs[0]
    even, odd = xs
    k, h = len(odd), len(even)
    x = np.empty(h + k, dtype=complex)
    x[:k] = (even[:k] + odd) / _ROOT2
    x[h:] = ((even[:k] - odd) / _ROOT2)[::-1]
    x[k:h] = even[k:]
    return x
