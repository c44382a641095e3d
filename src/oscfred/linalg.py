"""Dense complex linear algebra for the discrete Galerkin systems.

The solve path runs on numpy's LAPACK bindings alone:

* :func:`solve` -- one-shot partial-pivoted LU solve, ``np.linalg.solve``
  (LAPACK ``gesv``);
* :func:`cond2` -- exact 2-norm condition number sigma_max/sigma_min from
  the singular values, ``np.linalg.svd(compute_uv=False)`` (LAPACK
  ``gesdd`` without vectors).

:func:`lu_factor` / :func:`lu_solve` keep a factorization for reuse
(including solves with A^H) through ``scipy.linalg`` (LAPACK ``getrf`` /
``getrs``); they import scipy on first call, so nothing else pays for it.

Matrices and vectors are plain complex ndarrays; the validators below
enforce the construction invariants (shape, finiteness) at the public
entry points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np

__all__ = [
    "LUFactorization",
    "SingularMatrixError",
    "as_complex_matrix",
    "as_complex_vector",
    "cond2",
    "lu_factor",
    "lu_solve",
    "solve",
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


@dataclass(frozen=True)
class LUFactorization:
    """Packed LU factors (unit lower / upper in one array) plus pivot rows."""

    lu: np.ndarray
    piv: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def lu_factor(A) -> LUFactorization:
    """Partial-pivoted LU of a square matrix; raises SingularMatrixError on a zero pivot."""
    import scipy.linalg

    M = _square(A)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    if np.any(np.diag(lu) == 0):
        raise SingularMatrixError(_SINGULAR)
    return LUFactorization(lu=lu, piv=piv)


def lu_solve(fact: LUFactorization, b, conj_transpose: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) from a factorization of A."""
    import scipy.linalg

    v = _matching_vector(fact.n, b)
    return scipy.linalg.lu_solve((fact.lu, fact.piv), v, trans=2 if conj_transpose else 0, check_finite=False)


def solve(A, b) -> np.ndarray:
    """One-shot solve A x = b with partial-pivoted LU (LAPACK gesv).

    Raises SingularMatrixError on a zero pivot, the condition lu_factor checks.
    """
    M = _square(A)
    v = _matching_vector(M.shape[0], b)
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_SINGULAR) from None


def cond2(A) -> float:
    """2-norm condition number sigma_max/sigma_min from the singular values.

    Returns +inf when the smallest singular value is exactly zero.
    """
    sv = np.linalg.svd(_square(A), compute_uv=False)
    if sv[-1] == 0.0:
        return float("inf")
    return float(sv[0] / sv[-1])
