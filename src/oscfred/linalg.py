"""Dense complex linear algebra for the discrete Galerkin systems: one solve over a matrix's rows.

An exactly centrosymmetric A (J A J = A bitwise, J the index reversal)
splits under the orthogonal even/odd transform into halves of orders
ceil(n/2) and floor(n/2), each a function of A's leading h = ceil(n/2)
rows alone and an eighth of the whole in LU and SVD flops (Cantoni &
Butler, Linear Algebra Appl. 13, 1976); any other A is one block, h = n.
:func:`halves` builds the blocks one at a time in one buffer, and
:func:`solve` runs gesv (``np.linalg.solve``) and values-only gesdd
(``np.linalg.svd``) on each in turn; :func:`lu_factor` gives a square
matrix as ``(rows, n, h)`` for :func:`lu_solve` and :func:`cond2`.
numpy's LAPACK is the only one the package calls.  Inputs are plain
complex ndarrays, checked for shape and finiteness.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

__all__ = ["SingularMatrixError", "cond2", "halves", "lu_factor", "lu_solve", "solve"]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a zero pivot survives partial pivoting.

    For the Galerkin systems this signals that 1 is (numerically) an
    eigenvalue of the discrete operator or that the basis is degenerate.
    """


_SINGULAR = "exactly singular matrix: zero pivot after partial pivoting"


def _finite(M: np.ndarray) -> np.ndarray:
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def _vector(b, n: int) -> np.ndarray:
    v = np.asarray(b, dtype=complex)
    if v.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix of order {n}, vector of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


_ROOT2 = math.sqrt(2.0)
_CHUNK_BYTES = 1 << 20      # the leading rows :func:`halves` builds at once, and its chunk limit past that
_OP_SIZE = 2048             # least entries per ufunc call in :func:`halves`


def halves(rows: Callable[[int, int], np.ndarray], n: int, h: int):
    """The blocks of an order-n matrix A, one at a time, from its leading h rows that ``rows(lo, hi)`` gives.

    h = n gives A itself.  Else h must be ceil(n/2), and A is exactly
    centrosymmetric: its even half, then its odd one, each folded into the
    leading entries of one buffer of h^2 entries, so the odd half is
    written over the even one once the even one has been used.  The rows
    are built once if they fit in 1 MiB, else for each half in chunks of
    at most that and an eighth of A.  For n = 2k or 2k + 1 they read
    [B, c, C] (the column c for odd n only) and, for odd n, row k reads
    [r, alpha, .].  The orthogonal transform to the vectors
    (e_i +- e_{n-1-i})/sqrt(2), i < k, and the middle unit vector takes A
    to diag(even, odd) with

        even = [[B + CJ, sqrt(2) c], [sqrt(2) r, alpha]]   (order h)
        odd  = B - CJ                                       (order k)

    A ufunc call takes max(2048, n^2/64) entries: numpy buffers each
    strided operand, and three buffers of n^2/64 entries are under a
    twentieth of A.  Raises ValueError on any other h, before ``rows`` is
    called, and on a non-finite entry, checked for each chunk before the
    next is built.
    """
    if h not in (n, n - n // 2):
        raise ValueError(f"leading rows {h} of an order-{n} matrix: expected {n} or {n - n // 2}")
    if h == n:
        yield _finite(rows(0, n))
        return
    k = n // 2
    whole = rows(0, h) if 16 * n * h <= _CHUNK_BYTES else None
    step = h if whole is not None else max(1, min(_CHUNK_BYTES // (16 * n), n // 8))
    sub = max(_OP_SIZE, n * n // 64) // k             # rows per ufunc call, >= 1 for n >= 2
    buf = np.empty(h * h, dtype=complex)
    for size, op in ((h, np.add), (k, np.subtract)):
        H = buf[:size * size].reshape(size, size)
        for lo in range(0, size, step):
            hi = min(lo + step, size)
            R = rows(lo, hi) if whole is None else whole[lo:hi]
            top = min(hi, k) - lo                       # the chunk's rows above the middle one
            for a in range(0, top, sub):
                b = min(a + sub, top)
                op(R[a:b, :k], R[a:b, h:][:, ::-1], out=H[lo + a:lo + b, :k])
            if size > k:                                # odd n, even half: sqrt(2) c, and the middle row
                np.multiply(R[:top, k], _ROOT2, out=H[lo:lo + top, k])
                if hi > k:
                    np.multiply(R[k - lo, :k], _ROOT2, out=H[k, :k])
                    H[k, k] = R[k - lo, k]
            del R                                       # before the next chunk is built
            _finite(H[lo:hi])
        yield H


def solve(rows: Callable[[int, int], np.ndarray], n: int, h: int, b=None,
          cond: bool = False) -> tuple[np.ndarray | None, float, dict[str, float]]:
    """``(x, cond2, seconds)`` for A x = b, A the order-n matrix whose leading h rows ``rows(lo, hi)`` gives.

    Each block of :func:`halves` takes gesv on its share of b and, with
    ``cond``, values-only gesdd before the next is built.  ``seconds``
    holds the waits for the blocks (``fold``), gesv (``solve``) and gesdd
    (``cond``).  x is None without b; cond2 is NaN without ``cond``, +inf
    when the least singular value is 0.  A zero pivot raises
    SingularMatrixError, and a b of length other than n ValueError before
    ``rows`` is called.
    """
    v = None if b is None else _vector(b, n)
    k, clock = n // 2, time.perf_counter
    seconds, xs, smax, smin = {"fold": 0.0, "solve": 0.0, "cond": 0.0}, [], 0.0, math.inf
    t = clock()
    for H in halves(rows, n, h):
        seconds["fold"] += clock() - t
        if v is not None:
            t, w = clock(), v                           # the load of A, else of its even or odd half
            if h < n:
                top, bottom = v[:k], v[n - k:][::-1]
                w = (top - bottom) / _ROOT2 if xs else np.concatenate(((top + bottom) / _ROOT2, v[k:n - k]))
            try:
                xs.append(np.linalg.solve(H, w))
            except np.linalg.LinAlgError:
                raise SingularMatrixError(_SINGULAR) from None
            seconds["solve"] += clock() - t
        if cond:
            t = clock()
            s = np.linalg.svd(H, compute_uv=False)
            smax, smin = max(smax, s[0]), min(smin, s[-1])
            seconds["cond"] += clock() - t
        t = clock()
    if len(xs) == 2:                                    # x from the halves' solutions
        even, odd = xs
        xs = [np.concatenate(((even[:k] + odd) / _ROOT2, even[k:], ((even[:k] - odd) / _ROOT2)[::-1]))]
    c = math.nan if not cond else math.inf if smin == 0.0 else float(smax / smin)
    return (xs[0] if xs else None), c, seconds


def lu_factor(A) -> tuple[Callable[[int, int], np.ndarray], int, int]:
    """``(rows, n, h)`` of a square A for :func:`solve` and :func:`halves`: A's own rows, not copied.

    h = ceil(n/2) when A is exactly centrosymmetric, else n.  Only A's
    shape is checked here: :func:`halves` is the one pass over its entries
    that refuses a non-finite one (a NaN is never centrosymmetric, so it
    reaches the h = n check; an inf reaches every half it touches).  A is
    not written, and no factor is kept for reuse.
    """
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or len(M) < 1:
        raise ValueError(f"expected a square matrix of positive order, got shape {M.shape}")
    n = len(M)
    return (lambda lo, hi: M[lo:hi]), n, (n - n // 2 if np.array_equal(M, M[::-1, ::-1]) else n)


def lu_solve(fact, b) -> np.ndarray:
    """x with A x = b from ``fact = lu_factor(A)`` by :func:`solve`."""
    return solve(*fact, b)[0]


def cond2(A) -> float:
    """2-norm condition number sigma_max/sigma_min of a square matrix, over its halves if it is centrosymmetric."""
    return solve(*lu_factor(A), cond=True)[1]
