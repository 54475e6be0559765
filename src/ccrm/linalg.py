"""Minimal dense linear algebra used throughout the package.

Eigensolves, null spaces and minimal-norm least squares call the LAPACK
gufuncs of ``numpy.linalg.eigh``, ``svd`` and ``lstsq`` without those
wrappers' per-call checks: numpy's results bit for bit, and LAPACK's
failure (a non-finite result of finite input) raises ``ConvergenceError``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError

# Singular values / pivots below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-10

# Machine epsilon of float64.
EPS = float(np.finfo(float).eps)


def _as_matrix(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def _eigh(S):
    """``np.linalg.eigh(S)`` of a finite symmetric float64 matrix, bit for bit, by its LAPACK
    gufunc without numpy's per-call wrapper; LAPACK's failure (all nan) raises ``ConvergenceError``."""
    w, V = _umath_linalg.eigh_lo(S)
    if w.size and not (math.isfinite(w[0]) and math.isfinite(w[-1])):
        raise ConvergenceError("symmetric eigensolver did not converge")
    return w, V


def symmetric_eigh(S):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd`` via numpy).

    Args:
        S: square symmetric matrix (symmetric to 1e-12 relative); its
            symmetric part is decomposed.

    Returns:
        (w, V) with S = V diag(w) V^T: ascending eigenvalues w and
        orthonormal eigenvector columns V.
    """
    S = _as_matrix(S)
    n, m = S.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {S.shape}")
    # An exactly symmetric S is its own symmetric part, bit for bit.
    if not (S == S.T).all():
        if np.linalg.norm(S - S.T) > 1e-12 * (1.0 + np.linalg.norm(S)):
            raise ValueError("matrix is not symmetric to 1e-12 relative")
        S = 0.5 * (S + S.T)
    return _eigh(S)


def orthonormal_nullspace(A) -> np.ndarray:
    """Orthonormal basis of null(A), as columns of an (n, n - rank) array.

    For an empty constraint set (zero rows) the basis is the identity.
    Rank deficiency is not an error: the basis is returned for the
    detected rank and the caller decides what to do with the width.
    """
    A = _as_matrix(A)
    m, n = A.shape
    if m == 0 or A.size == 0:
        return np.eye(n)
    _, s, Vt = _umath_linalg.svd_f(A)  # np.linalg.svd(A)'s gufunc
    if not math.isfinite(s[0]):
        raise ConvergenceError("SVD did not converge")
    rank = int((s > RANK_RTOL * s[0]).sum()) if s[0] > 0 else 0
    return Vt[rank:].T.copy()


def least_squares_min_norm(A, b) -> np.ndarray:
    """Minimal-norm x with ||A x - b|| minimal."""
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    if not A.shape[0]:
        return np.zeros(A.shape[1])  # LAPACK leaves x unset; numpy zeroes it
    x = _umath_linalg.lstsq(A, b[:, None], RANK_RTOL)[0][:, 0]  # np.linalg.lstsq's gufunc
    if not np.isfinite(x).all():
        raise ConvergenceError("least squares did not converge")
    return x


@functools.lru_cache(maxsize=None)
def _sym_layout(n: int):
    """(gather, upper, scale) of the flattened layout of order n: the upper
    triangle in row-major order, scaled by 1 on the diagonal and sqrt(2)
    off it. ``v.take(gather)`` is the (n, n) symmetric matrix of the
    entries of v, and ``S.take(upper)`` the flattened upper triangle of S,
    each one gather. Read-only, as the arrays are shared between calls."""
    rows, cols = np.triu_indices(n)
    gather = np.empty((n, n), dtype=np.intp)
    gather[rows, cols] = gather[cols, rows] = np.arange(rows.shape[0])
    upper, scale = rows * n + cols, np.where(rows == cols, 1.0, np.sqrt(2.0))
    for a in (gather, upper, scale):
        a.setflags(write=False)
    return gather, upper, scale


def sym_to_vec(S) -> np.ndarray:
    """Isometric flattening of a symmetric matrix.

    Off-diagonal entries are scaled by sqrt(2) so the Euclidean norm of
    the vector equals the Frobenius norm of the matrix. Layout is the
    upper triangle in row-major order.
    """
    S = _as_matrix(S)
    n, m = S.shape
    if n != m:
        raise ValueError("matrix must be square")
    _, upper, scale = _sym_layout(n)
    return S.take(upper) * scale


def vec_to_sym(v) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d array")
    m = v.shape[0]
    n = (math.isqrt(8 * m + 1) - 1) // 2
    if n * (n + 1) // 2 != m:
        raise ValueError(f"length {m} is not a triangular number")
    gather, _, scale = _sym_layout(n)
    return (v / scale).take(gather)


def sym_dim(n: int) -> int:
    """Length of the flattened representation of an n-by-n symmetric matrix."""
    return n * (n + 1) // 2
