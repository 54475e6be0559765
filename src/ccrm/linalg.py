"""Minimal dense linear algebra used throughout the package.

The symmetric eigensolver is LAPACK's (``numpy.linalg.eigh``) behind the
package's input checks and ascending-order convention. Null spaces and
minimal-norm least squares are backed by numpy's SVD-based routines
behind the same tolerance conventions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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
    w, V = np.linalg.eigh(S)
    return w, V


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
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0
    return Vt[rank:].T.copy()


def least_squares_min_norm(A, b) -> np.ndarray:
    """Minimal-norm x with ||A x - b|| minimal."""
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    x, *_ = np.linalg.lstsq(A, b, rcond=RANK_RTOL)
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
