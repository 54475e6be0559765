import types

import numpy as np
import pytest

from ccrm import linalg
from ccrm.errors import ConvergenceError
from ccrm.linalg import (
    _eigh,
    least_squares_min_norm,
    orthonormal_nullspace,
    sym_dim,
    sym_to_vec,
    symmetric_eigh,
    vec_to_sym,
)
from ccrm.sets import SpectralSet

from helpers import random_orthogonal, random_symmetric


def test_eigh_diagonal_is_sorted_permutation():
    w, V = symmetric_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    # eigenvectors are signed coordinate axes
    assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])


def test_eigh_identity():
    w, V = symmetric_eigh(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(V @ V.T, np.eye(4))


def test_eigh_residual_oracle_random():
    rng = np.random.default_rng(3)
    S = random_symmetric(rng, 6)
    w, V = symmetric_eigh(S)
    for lam, v in zip(w, V.T):
        assert np.linalg.norm(S @ v - lam * v) <= 1e-10


def test_eigh_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        symmetric_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        symmetric_eigh(np.ones((2, 3)))


def test_eigh_invariants_bulk():
    # reconstruction and orthogonality over many random sizes
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        S = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        w, V = symmetric_eigh(S)
        assert np.all(np.diff(w) >= 0.0)
        nrm = np.linalg.norm(S)
        assert np.linalg.norm(S - (V * w) @ V.T) <= 1e-10 * (1.0 + nrm)
        assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10


def test_nullspace_single_row():
    B = orthonormal_nullspace(np.array([[1.0, 0.0, 0.0]]))
    assert B.shape == (3, 2)
    assert np.allclose(B[0], 0.0)


def test_nullspace_full_rank_square_is_empty():
    B = orthonormal_nullspace(np.eye(3))
    assert B.shape == (3, 0)


def test_nullspace_residual_oracle():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(2, 5))
    B = orthonormal_nullspace(A)
    assert B.shape == (5, 3)
    assert np.max(np.abs(A @ B)) <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(B.T @ B - np.eye(3)) <= 1e-10


def test_nullspace_rank_deficient_reports_wider_basis():
    A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert orthonormal_nullspace(A).shape == (3, 2)


def test_lstsq_identity():
    x = least_squares_min_norm(np.eye(2), [1.0, 2.0])
    assert np.allclose(x, [1.0, 2.0])


def test_lstsq_min_norm_on_solution_line():
    x = least_squares_min_norm(np.array([[1.0, 1.0]]), [2.0])
    assert np.allclose(x, [1.0, 1.0])


def test_lstsq_normal_equation_oracle():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    x = least_squares_min_norm(A, b)
    assert np.linalg.norm(A.T @ (A @ x - b)) <= 1e-10
    # minimal norm: x orthogonal to null(A)
    N = orthonormal_nullspace(A)
    assert np.max(np.abs(N.T @ x)) <= 1e-10


def test_lstsq_shape_mismatch():
    with pytest.raises(ValueError):
        least_squares_min_norm(np.eye(2), [1.0, 2.0, 3.0])


def test_sym_vec_round_trip_and_isometry():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5):
        S = random_symmetric(rng, n)
        v = sym_to_vec(S)
        assert v.shape == (sym_dim(n),)
        assert np.allclose(vec_to_sym(v), S)
        assert np.isclose(np.linalg.norm(v), np.linalg.norm(S))
        T = random_symmetric(rng, n)
        assert np.isclose(v @ sym_to_vec(T), np.sum(S * T))


def _sym_to_vec_reference(S):
    iu = np.triu_indices(S.shape[0])
    v = S[iu].copy()
    v[iu[0] != iu[1]] *= np.sqrt(2.0)
    return v


def _vec_to_sym_reference(v):
    n = int((np.sqrt(8.0 * v.shape[0] + 1.0) - 1.0) / 2.0 + 0.5)
    S = np.zeros((n, n))
    iu = np.triu_indices(n)
    vals = v.copy()
    vals[iu[0] != iu[1]] /= np.sqrt(2.0)
    S[iu] = vals
    return S + S.T - np.diag(np.diag(S))


def test_sym_vec_round_trip_is_bitwise_the_triu_reference():
    # the cached-layout gather and scatter do the reference's arithmetic
    rng = np.random.default_rng(19)
    for n in range(1, 7):
        S = random_symmetric(rng, n)
        v = sym_to_vec(S)
        assert np.array_equal(v, _sym_to_vec_reference(S))
        back = vec_to_sym(v)
        assert np.array_equal(back, _vec_to_sym_reference(v))
        assert np.array_equal(back, back.T)
        assert np.array_equal(sym_to_vec(back), _sym_to_vec_reference(back))
        assert np.allclose(back, S, rtol=1e-15, atol=0.0)


def test_eigh_exact_symmetry_decomposes_s_unchanged():
    S = random_symmetric(np.random.default_rng(23), 5)
    w, V = symmetric_eigh(S)
    w0, V0 = np.linalg.eigh(S)
    assert np.array_equal(w, w0) and np.array_equal(V, V0)


def test_eigh_symmetrizes_a_1e13_asymmetry():
    S = random_symmetric(np.random.default_rng(29), 5)
    S[0, 1] += 1e-13
    w, V = symmetric_eigh(S)
    w0, V0 = np.linalg.eigh(0.5 * (S + S.T))
    assert np.array_equal(w, w0) and np.array_equal(V, V0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(1, 7))
def test_eigh_kernel_is_numpys_bit_for_bit(n):
    # LAPACK's gufunc called directly returns what np.linalg.eigh returns,
    # on general spectra, repeated eigenvalues and both ends of the range.
    rng = np.random.default_rng(100 + n)
    Q = random_orthogonal(rng, n)
    repeated = (Q * np.repeat(rng.normal(size=n), 2)[:n]) @ Q.T  # eigenvalues in pairs
    cases = [random_symmetric(rng, n), 0.5 * (repeated + repeated.T), np.eye(n), np.diag(np.arange(n) // 2)]
    for S in cases:
        for scale in (1e-150, 1.0, 1e150):
            w, V = _eigh(S * scale)
            w0, V0 = np.linalg.eigh(S * scale)
            assert np.array_equal(w, w0) and np.array_equal(V, V0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_eigensolve_raises_convergence_error(bad, monkeypatch):
    # numpy's wrapper raised LinAlgError; the kernel's failure is the package's own error.
    def failing(S):
        w = np.zeros(len(S))
        w[-1] = bad
        return w, np.full(S.shape, bad)

    monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(eigh_lo=failing))
    with pytest.raises(ConvergenceError, match="did not converge"):
        SpectralSet(3, lo=0.0).project(np.ones(6))


def _rank_cases(rng):
    """Matrices of every rank from 0 to full, in wide, square and tall shapes."""
    for m, n in ((1, 3), (2, 5), (3, 3), (4, 2), (6, 4)):
        for rank in range(min(m, n) + 1):
            yield rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))


@pytest.mark.filterwarnings("error")
def test_svd_and_lstsq_kernels_are_numpys_bit_for_bit():
    # LAPACK's gufuncs called directly return what np.linalg.svd and
    # np.linalg.lstsq return, at ranks 0 to full and at both ends of the range.
    rng = np.random.default_rng(7)
    for A0 in _rank_cases(rng):
        b0 = rng.normal(size=A0.shape[0])
        for scale in (1e-150, 1.0, 1e150):
            A, b = A0 * scale, b0 * scale
            _, s, Vt = np.linalg.svd(A)
            rank = int(np.sum(s > linalg.RANK_RTOL * s[0])) if s[0] > 0 else 0
            assert orthonormal_nullspace(A).tobytes() == Vt[rank:].T.tobytes()
            x = np.linalg.lstsq(A, b, rcond=linalg.RANK_RTOL)[0]
            assert least_squares_min_norm(A, b).tobytes() == x.tobytes()
    assert least_squares_min_norm(np.zeros((0, 3)), np.zeros(0)).tobytes() == np.zeros(3).tobytes()


@pytest.mark.parametrize("kernel", ["svd_f", "lstsq"])
def test_a_non_finite_svd_or_lstsq_raises_convergence_error(kernel, monkeypatch):
    # numpy's wrappers raised LinAlgError on LAPACK's failure, whose results are all nan.
    def failing(A, *rest):
        m, n = A.shape
        if kernel == "svd_f":
            return np.full((m, m), np.nan), np.full(min(m, n), np.nan), np.full((n, n), np.nan)
        return np.full((n, 1), np.nan), np.full(1, np.nan), 0, np.full(min(m, n), np.nan)

    monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(**{kernel: failing}))
    call = orthonormal_nullspace if kernel == "svd_f" else (lambda A: least_squares_min_norm(A, np.ones(1)))
    with pytest.raises(ConvergenceError, match="did not converge"):
        call(np.array([[1.0, 2.0, 3.0]]))


def test_eigh_rejects_a_1e10_asymmetry():
    S = random_symmetric(np.random.default_rng(31), 5)
    S[0, 1] += 1e-10
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigh(S)


def test_vec_to_sym_rejects_bad_length():
    with pytest.raises(ValueError):
        vec_to_sym(np.ones(4))
