import numpy as np
import pytest

from ccrm.linalg import (
    SymEig,
    least_squares_min_norm,
    orthonormal_nullspace,
    sym_dim,
    sym_to_vec,
    symmetric_eigh,
    vec_to_sym,
)

from helpers import random_symmetric


def test_eigh_diagonal_is_sorted_permutation():
    eig = symmetric_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are signed coordinate axes
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eigh_identity():
    eig = symmetric_eigh(np.eye(4))
    assert np.allclose(eig.eigenvalues, 1.0)
    assert np.allclose(eig.eigenvectors @ eig.eigenvectors.T, np.eye(4))


def test_eigh_residual_oracle_random():
    rng = np.random.default_rng(3)
    S = random_symmetric(rng, 6)
    eig = symmetric_eigh(S)
    for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
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
        eig = symmetric_eigh(S)
        V, w = eig.eigenvectors, eig.eigenvalues
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


def test_vec_to_sym_rejects_bad_length():
    with pytest.raises(ValueError):
        vec_to_sym(np.ones(4))
