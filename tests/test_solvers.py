import numpy as np
import pytest
import scipy.sparse as sp

from elastweak.solvers import (SingularSystemError, lu_solve,
                               smallest_generalized_singular_value)


def test_identity_solve():
    b = np.array([3.0, -1.0, 2.0])
    x, report = lu_solve(sp.identity(3, format="csr"), b)
    assert np.allclose(x, b)
    assert report.residual_norm < 1e-15


def test_two_by_two_hand_solve():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x, report = lu_solve(A, np.array([3.0, 4.0]))
    assert x == pytest.approx([1.0, 1.0])
    assert report.residual_norm < 1e-14


def test_singular_matrix_reported():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError):
        lu_solve(A, np.array([1.0, 2.0]))


def test_nonsquare_rejected():
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_solve(A, np.ones(2))


def test_transpose_solve_identity():
    rng = np.random.default_rng(42)
    for trial in range(3):
        A = rng.standard_normal((50, 50)) + 5.0 * np.eye(50)
        b = rng.standard_normal(50)
        x, _ = lu_solve(sp.csr_matrix(A.T), b)
        ref = np.linalg.solve(A.T, b)
        assert np.abs(x - ref).max() < 1e-10


def test_residual_report_well_conditioned():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((80, 80)) + 10 * np.eye(80)
    b = rng.standard_normal(80)
    x, report = lu_solve(sp.csr_matrix(A), b)
    assert report.residual_norm <= 1e-9
    assert report.elapsed >= 0.0


def test_sgsv_identity():
    eye = np.eye(4)
    assert smallest_generalized_singular_value(eye, eye) == pytest.approx(1.0)


def test_sgsv_diagonal():
    A = np.diag([2.0, 0.5])
    assert smallest_generalized_singular_value(A, np.eye(2)) == pytest.approx(0.5)


def test_sgsv_matches_dense_oracle():
    rng = np.random.default_rng(123)
    for trial in range(5):
        B = rng.standard_normal((20, 20))
        N = B @ B.T + 20 * np.eye(20)
        A = rng.standard_normal((20, 20))
        got = smallest_generalized_singular_value(sp.csr_matrix(A),
                                                  sp.csr_matrix(N))
        # independent oracle through the explicit inverse square root
        w, Q = np.linalg.eigh(N)
        Nmh = Q @ np.diag(w ** -0.5) @ Q.T
        ref = np.linalg.svd(Nmh @ A @ Nmh, compute_uv=False).min()
        assert got == pytest.approx(ref, abs=1e-8)


def test_sgsv_singular_operator_gives_zero():
    A = np.diag([1.0, 0.0, 2.0])
    assert smallest_generalized_singular_value(A, np.eye(3)) == 0.0


def test_sgsv_rejects_indefinite_norm():
    A = np.eye(3)
    N = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        smallest_generalized_singular_value(A, N)


def test_sgsv_rejects_nonsymmetric_norm():
    A = np.eye(3)
    N = np.array([[2.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        smallest_generalized_singular_value(A, N)


def test_sgsv_beyond_former_dense_size():
    n = 5001
    A = sp.identity(n, format="csr")
    assert smallest_generalized_singular_value(A, A) == pytest.approx(
        1.0, rel=1e-12)


def test_report_fill_counts_factor_entries():
    # SuperLU stores a diagonal factor as a unit-diagonal L and a diagonal U
    _, report = lu_solve(sp.diags([2.0, 3.0, 4.0]).tocsr(), np.ones(3))
    assert report.fill == 6
    # a dense 2x2 matrix: as many as L.nnz + U.nnz (3 + 3)
    _, report = lu_solve(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])),
                         np.ones(2))
    assert report.fill == 6
