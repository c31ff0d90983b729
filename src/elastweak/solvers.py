"""Sparse direct solves and small dense spectral diagnostics.

Matrices are scipy CSR (sorted, duplicate-free column indices per row);
factorization uses SuperLU with partial pivoting.  Diagnostic singular-value
computations densify and are capped at DENSE_CAP unknowns.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CAP = 5000


class SingularSystemError(RuntimeError):
    """Raised when LU factorization hits a zero pivot."""


class SizeCapError(RuntimeError):
    """Raised when a dense diagnostic would exceed DENSE_CAP unknowns."""


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float      # ||A x - b||_2 / ||b||_2
    condition_estimate: float
    elapsed: float
    fill: int                 # entries SuperLU stores for L and U


def _as_csr(matrix):
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def _residual_extended(A, x, b):
    """b - A x evaluated in extended precision (noise-free for scaled systems)."""
    prod = A.data.astype(np.longdouble) * x.astype(np.longdouble)[A.indices]
    Ax = np.add.reduceat(prod, A.indptr[:-1])
    Ax[A.indptr[:-1] == A.indptr[1:]] = 0.0
    return b.astype(np.longdouble) - Ax


def lu_solve(matrix, rhs, want_condition=False):
    """Direct solve of a square sparse system; returns (x, SolveReport)."""
    A = _as_csr(matrix)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    b = np.asarray(rhs, dtype=float)
    t0 = time.perf_counter()
    # symmetric equilibration tames the λ-scaled entries; refinement sweeps on
    # the original system then push the residual near roundoff
    rowmax = np.asarray(abs(A).max(axis=1).todense()).ravel()
    rowmax[rowmax == 0.0] = 1.0
    d = 1.0 / np.sqrt(rowmax)
    D = sp.diags(d)
    As = (D @ A @ D).tocsc()
    try:
        factor = spla.splu(As)
        x = d * factor.solve(d * b)
    except RuntimeError as exc:
        raise SingularSystemError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("LU solve produced non-finite entries")
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0

    def true_res(v):
        r = _residual_extended(A, v, b)
        return r, float(np.sqrt(np.sum((r * r).astype(float)))) / scale

    r, res = true_res(x)
    for _ in range(4):
        if res <= 1e-13:
            break
        x_new = x + d * factor.solve(d * r.astype(float))
        r_new, res_new = true_res(x_new)
        if res_new >= res:
            break
        x, r, res = x_new, r_new, res_new
    elapsed = time.perf_counter() - t0
    cond = np.nan
    if want_condition:
        inv = spla.LinearOperator(
            (n, n),
            matvec=lambda v: d * factor.solve(d * np.ravel(v)),
            rmatvec=lambda v: d * factor.solve(d * np.ravel(v), trans="T"))
        cond = float(spla.onenormest(A) * spla.onenormest(inv))
    return x, SolveReport(residual_norm=float(res), condition_estimate=cond,
                          elapsed=elapsed,
                          fill=int(factor.nnz))


def smallest_generalized_singular_value(A, N):
    """min over u of max over v of (v . A u) / (|u|_N |v|_N).

    Equals the smallest singular value of L^-1 A L^-T where N = L L^T.
    N must be symmetric positive definite.
    """
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Nd = N.toarray() if sp.issparse(N) else np.asarray(N, dtype=float)
    n = Ad.shape[0]
    if Ad.shape != (n, n) or Nd.shape != (n, n):
        raise ValueError("A and N must be square and of equal size")
    if n > DENSE_CAP:
        raise SizeCapError(f"dense diagnostic limited to {DENSE_CAP} unknowns, "
                           f"got {n}")
    if not np.allclose(Nd, Nd.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(Nd).max())):
        raise ValueError("norm Gram matrix is not symmetric")
    try:
        L = sla.cholesky(Nd, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError("norm Gram matrix is not positive definite") from exc
    W = sla.solve_triangular(L, Ad, lower=True)
    M = sla.solve_triangular(L, W.T, lower=True).T
    return float(sla.svdvals(M)[-1])


def dump_matrix_coo(matrix, path):
    """Write a sparse matrix as 'row col value' lines, 17 significant digits."""
    A = _as_csr(matrix).tocoo()
    with open(path, "w") as fh:
        fh.write(f"% {A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for r, c, v in zip(A.row, A.col, A.data):
            fh.write(f"{r} {c} {v:.17g}\n")
