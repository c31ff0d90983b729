"""Sparse direct solves and sparse spectral diagnostics.

Matrices are scipy CSR (sorted, duplicate-free column indices per row).
Every sparse LU is made by ``_factor``: SuperLU in symmetric mode, which
orders rows and columns alike and pivots by threshold, keeping a diagonal
pivot unless it falls below ``PIVOT_THRESHOLD`` times the largest entry of
its column.  The systems are nonsymmetric but their sparsity is symmetric,
which a symmetric ordering exploits.  Every SuperLU call of the package is
in this module, the elimination order's included.  A finite-element system
names the mesh point of each unknown (``lu_solve``'s ``points``), and is
factored in its point order (``_point_blocked_order``): minimum degree on
the matrix pattern compressed by point, each point's two or three
unknowns numbered together.  On a weak or mixed system the compressed
pattern is the graph of the mesh points that share a cell.  On the square
that order stores 15-17% fewer entries than SuperLU's minimum degree on
the pattern of A^T + A (P1 n=128 weak 4.24M against 5.10M, the P1 n=96
pinned mixed core 4.78M against 5.75M), the P2 n=32 Cook mixed factor
2.54M against 3.01M, but the P1 n=128 Cook mixed factor 9.55M against
9.09M (+5%).  Part of the square's saving comes from the builders'
row-major vertex numbering: under three random relabelings of the
vertices the point order stores 2-5% fewer entries there, and on the P1
n=128 Cook mixed system from 1.7% fewer to 4.6% more.  On a strong system
the eliminated Dirichlet unknowns are decoupled, and the factors store
4.15M entries on the P1 n=128 square and 0.83M on the P2 n=32 Cook
membrane.  Without points, as in the diagnostics, SuperLU orders the
pattern of A^T + A by minimum degree.

``lu_solve`` factors the equilibrated D A D without its cancellation
residues: entries that are zero in exact arithmetic but stored at ~1e-17
where assembled terms cancel (the weak operator K + (B^T - B), the mixed
blocks).  After scaling the largest residue on the benchmark's 22 solved
systems is 8.1e-16 and the smallest genuine entry 3.5e-10; ordering and
filling the residues as structural nonzeros cost the P1 n=128 Cook membrane
mixed factor 10.43M entries instead of 9.09M in SuperLU's order.  It
factors that copy in float32 first, which stores the factor's values in
half the bytes at the same fill, and refines the solution in float64 with
residuals of the assembled A formed in long double, so the solution is that
of the assembled system and the factor of the perturbed, rounded copy only
serves as an approximate inverse (Skeel, Math. Comp. 35, 1980;
three-precision refinement: Carson & Higham, SIAM J. Sci. Comput. 40,
2018).  Refinement stops on the size of the correction, for either factor:
once it is at most the float64 epsilon times ||x||_inf, or no smaller than
the last one applied (Demmel, Hida, Kahan, Li, Mukherjee & Riedy, ACM TOMS
32, 2006).  The solution is accepted when its normwise backward error is at
most ``BACKWARD_ERROR_LIMIT``, the test of LAPACK's DSGESV; otherwise the
copy is factored again in float64 and refined the same way.
The generalized singular value diagnostic is an ARPACK shift-invert
eigensolve that reuses one sparse LU of the operator, so it never densifies.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# ARPACK residual tolerance of the diagnostics' eigensolves.  On the P1
# n=32 unit square the incompressible inf-sup constant matches the dense
# value to <=1.8e-15 relative for tol 1e-8 to 1e-12 and is off by 1.2e-11
# at 1e-6 and 7e-8 at 1e-4; 1e-10 keeps two decades of margin for ~20% more
# iterations than 1e-8.
EIG_TOL = 1e-10

# Diagonal pivot threshold of every sparse LU (SuperLU's diag_pivot_thresh):
# a diagonal pivot is kept while its magnitude is at least this fraction of
# the largest in its column, so the fill-reducing order survives pivoting.
# On the P2 Cook membrane mixed system at n=32 (nu=0.4999) the float32
# factor of the equilibrated copy holds 6.10M entries at 0.1 but 2.54M at
# 0.01, 2.27M at 0.001 and 2.04M at 0 in its point order (6.92M, 3.01M,
# 2.42M and 2.27M in SuperLU's minimum-degree order); 0.01 keeps most of
# that fill saving with a margin against small pivots; lu_solve's
# refinement repairs the accuracy that a small pivot costs.
PIVOT_THRESHOLD = 0.01

# Largest ratio of the largest to the smallest diagonal entry of a norm Gram
# that smallest_generalized_singular_value accepts.  With A = I and
# N = diag(10^-e, 1, 10^e) the eigensolve gives the right 10^-e up to e = 102
# (a ratio of 1e204) and NaN from e = 103; at e = 140 ARPACK fails.  A
# ratio beyond this limit raises ValueError instead.
DIAGONAL_SPREAD_LIMIT = 1e200

# Entries of the equilibrated matrix D A D at most this large in magnitude
# are dropped from the copy that is factored; the refinement residuals keep
# the assembled A.  On the 22 systems the benchmark solves, the dropped
# entries (338,127 of them) are at most 8.1e-16 and the kept ones at least
# 3.5e-10: 1e-12 lies three decades above the one and 2.5 below the
# other.  The float64 copy differs from D A D by at most this much per entry,
# so it can be singular only when D A D lies that close to a singular
# matrix; the float32 copy differs by its rounding too, and lu_solve falls
# back to the float64 copy when the float32 one is singular.
CANCELLATION_TOL = 1e-12

# Largest number of refinement corrections lu_solve applies to a solution;
# refinement stops earlier once a correction falls to the float64 epsilon
# of x or stops shrinking.
REFINEMENT_STEPS = 4

# Largest normwise backward error ||A x - b||_inf / (||A||_inf ||x||_inf +
# ||b||_inf) at which lu_solve accepts a solution refined from a float32
# factor, as LAPACK's DSGESV does; above it the system is factored in
# float64.  The limit is the float64 machine epsilon, 2.2e-16.  In either
# order the 22 systems the benchmark solves reach at most 4.6e-17 from
# float32 factors (2 to 4 refinement steps).  Those that fall back reach
# at least 1.7e-15: the Cook membrane compressible P1 system at nu=0.4999
# and n=16 (2.6e-14, whose relative residual is then 2.0e-7), the
# lambda=1e5 P2 n=8 weak square system (1.7e-15) and Hilbert(6)
# (2.8e-12).  The n=8 Cook system, which fell back at 2.8e-16 in SuperLU's
# order, reaches 1.7e-17 in its point order.
BACKWARD_ERROR_LIMIT = float(np.finfo(float).eps)


class SingularSystemError(RuntimeError):
    """Raised when LU factorization hits a zero pivot."""


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float      # ||A x - b||_2 / ||b||_2
    elapsed: float
    fill: int                 # entries SuperLU stores for L and U
    factor_s: float           # seconds in sparse LU factorizations, both
                              # of them on a fallback to float64
    refinements: int          # refinement steps applied to the solution
    precision: str            # "single" or "double": the accepted factor's
    backward_error: float     # ||A x - b||_inf / (||A|| ||x|| + ||b||)_inf


def _as_csr(matrix):
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def _residual_extended(A, x, b):
    """b - A x in long double, by one CSR product; A may already hold long
    double entries, which a caller that forms many residuals converts once."""
    A = A.astype(np.longdouble, copy=False)
    return b.astype(np.longdouble) - A @ x.astype(np.longdouble)


def _norm_ratio(r, b):
    """||r||_2 / ||b||_2, or ||r||_2 when b = 0, without overflow or
    underflow: each vector is divided by its largest magnitude, in long
    double, before it is squared."""
    def scaled_norm(v):
        v = np.abs(np.asarray(v, dtype=np.longdouble))
        top = v.max(initial=0.0)
        if top == 0.0 or not np.isfinite(top):
            return top
        return top * np.sqrt(np.sum((v / top) ** 2))

    bnorm = scaled_norm(b)
    return float(scaled_norm(r) / (bnorm if bnorm > 0.0 else 1.0))


def _factor(A, pivot_threshold=PIVOT_THRESHOLD, permc_spec="MMD_AT_PLUS_A"):
    """SuperLU factorization of the square sparse A in symmetric mode, with
    threshold pivoting, in the order permc_spec: by default minimum degree
    on the pattern of A^T + A (Liu, ACM TOMS 1985), "NATURAL" for a matrix
    already permuted into its elimination order.  RuntimeError on an
    exactly singular A.  The ordering depends on the pattern alone, so
    repeated factorizations are identical."""
    return spla.splu(A.tocsc(), permc_spec=permc_spec,
                     diag_pivot_thresh=pivot_threshold,
                     options={"SymmetricMode": True})


def _equilibrate(A, order=slice(None)):
    """(S^T A S as CSC, d) with S = D P: D = diag(d), d_i = 1/sqrt(max_j
    |A_ij|), and P the permutation whose column k is unit vector order[k]
    (the identity for the default slice), with the entries at most
    CANCELLATION_TOL in magnitude dropped.  S^T A S is formed by the two
    sparse products of D A D, each entry the same rounded products, so it is
    D A D permuted bit for bit, and no permuted copy of A is made."""
    rowmax = np.asarray(abs(A).max(axis=1).todense()).ravel()
    rowmax[rowmax == 0.0] = 1.0
    d = 1.0 / np.sqrt(rowmax)
    if isinstance(order, slice):
        S = sp.diags(d)
    else:
        n = len(d)
        S = sp.csr_matrix((d[order], (order, np.arange(n))), shape=(n, n))
    As = (S.T @ A @ S).tocsc()
    As.data[np.abs(As.data) <= CANCELLATION_TOL] = 0.0
    As.eliminate_zeros()
    return As, d


def _correction(factor, d, order, v, dtype):
    """S (LU)^-1 S^T v as float64, S = D P as in _equilibrate, for the LU
    of the equilibrated copy in dtype.  For a float64 factor v is rounded to
    float64 first.  For a float32 factor S^T v is formed in long double and
    scaled by the power of two that brings its largest magnitude into
    [0.5, 1) before its cast to float32, and the solution is scaled back in
    long double, so that no cast overflows and no tiny residual underflows
    in float64."""
    s = d[order]
    if dtype == np.float64:
        y = s * factor.solve(s * v[order].astype(float))
    else:
        w = s * v[order].astype(np.longdouble)
        _, exponent = np.frexp(np.abs(w).max(initial=0.0))
        y = factor.solve(np.ldexp(w, -exponent).astype(dtype))
        y = (s * np.ldexp(y.astype(np.longdouble), exponent)).astype(float)
    x = np.empty_like(y)
    x[order] = y
    return x


def _inf_norm(A):
    """max_i sum_j |A_ij| as a long double, without overflow: the rows are
    summed in float64 after the entries are scaled by the power of two that
    brings the largest into [0.5, 1)."""
    absA = abs(A)
    _, exponent = np.frexp(absA.max())
    np.ldexp(absA.data, -exponent, out=absA.data)
    return np.ldexp(np.longdouble(absA.sum(axis=1).max()), exponent)


def _backward_error(anorm, x, b, r):
    """||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) in long double, for the
    residual r = b - A x and anorm = ||A||_inf; 0 for r = 0."""
    rnorm = np.abs(r).max(initial=0.0)
    if rnorm == 0.0:
        return 0.0
    xnorm = np.abs(x.astype(np.longdouble)).max(initial=0.0)
    bnorm = np.abs(b.astype(np.longdouble)).max(initial=0.0)
    return float(rnorm / (anorm * xnorm + bnorm))


def _refined_solve(A, b, order, dtype, factor_times):
    """Solve A x = b with an LU of the equilibrated copy of A in the
    elimination order `order` (a slice: SuperLU's own) cast to dtype,
    refined against A with long-double residuals; returns (x, relative
    residual, backward error, fill, refinements).  Each step's correction
    dx is not applied when ||dx||_inf <= eps ||x||_inf (x is correct to
    working precision), when it is not below the last one applied
    (refinement has stalled) or when it does not reduce the residual; at
    most REFINEMENT_STEPS are applied.  Each factorization's seconds are
    appended to factor_times.  A singular factor or a non-finite solution
    raises SingularSystemError."""
    # symmetric equilibration tames the λ-scaled entries.  Only A, the copy
    # in dtype and the factor are alive while it is factored.
    anorm = _inf_norm(A)
    As, d = _equilibrate(A, order)
    As = As.astype(dtype, copy=False)
    t_factor = time.perf_counter()
    try:
        factor = _factor(As, permc_spec="MMD_AT_PLUS_A"
                         if isinstance(order, slice) else "NATURAL")
    except RuntimeError as exc:
        raise SingularSystemError(f"LU factorization failed: {exc}") from exc
    finally:
        factor_times.append(time.perf_counter() - t_factor)
    del As

    x = _correction(factor, d, order, b, dtype)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("LU solve produced non-finite entries")
    A_ext = A.astype(np.longdouble)

    def true_res(v):
        r = _residual_extended(A_ext, v, b)
        return r, _norm_ratio(r, b)

    r, res = true_res(x)
    refinements, last = 0, np.inf
    while refinements < REFINEMENT_STEPS:
        # a residual beyond the double range gives no correction: rejected
        # like a step that does not reduce the residual
        if not np.all(np.abs(r) <= np.finfo(float).max):
            break
        dx = _correction(factor, d, order, r, dtype)
        size = np.abs(dx).max(initial=0.0)
        if (size <= np.finfo(float).eps * np.abs(x).max(initial=0.0)
                or not size < last):
            break
        x_new = x + dx
        r_new, res_new = true_res(x_new)
        if not res_new < res:
            break
        x, r, res, last = x_new, r_new, res_new, size
        refinements += 1
    return (x, res, _backward_error(anorm, x, b, r), int(factor.nnz),
            refinements)


def _point_blocked_order(A, points):
    """Elimination order of the unknowns of A, or ValueError unless points
    holds one integer in [0, n) per unknown.

    The points are ordered by minimum degree (Liu, ACM TOMS 1985) on the
    pattern of A compressed by point, P^T pattern(A) P with P_ip = 1 when
    unknown i lies at point p, and each point's unknowns are numbered
    together in index order (a compressed graph: Ashcraft, SIAM J. Sci.
    Comput. 1995).  Each diagonal entry of the compressed graph is raised
    by its row sum plus one, so that an incomplete LU that drops every
    entry keeps each diagonal pivot, even at a point without unknowns; that
    LU's column order is splu's and costs a fraction of a full
    factorization.  perm_c[p] is the step at which point p is eliminated.
    The graph is formed in float32, whose small counts are exact, to keep
    it lean beside A."""
    n = A.shape[0]
    points = np.asarray(points)
    if (points.shape != (n,) or not np.issubdtype(points.dtype, np.integer)
            or not np.all((points >= 0) & (points < n))):
        raise ValueError(f"points must hold one integer in [0, {n}) per "
                         f"unknown")
    P = sp.csr_matrix((np.ones(n, np.float32), points, np.arange(n + 1)),
                      shape=(n, int(points.max(initial=-1)) + 1))
    pattern = sp.csr_matrix((np.ones(A.nnz, np.float32), A.indices,
                             A.indptr), shape=A.shape)
    graph = (P.T @ pattern @ P).tocsc()
    graph += sp.diags(np.asarray(graph.sum(axis=1)).ravel() + 1.0)
    perm_c = spla.spilu(graph, drop_tol=np.inf, fill_factor=1,
                        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}).perm_c
    return np.argsort(perm_c[points], kind="stable")


def lu_solve(matrix, rhs, points=None):
    """Direct solve of a square sparse system; returns (x, SolveReport).

    points, the mesh point of each unknown, makes the elimination order
    point-blocked (``_point_blocked_order``): the equilibrated copy is
    factored in that order, and x, the residuals and the report stay in the
    system's own numbering.  Without it SuperLU orders the copy by minimum
    degree on the pattern of A^T + A.  Either factor's solution is refined
    until its correction is negligible or stalls (``_refined_solve``).  The
    solution refined from a float32 factor is accepted when its backward
    error is at most BACKWARD_ERROR_LIMIT.  Otherwise (a singular float32
    factor, a non-finite solution or a larger backward error) that factor is
    freed and the system is solved again from a float64 factor, which gives
    the solution bit for bit that a float64-only solve gives."""
    A = _as_csr(matrix)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs of shape {b.shape} for a matrix of size {n}")
    t0 = time.perf_counter()
    order = (slice(None) if points is None
             else _point_blocked_order(A, points))
    factor_times = []
    try:
        # the float32 attempt's overflows and underflows are either harmless
        # or lead to its rejection, not worth a warning or an error
        with np.errstate(all="ignore"):
            solved = _refined_solve(A, b, order, np.float32, factor_times)
    except SingularSystemError:
        solved = None
    precision = "single"
    if solved is None or not solved[2] <= BACKWARD_ERROR_LIMIT:
        # the float32 factor was freed when its attempt returned or raised
        solved = _refined_solve(A, b, order, np.float64, factor_times)
        precision = "double"
    x, res, backward_error, fill, refinements = solved
    return x, SolveReport(residual_norm=float(res),
                          elapsed=time.perf_counter() - t0,
                          fill=fill, factor_s=sum(factor_times),
                          refinements=refinements, precision=precision,
                          backward_error=backward_error)


def _smallest_eigenvalue(A, M, OPinv=None):
    """Smallest eigenvalue of the symmetric pencil (A, M), M positive
    definite, by ARPACK shift-invert about 0.  OPinv applies A^-1; without
    it A is factored by ``_factor``.  The start vector is fixed so that
    repeated runs give identical digits; ARPACK failures raise ValueError."""
    if OPinv is None:
        factor = _factor(A)
        OPinv = spla.LinearOperator(A.shape, matvec=factor.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        return float(spla.eigsh(A, k=1, M=M, sigma=0.0, OPinv=OPinv, v0=v0,
                                tol=EIG_TOL, return_eigenvectors=False)[0])
    except spla.ArpackError as exc:
        raise ValueError(f"eigensolver failed: {exc}") from exc


def _positive_definite_factor(N):
    """Sparse LU of a symmetric N with symmetric pivoting only, or ValueError
    when N is not positive definite.

    Without row interchanges the LU is an L D L^T factorization, and by
    Sylvester's law of inertia N is positive definite exactly when the
    pivots diag(U) are all positive."""
    try:
        factor = _factor(N, pivot_threshold=0.0)
    except RuntimeError as exc:
        raise ValueError("norm Gram matrix is not positive definite") from exc
    if (not np.array_equal(factor.perm_r, factor.perm_c)
            or not np.all(factor.U.diagonal() > 0.0)):
        raise ValueError("norm Gram matrix is not positive definite")
    return factor


def smallest_generalized_singular_value(A, N):
    """min over u of max over v of (v . A u) / (|u|_N |v|_N).

    Equals the smallest singular value of L^-1 A L^-T where N = L L^T, and
    the square root of the smallest eigenvalue of A^T N^-1 A against N.
    That eigenvalue comes from shift-invert about 0, whose operator
    (A^T N^-1 A)^-1 = A^-1 N A^-T reuses one sparse LU of A.
    N must be symmetric positive definite.  An exactly singular A gives 0.
    """
    A, N = _as_csr(A), _as_csr(N)
    n = A.shape[0]
    if A.shape != (n, n) or N.shape != (n, n):
        raise ValueError("A and N must be square and of equal size")
    scale = max(1.0, abs(N).max())
    if abs(N - N.T).max() > 1e-10 * scale:
        raise ValueError("norm Gram matrix is not symmetric")
    nfactor = _positive_definite_factor(N)
    # on a Gram whose largest/smallest diagonal ratio overflows, ARPACK
    # fails inside LAPACK's DLASCL, which prints to stdout first: at
    # mu = 1e-300 the incompressible Gram's diagonal spans 1.5e-300 to
    # 5e299, where at mu = 1 the ratio is 32; a smaller spread beyond
    # DIAGONAL_SPREAD_LIMIT gives NaN
    diagonal = N.diagonal()
    with np.errstate(over="ignore", divide="ignore"):
        spread = diagonal.max() / diagonal.min()
    if not np.isfinite(spread):
        raise ValueError("norm Gram matrix diagonal spans beyond the double "
                         "range")
    if spread > DIAGONAL_SPREAD_LIMIT:
        raise ValueError(f"norm Gram matrix diagonal spans a ratio beyond "
                         f"{DIAGONAL_SPREAD_LIMIT:g}")
    try:
        afactor = _factor(A)
    except RuntimeError:
        return 0.0
    # shift-invert applies only the inverse and N; the pencil's own operator
    # A^T N^-1 A is given for its shape
    gram = spla.LinearOperator(
        (n, n), matvec=lambda v: A.T @ nfactor.solve(A @ v), dtype=float)
    inverse = spla.LinearOperator(
        (n, n), matvec=lambda v: afactor.solve(N @ afactor.solve(v, trans="T")),
        dtype=float)
    value = _smallest_eigenvalue(gram, N, inverse)
    if not np.isfinite(value):
        raise ValueError("eigensolver returned a non-finite eigenvalue")
    return float(np.sqrt(max(value, 0.0)))

