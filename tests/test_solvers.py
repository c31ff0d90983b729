import ast
import pathlib
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import elastweak
from elastweak import experiments
from elastweak.compressible import (MaterialParams, assemble_strong_system,
                                    assemble_weak_system)
from elastweak.experiments import (_pinned_mean_solve,
                                   manufactured_compressible,
                                   manufactured_incompressible)
from elastweak.incompressible import (assemble_incompressible_system,
                                      pressure_integral_vector)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak import solvers
from elastweak.solvers import (BACKWARD_ERROR_LIMIT, CANCELLATION_TOL,
                               REFINEMENT_STEPS,
                               SingularSystemError,
                               _equilibrate, lu_solve,
                               smallest_generalized_singular_value)
from elastweak.spaces import AnalyticField, FESpace
from oracles import point_blocked_order


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


def test_sgsv_rejects_norm_whose_diagonal_spread_overflows():
    A = np.eye(3)
    N = np.diag([1e-300, 1.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spans beyond the double range"):
            smallest_generalized_singular_value(A, N)
    # ratios that are doubles but gave NaN (e = 120) or made ARPACK fail
    # (e = 140, 150, 154)
    for e in (120, 140, 150, 154):
        N = np.diag([10.0 ** -e, 1.0, 10.0 ** e])
        with pytest.raises(ValueError, match=r"spans a ratio beyond 1e\+200"):
            smallest_generalized_singular_value(A, N)
    # a wide spread within the limit is still solved: with A = I the value
    # is the smallest singular value of N^-1
    for e in (50, 100):
        N = np.diag([10.0 ** -e, 1.0, 10.0 ** e])
        assert smallest_generalized_singular_value(A, N) == pytest.approx(
            10.0 ** -e, rel=1e-9)


def test_arpack_failure_becomes_value_error(monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", fail)
    with pytest.raises(ValueError, match="^eigensolver failed: ARPACK error"):
        smallest_generalized_singular_value(np.eye(3), np.eye(3))


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


def test_report_times_factor_and_counts_no_refinement():
    _, report = lu_solve(sp.identity(5, format="csr"), np.arange(1.0, 6.0))
    assert report.refinements == 0
    assert 0.0 <= report.factor_s <= report.elapsed


def test_report_counts_refinement_steps():
    # the Hilbert matrix (condition 1.5e7 at n=6) leaves an unrefined
    # solution whose correction is far above eps ||x||; one step brings the
    # residual to roundoff
    A = sp.csr_matrix(sla.hilbert(6))
    _, report = lu_solve(A, np.ones(6))
    assert report.refinements >= 1
    assert report.residual_norm <= 1e-13
    assert 0.0 <= report.factor_s <= report.elapsed


class _ScaledFactor:
    """A factor whose solves return theta times the exact ones, so that each
    refinement step multiplies the error, and the residual, by 1 - theta
    (entrywise for an array theta).  It counts its solves: the first solve
    and every correction formed, applied or not."""

    def __init__(self, factor, theta):
        self.factor, self.theta, self.nnz = factor, theta, factor.nnz
        self.solves = 0

    def solve(self, v):
        self.solves += 1
        return self.theta * self.factor.solve(v)


def _scaled_solve(monkeypatch, A, b, theta):
    """lu_solve with every factor scaled by theta; returns (x, report,
    solves per factor made)."""
    exact_factor = solvers._factor
    made = []

    def factor(As, **kw):
        made.append(_ScaledFactor(exact_factor(As, **kw), theta))
        return made[-1]

    monkeypatch.setattr(solvers, "_factor", factor)
    x, report = lu_solve(A, b)
    return x, report, [f.solves for f in made]


def test_contracting_refinement_stops_at_the_cap(monkeypatch):
    # theta = 0.6: each correction is 0.4 times the last, and the fifth
    # (0.6 * 0.4^5 of x) is far above eps ||x||, so the cap ends the loop
    # before it is formed
    A, b = sp.diags([2.0, 3.0, 4.0, 5.0]).tocsr(), np.ones(4)
    x, report, solves = _scaled_solve(monkeypatch, A, b, 0.6)
    assert report.refinements == REFINEMENT_STEPS
    assert solves[-1] == REFINEMENT_STEPS + 1
    # the unrefined residual is 1 - theta; each applied step multiplies it
    # by 1 - theta
    want = 0.4 ** (REFINEMENT_STEPS + 1)
    assert report.residual_norm == pytest.approx(want, rel=1e-12)
    assert np.abs(A @ x - b).max() == pytest.approx(want, rel=1e-12)


def test_refinement_stops_once_the_correction_is_below_eps(monkeypatch):
    # theta = 1 - 2^-20: each correction is ~1e-6 times the last, so the
    # third is below eps ||x|| and is not applied
    A, b = sp.diags([2.0, 3.0, 4.0, 5.0]).tocsr(), np.ones(4)
    x, report, solves = _scaled_solve(monkeypatch, A, b, 1.0 - 2.0 ** -20)
    assert report.precision == "single"
    assert report.refinements == 2
    assert solves == [report.refinements + 2]
    assert np.abs(x - 1.0 / A.diagonal()).max() <= 2.2e-16


def test_refinement_stops_after_one_rejected_correction(monkeypatch):
    # theta = 2: the error flips sign at its size, so the first correction
    # leaves the residual where it was and is rejected
    A, b = sp.diags([2.0, 3.0, 4.0, 5.0]).tocsr(), np.ones(4)
    x, report, solves = _scaled_solve(monkeypatch, A, b, 2.0)
    assert report.precision == "double"
    assert report.refinements == 0
    assert solves == [2, 2]
    assert np.abs(x - 2.0 / A.diagonal()).max() <= 1e-15
    assert report.residual_norm == pytest.approx(1.0, rel=1e-15)


def test_refinement_stops_once_the_correction_stops_shrinking(monkeypatch):
    # the residual is dominated by the first unknown, whose error halves at
    # each step, the correction by the second, whose error grows by 1.5:
    # the second correction would reduce the residual but is larger than
    # the first, and is not applied
    A, b = sp.diags([2.0 ** 20, 1.0]).tocsr(), np.array([2.0 ** 20, 1.0])
    x, report, solves = _scaled_solve(monkeypatch, A, b,
                                      np.array([0.5, 2.5]))
    assert report.refinements == 1
    assert solves[-1] == 3
    # x0 = (0.5, 2.5); the applied correction is (0.25, -2.5 * 1.5)
    assert np.array_equal(x, [0.75, -1.25])


def _saddle_point(n=60, m=20):
    """[[K, B], [B^T, 0]] with K the 1D Laplacian and B of full rank."""
    K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    B = sp.random(n, m, density=0.1, random_state=np.random.default_rng(3))
    B = B + sp.eye(n, m)
    return sp.bmat([[K, B], [B.T, None]], format="csr")


def test_saddle_point_with_zero_block_solves():
    A = _saddle_point()
    assert A.diagonal()[60:].max() == 0.0
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    x, report = lu_solve(A, b)
    assert report.residual_norm <= 1e-13
    assert np.abs(x - np.linalg.solve(A.toarray(), b)).max() <= 1e-10


def test_repeated_solves_are_bit_identical():
    A = _saddle_point()
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    x1, _ = lu_solve(A, b)
    x2, _ = lu_solve(A, b)
    assert x1.tobytes() == x2.tobytes()


def test_locking_p2_weak_system_matches_dense_solve():
    # the k=2, lambda=1e5 weak system of acceptance criterion 2 at n=8
    params = MaterialParams(1.0, 1e5)
    data = manufactured_compressible(params)
    f, g = data.f, data.g
    mesh = build_unit_square_mesh(8)
    system = assemble_weak_system(FESpace(mesh, 2, 2), params, f, g)
    x, report = lu_solve(system.matrix, system.rhs)
    ref = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert report.residual_norm <= 1e-8


def _square_weak_p1(n):
    params = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(params)
    f, g = data.f, data.g
    mesh = build_unit_square_mesh(n)
    return assemble_weak_system(FESpace(mesh, 1, 2), params, f, g)


def _cook_mixed(n, order):
    """The nearly incompressible Cook membrane system of the benchmark, with
    zero loads."""
    params = MaterialParams.from_young_poisson(250.0, 0.4999, gamma=0.1)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    mesh = build_cook_mesh(n)
    return assemble_incompressible_system(
        FESpace(mesh, order, 2), FESpace(mesh, order, 1), params, zero,
        zero, nearly_lambda=params.lam, dirichlet_sides=("CD",)).system


def _cook_mixed_p1(n):
    return _cook_mixed(n, 1)


def _cook_mixed_p2(n):
    return _cook_mixed(n, 2)


def _cook_compressible_p2(n):
    params = MaterialParams.from_young_poisson(1e5, 0.3333)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    mesh = build_cook_mesh(n)
    return assemble_weak_system(FESpace(mesh, 2, 2), params, zero, zero,
                                ("CD",))


def _square_mixed_p1(n):
    params = MaterialParams(1.0, 1.0, gamma=0.1)
    data = manufactured_incompressible(params)
    mesh = build_unit_square_mesh(n)
    return assemble_incompressible_system(
        FESpace(mesh, 1, 2), FESpace(mesh, 1, 1), params, data.f,
        data.g).system


def test_cook_mixed_system_matches_dense_solve():
    # refinement runs on the assembled matrix, which the dense oracle
    # solves, so the residues dropped from the factored copy must not move
    # the solution
    A = _cook_mixed_p1(8).matrix
    assert _equilibrate(A.tocsr())[0].nnz < A.nnz
    b = np.random.default_rng(7).standard_normal(A.shape[0])
    x, report = lu_solve(A, b)
    ref = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert report.residual_norm <= 1e-13


def _scaled(A):
    """D A D with the stored pattern of A, D as in _equilibrate."""
    A = A.tocsr()
    d = 1.0 / np.sqrt(np.asarray(abs(A).max(axis=1).todense()).ravel())
    return (sp.diags(d) @ A @ sp.diags(d)).tocsr(), d


def test_equilibrate_drops_exactly_the_entries_at_the_tolerance():
    A = _cook_mixed_p1(8).matrix
    scaled, d = _scaled(A)
    keep = np.abs(scaled.data) > CANCELLATION_TOL
    assert 0 < np.count_nonzero(~keep) < keep.size
    kept = scaled.copy()
    kept.data[~keep] = 0.0
    kept.eliminate_zeros()
    As, d_got = _equilibrate(A.tocsr())
    assert np.array_equal(d_got, d)
    assert As.nnz == kept.nnz == np.count_nonzero(keep)
    assert abs(As - kept).max() == 0.0


@pytest.mark.parametrize("build", [_cook_mixed_p1, _cook_mixed_p2,
                                   _cook_compressible_p2, _square_mixed_p1])
@pytest.mark.parametrize("n", [4, 8])
def test_dropped_entries_are_residues_far_below_the_kept_ones(build, n):
    # measured on the 22 benchmark systems: the largest dropped scaled entry
    # is 8.1e-16 and the smallest kept one 3.5e-10
    scaled, _ = _scaled(build(n).matrix)
    size = np.abs(scaled.data)
    dropped = size <= CANCELLATION_TOL
    assert dropped.any()
    assert size[dropped].max() <= 1e-15
    assert size[~dropped].min() >= 1e-10


def _rowwise_residual(A, x, b):
    """b - A x by a per-row loop in long double, in stored order."""
    out = np.empty(A.shape[0], dtype=np.longdouble)
    for i in range(A.shape[0]):
        acc = np.longdouble(0.0)
        for jj in range(A.indptr[i], A.indptr[i + 1]):
            acc += np.longdouble(A.data[jj]) * np.longdouble(x[A.indices[jj]])
        out[i] = np.longdouble(b[i]) - acc
    return out


def test_residual_extended_matches_a_rowwise_long_double_loop():
    rng = np.random.default_rng(11)
    # row 1 is empty and row 2 lists its columns out of order
    indptr = np.array([0, 2, 2, 5, 7])
    indices = np.array([0, 3, 3, 0, 1, 2, 1])
    data = rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8, 7)
    A = sp.csr_matrix((data, indices, indptr), shape=(4, 4))
    assert not A.has_sorted_indices
    x, b = rng.standard_normal(4), rng.standard_normal(4)
    want = _rowwise_residual(A, x, b)
    got = solvers._residual_extended(A, x, b)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, want)
    assert got[1] == np.longdouble(b[1])
    extended = A.astype(np.longdouble)
    assert np.array_equal(solvers._residual_extended(extended, x, b), want)


@pytest.mark.parametrize("r, b, want", [
    ([3.0, 4.0], [0.0, 5.0], 1.0),
    ([3e200, 4e200], [5e-200, 0.0], np.inf),    # the ratio itself overflows
    ([3e200, 4e200], [0.0, 5e200], 1.0),
    ([3e-200, 4e-200], [0.0, 5e-200], 1.0),
    ([3.0, 4.0], [0.0, 0.0], 5.0),
    ([0.0, 0.0], [0.0, 0.0], 0.0),
    ([np.nan, 1.0], [1.0, 1.0], np.nan),
])
def test_norm_ratio_scales_before_squaring(r, b, want):
    assert solvers._norm_ratio(np.array(r), np.array(b)) == pytest.approx(
        want, rel=1e-15, nan_ok=True)


def _square_weak_p1_point_order(n):
    """The P1 weak square system, factored in its point order."""
    return _square_weak_p1(n)


@pytest.mark.parametrize("build, n", [(_square_weak_p1, 32),
                                      (_cook_mixed_p1, 16),
                                      (_square_weak_p1_point_order, 32)])
def test_fill_below_default_ordering(build, n):
    # fill is deterministic: SuperLU's minimum degree on A^T + A stores
    # fewer entries than splu's default column order, and the point order
    # fewer than SuperLU's minimum degree on the square
    system = build(n)
    b = np.ones(system.matrix.shape[0])
    if build is _square_weak_p1_point_order:
        _, report = lu_solve(system.matrix, b, system.points)
        reference = lu_solve(system.matrix, b)[1].fill
    else:
        _, report = lu_solve(system.matrix, b)
        reference = spla.splu(_equilibrate(system.matrix.tocsr())[0]).nnz
    assert report.fill < reference
    assert report.residual_norm <= 1e-8


def _square_compressible(assemble, order, n):
    params = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(params)
    return assemble(FESpace(build_unit_square_mesh(n), order, 2), params,
                    data.f, data.g)


def _relative_difference(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("order, n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("assemble", [assemble_weak_system,
                                      assemble_strong_system])
def test_point_order_solve_matches_default_order(monkeypatch, assemble,
                                                 order, n):
    system = _square_compressible(assemble, order, n)
    exact_factor = solvers._factor
    orders = []

    def factor(As, **kw):
        orders.append(kw["permc_spec"])
        return exact_factor(As, **kw)

    monkeypatch.setattr(solvers, "_factor", factor)
    x, report = lu_solve(system.matrix, system.rhs, system.points)
    x0, report0 = lu_solve(system.matrix, system.rhs)
    assert orders == ["NATURAL", "MMD_AT_PLUS_A"]
    assert report.precision == report0.precision == "single"
    assert report.residual_norm <= 1e-13
    assert _relative_difference(x, x0) <= 1e-12


def test_point_order_solve_matches_default_order_on_cook_mixed():
    # refined until the correction is negligible, the solutions of the P2
    # system agree to 4.2e-16 (3 and 4 steps); its residual floor is 2.1e-13
    for system, residual, bound in ((_cook_mixed_p1(8), 1e-13, 1e-12),
                                    (_cook_mixed_p2(16), 1e-12, 1e-13)):
        b = np.random.default_rng(7).standard_normal(system.dof_count)
        x, report = lu_solve(system.matrix, b, system.points)
        x0, _ = lu_solve(system.matrix, b)
        assert report.residual_norm <= residual
        assert _relative_difference(x, x0) <= bound


@pytest.mark.parametrize("order, n", [(1, 8), (2, 4), (1, 32), (2, 16)])
def test_pinned_mean_solve_in_point_order_matches_default_order(
        order, n, monkeypatch):
    # weak and strong, on the compatible manufactured load and on an
    # incompatible random one.  Refined until the correction is
    # negligible, the finer meshes agree to 8.8e-15; a stop at a residual
    # of 1e-13 left up to 4.2e-11 there, at the pinned pressure unknown
    bound = 1e-12 if n <= 8 else 1e-13
    params = MaterialParams(1.0, 1.0, gamma=0.1)
    data = manufactured_incompressible(params)
    mesh = build_unit_square_mesh(n)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    mean = pressure_integral_vector(Q)
    for bc_mode in ("weak", "strong"):
        mixed = assemble_incompressible_system(V, Q, params, data.f, data.g,
                                               bc_mode=bc_mode)
        assert mixed.constraint_index is not None
        random = np.random.default_rng(3).standard_normal(
            mixed.system.dof_count)
        for rhs in (mixed.system.rhs, random):
            x = _pinned_mean_solve(mixed, mean, rhs, "point order")
            with monkeypatch.context() as default_order:
                # the same solve with lu_solve's default order
                default_order.setattr(experiments, "lu_solve",
                                      lambda A, b, points: lu_solve(A, b))
                x0 = _pinned_mean_solve(mixed, mean, rhs, "default order")
            assert _relative_difference(x, x0) <= bound


def _square_strong_p1(n):
    return _square_compressible(assemble_strong_system, 1, n)


def _cook_strong_p2(n):
    params = MaterialParams.from_young_poisson(1e5, 0.3333)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    return assemble_strong_system(FESpace(build_cook_mesh(n), 2, 2), params,
                                  zero, zero, ("CD",))


def _order(system):
    return solvers._point_blocked_order(system.matrix.tocsr(), system.points)


@pytest.mark.parametrize("build", [_square_weak_p1, _square_mixed_p1,
                                   _cook_mixed_p1, _cook_compressible_p2,
                                   _square_strong_p1, _cook_strong_p2])
def test_system_orders_number_each_point_together(build):
    # the strong systems' eliminated unknowns are decoupled in the matrix,
    # so their order differs from the mesh graph's, but it still numbers
    # each point's pair together
    system = build(4)
    n, order = system.dof_count, _order(system)
    assert np.array_equal(np.sort(order), np.arange(n))
    if build not in (_square_mixed_p1, _cook_mixed_p1):
        assert np.all(order[0::2] % 2 == 0)
        assert np.array_equal(order[1::2], order[0::2] + 1)
        return
    # velocity pair and pressure per point
    nv = 2 * (n // 3)
    blocks = order.reshape(-1, 3)
    assert np.all(blocks[:, 0] % 2 == 0)
    assert np.array_equal(blocks[:, 1], blocks[:, 0] + 1)
    assert np.array_equal(blocks[:, 2], nv + blocks[:, 0] // 2)


def _mesh_system(mesh, k, kind):
    """(matrix, points, reference order) of a weak compressible, a nearly
    incompressible or a pinned-core mixed system; the loads do not enter
    the order, so they are zero."""
    V = FESpace(mesh, k, 2)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    if kind == "weak":
        system = assemble_weak_system(V, MaterialParams(1.0, 1.0), zero, zero)
        return system.matrix, system.points, point_blocked_order(V)
    mixed = assemble_incompressible_system(
        V, FESpace(mesh, k, 1), MaterialParams(1.0, 1.0, gamma=0.1), zero,
        zero, nearly_lambda=1e3 if kind == "nearly" else None)
    A, points = mixed.system.matrix, mixed.system.points
    reference = point_blocked_order(V, pressure=True)
    if kind == "nearly":
        return A, points, reference
    n = A.shape[0]
    return A[:n - 1, :n - 1], points[:n - 1], reference[reference < n - 1]


@pytest.mark.parametrize("kind", ["weak", "nearly", "pinned"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("build", [build_unit_square_mesh, build_cook_mesh])
def test_point_order_matches_the_mesh_graph_reference(build, k, kind):
    # on every system without eliminated unknowns the compressed pattern of
    # the matrix is the graph of points that share a cell
    A, points, reference = _mesh_system(build(6), k, kind)
    assert np.array_equal(solvers._point_blocked_order(A, points), reference)


def test_ordered_equilibrated_copy_is_the_permuted_one():
    system = _cook_mixed_p1(8)
    A, order = system.matrix.tocsr(), _order(system)
    As, d = _equilibrate(A)
    Ap, d_ordered = _equilibrate(A, order)
    assert d_ordered.tobytes() == d.tobytes()
    want = As.tocsr()[order][:, order]
    got = Ap.tocsr()
    want.sort_indices()
    got.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    # and the default copy is D A D's, bit for bit
    D = sp.diags(d)
    scaled = (D @ A @ D).tocsc()
    scaled.data[np.abs(scaled.data) <= CANCELLATION_TOL] = 0.0
    scaled.eliminate_zeros()
    assert As.data.tobytes() == scaled.data.tobytes()
    assert np.array_equal(As.indices, scaled.indices)


@pytest.mark.parametrize("points", [[0, 1], [0, 1, 2, 2], [[0, 1, 2]],
                                    [2.0, 0.0, 1.0], [True, False, True],
                                    [-2, 0, 1], [0, 1, 3], [0, 1, -1]])
def test_points_must_name_one_point_per_unknown(points):
    # every unknown lies at a point: -1 names none
    with pytest.raises(ValueError, match=r"one integer in \[0, 3\) per"):
        lu_solve(sp.identity(3, format="csr"), np.ones(3), points)


@pytest.mark.parametrize("points", [[0, 0, 1], [1, 0, 1], [2, 2, 0],
                                    [2, 1, 2], [2, 2, 2]])
def test_points_may_repeat_skip_or_be_absent(points):
    # a point may carry several unknowns, and a point number below the
    # largest may be absent, carrying none
    A = sp.identity(3, format="csr")
    order = solvers._point_blocked_order(A, np.array(points))
    assert sorted(order) == [0, 1, 2]
    # each point's unknowns numbered together in index order
    placed = np.array(points)[order]
    for p in set(points):
        at = np.flatnonzero(placed == p)
        assert np.array_equal(at, np.arange(at[0], at[-1] + 1))
        assert np.all(np.diff(order[at]) > 0)
    x, _ = lu_solve(A, np.array([1.0, 2.0, 3.0]), points)
    assert x.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("points", [None, [2, 0, 1]])
def test_rhs_of_the_wrong_length_is_rejected(points):
    with pytest.raises(ValueError, match="rhs of shape"):
        lu_solve(sp.identity(3, format="csr"), np.ones(4), points)


def test_only_the_solvers_import_scipy_sparse_linalg():
    # every sparse factorization, the elimination order's included, is
    # made in one module
    importers = []
    for path in sorted(pathlib.Path(elastweak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            else:
                continue
            if any(name == "scipy.sparse.linalg"
                   or name.startswith("scipy.sparse.linalg.")
                   for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["solvers.py"]


def _double_only(monkeypatch, A, b):
    """lu_solve with every float32 solution rejected: the float64 path."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "BACKWARD_ERROR_LIMIT", -1.0)
        return lu_solve(A, b)


def test_weak_square_system_is_solved_in_single_precision(monkeypatch):
    system = _square_weak_p1(16)
    x, report = lu_solve(system.matrix, system.rhs)
    assert report.precision == "single"
    assert 0.0 < report.backward_error <= BACKWARD_ERROR_LIMIT
    x64, report64 = _double_only(monkeypatch, system.matrix, system.rhs)
    assert report64.precision == "double"
    assert report.fill == report64.fill
    assert np.abs(x - x64).max() <= 1e-13 * np.abs(x64).max()


def _locking_p2_weak_system():
    params = MaterialParams(1.0, 1e5)
    data = manufactured_compressible(params)
    system = assemble_weak_system(FESpace(build_unit_square_mesh(8), 2, 2),
                                  params, data.f, data.g)
    return system.matrix, system.rhs


def _hilbert6():
    return sp.csr_matrix(sla.hilbert(6)), np.ones(6)


def _float32_singular():
    # 1 + 2^-30 rounds to 1 in float32, so the cast is singular
    return (sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -30]])),
            np.array([1.0, 2.0]))


@pytest.mark.parametrize("build", [_hilbert6, _locking_p2_weak_system,
                                   _float32_singular])
def test_fallback_gives_the_double_precision_solution(monkeypatch, build):
    A, b = build()
    x, report = lu_solve(A, b)
    x64, report64 = _double_only(monkeypatch, A, b)
    assert report.precision == "double"
    assert x.tobytes() == x64.tobytes()
    assert (report.residual_norm, report.backward_error, report.fill,
            report.refinements) == (report64.residual_norm,
                                    report64.backward_error, report64.fill,
                                    report64.refinements)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_single_precision_solve_scales_extreme_right_hand_sides(scale):
    # unscaled, 1e300 overflows the float32 cast and 1e-300 underflows it,
    # and the solve falls back to float64
    diagonal = np.array([2.0, 3.0, 5.0, 7.0])
    b = scale * np.array([1.0, -2.0, 3.0, 0.5])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x, report = lu_solve(sp.diags(diagonal).tocsr(), b)
    assert report.precision == "single"
    assert report.backward_error <= BACKWARD_ERROR_LIMIT
    want = b / diagonal
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(x - b / diagonal).max() <= 1e-15 * np.abs(b / diagonal).max()


class _Factor:
    """A sparse LU that a weak reference can follow."""

    def __init__(self, factor):
        self.factor, self.nnz = factor, factor.nnz

    def solve(self, v):
        return self.factor.solve(v)


@pytest.mark.parametrize("build", [_hilbert6, _locking_p2_weak_system])
def test_fallback_frees_the_float32_factor_first(monkeypatch, build):
    exact_factor = solvers._factor
    made = []   # (dtype, nnz, weak reference) per factorization

    def factor(As, **kw):
        # freed, not merely unreachable: no garbage collection is forced
        for _, _, ref in made:
            assert ref() is None, "an earlier factor is still alive"
        out = _Factor(exact_factor(As, **kw))
        made.append((As.dtype, out.nnz, weakref.ref(out)))
        return out

    monkeypatch.setattr(solvers, "_factor", factor)
    A, b = build()
    _, report = lu_solve(A, b)
    assert [dtype for dtype, _, _ in made] == [np.float32, np.float64]
    assert report.precision == "double"
    # the report describes the accepted factor; factor_s covers both
    assert report.fill == made[1][1]
    assert 0.0 < report.factor_s <= report.elapsed
