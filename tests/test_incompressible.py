import numpy as np
import pytest
from fem_helpers import assert_same_csr, padded_mixed_operator
from oracles import bordered_mean_solve

from elastweak.compressible import (MaterialParams, _weak_operator,
                                    dirichlet_dofs_and_values, eliminate_dofs)
from elastweak.incompressible import (_mixed_operator, assemble_divergence,
                                      assemble_incompressible_system,
                                      assemble_mixed_boundary_flux,
                                      assemble_pressure_stabilization,
                                      pressure_integral_vector)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.spaces import AnalyticField, FESpace, interpolate

ZERO = AnalyticField.constant_vector(0.0, 0.0)


def spaces(n, order=1):
    mesh = build_unit_square_mesh(n)
    return mesh, FESpace(mesh, order, 2), FESpace(mesh, order, 1)


def mixed_vector(V, Q, vfield=None, pfield=None):
    x = np.zeros(V.dof_count + Q.dof_count)
    if vfield is not None:
        x[:V.dof_count] = interpolate(V, vfield).coefficients
    if pfield is not None:
        x[V.dof_count:] = interpolate(Q, pfield).coefficients
    return x


def test_mixed_volume_divergence_pairing():
    # with no flux side the operator is the volume part plus the
    # stabilization, whose velocity coupling vanishes for P1
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    A = _mixed_operator(V, Q, pars, ())
    ux = AnalyticField.vector(lambda x, y: np.stack([x, 0 * y], axis=-1))
    one = AnalyticField.scalar(lambda x, y: 1.0 + 0 * x)
    X = mixed_vector(V, Q, vfield=ux)
    Y = mixed_vector(V, Q, pfield=one)
    assert Y @ (A @ X) == pytest.approx(1.0, rel=1e-13)      # (div u, q)
    assert X @ (A @ Y) == pytest.approx(-1.0, rel=1e-13)     # -(p, div v)


def test_mixed_volume_divergence_free_rotation():
    mesh, V, Q = spaces(3)
    A = _mixed_operator(V, Q, MaterialParams(1.0, gamma=0.1), ())
    rot = AnalyticField.vector(lambda x, y: np.stack([y, -x], axis=-1))
    q = AnalyticField.scalar(lambda x, y: x * 0 + 2.0)
    X = mixed_vector(V, Q, vfield=rot)
    Y = mixed_vector(V, Q, pfield=q)
    assert abs(Y @ (A @ X)) < 1e-13


def test_mixed_volume_pressure_blocks_negative_transpose():
    mesh, V, Q = spaces(2)
    A = _mixed_operator(V, Q, MaterialParams(1.0, gamma=0.1), ()).toarray()
    nU = V.dof_count
    vp = A[:nU, nU:]
    qv = A[nU:, :nU]
    assert np.abs(vp + qv.T).max() < 1e-13


def test_mixed_volume_mismatched_meshes_rejected():
    mesh1 = build_unit_square_mesh(2)
    mesh2 = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        _mixed_operator(FESpace(mesh1, 1, 2), FESpace(mesh2, 1, 1),
                        MaterialParams(1.0, gamma=0.1), ())
    with pytest.raises(ValueError):
        assemble_mixed_boundary_flux(FESpace(mesh1, 1, 2),
                                     FESpace(mesh2, 1, 1))


def _flux_part(V, Q, pars, sides):
    """What the flux on sides adds to the mixed operator."""
    return _mixed_operator(V, Q, pars, sides) - _mixed_operator(V, Q, pars, ())


def test_boundary_flux_pressure_edge_value():
    # b(u=0, v=(1,0), p=1) over the right edge equals -1; it enters the
    # matrix through -b(u,v,p), so the assembled pairing gives +1
    mesh, V, Q = spaces(1)
    one = AnalyticField.scalar(lambda x, y: 1.0 + 0 * x)
    ex = AnalyticField.constant_vector(1.0, 0.0)
    Bvp = assemble_mixed_boundary_flux(V, Q, side_tags=("right",))
    assert Bvp.shape == (V.dof_count, Q.dof_count)
    assert (interpolate(V, ex).coefficients
            @ (Bvp @ interpolate(Q, one).coefficients)) == pytest.approx(
                1.0, rel=1e-13)
    N = _flux_part(V, Q, MaterialParams(1.0, gamma=0.1), ("right",))
    X = mixed_vector(V, Q, pfield=one)
    Y = mixed_vector(V, Q, vfield=ex)
    assert Y @ (N @ X) == pytest.approx(1.0, rel=1e-13)
    assert X @ (N @ Y) == pytest.approx(-1.0, rel=1e-13)


def test_boundary_flux_constant_velocity_zero_pressure():
    # the flux (2 mu eps(u) - p I) . n vanishes for constant u and p = 0
    from elastweak.compressible import assemble_boundary_flux
    mesh, V, Q = spaces(2)
    Bvv = assemble_boundary_flux(V, MaterialParams(1.0))
    const = interpolate(V, AnalyticField.constant_vector(1.5, -0.5)).coefficients
    assert np.abs(Bvv @ const).max() < 1e-13


def test_boundary_flux_antisymmetric():
    mesh, V, Q = spaces(3)
    N = _flux_part(V, Q, MaterialParams(2.0, gamma=0.1), mesh.side_tags)
    assert abs(N).max() > 0.1
    D = (N + N.T).toarray()
    assert np.abs(D).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder,sides", [
    *((build_unit_square_mesh, (tag,))
      for tag in build_unit_square_mesh(1).side_tags),
    (build_unit_square_mesh, None),
    (build_unit_square_mesh, ()),
    (build_cook_mesh, ("CD",)),
    (build_cook_mesh, ()),
])
def test_velocity_block_is_the_weak_operator(builder, sides, order):
    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    pars = MaterialParams(1.3, 2.7, gamma=0.1)
    sides = mesh.side_tags if sides is None else sides
    A = _mixed_operator(V, Q, pars, sides)
    nU = V.dof_count
    assert_same_csr(A[:nU, :nU], _weak_operator(V, MaterialParams(1.3), sides))


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("bc_mode", ["weak", "strong"])
def test_mixed_matrix_equals_padded_sum_on_square(n, bc_mode):
    # the square [u, p] matrix of a fixed pressure mean; strong mode
    # eliminates on the operator without flux
    mesh, V, Q = spaces(n)
    pars = MaterialParams(1.0, gamma=0.1)
    g = AnalyticField.constant_vector(0.3, -0.2)
    mixed = assemble_incompressible_system(V, Q, pars, g, g,
                                           bc_mode=bc_mode)
    assert mixed.constraint_index == V.dof_count + Q.dof_count
    flux_sides = mesh.side_tags if bc_mode == "weak" else ()
    ref = padded_mixed_operator(V, Q, pars, flux_sides)
    if bc_mode == "strong":
        dofs, vals = dirichlet_dofs_and_values(V, g)
        ref, _ = eliminate_dofs(ref, mixed.system.rhs, dofs, vals)
    assert_same_csr(mixed.system.matrix, ref)


@pytest.mark.parametrize("bc_mode", ["weak", "strong"])
def test_mixed_matrix_equals_padded_sum_on_nearly_incompressible_cook(
        bc_mode):
    mesh = build_cook_mesh(8)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    full = MaterialParams.from_young_poisson(250.0, 0.4999, gamma=0.1)
    pars = MaterialParams(full.mu, gamma=0.1)
    g = AnalyticField.constant_vector(0.0, 0.0)
    mixed = assemble_incompressible_system(
        V, Q, pars, g, g, nearly_lambda=full.lam,
        dirichlet_sides=("CD",), bc_mode=bc_mode)
    assert mixed.constraint_index is None
    flux_sides = ("CD",) if bc_mode == "weak" else ()
    ref = padded_mixed_operator(V, Q, pars, flux_sides,
                                nearly_lambda=full.lam)
    if bc_mode == "strong":
        dofs, vals = dirichlet_dofs_and_values(V, g, ("CD",))
        ref, _ = eliminate_dofs(ref, mixed.system.rhs, dofs, vals)
    assert_same_csr(mixed.system.matrix, ref)


def test_stabilization_velocity_block_vanishes_for_p1():
    mesh, V, Q = spaces(3)
    Squ, Spp = assemble_pressure_stabilization(V, Q,
                                               MaterialParams(1.0, gamma=0.1))
    assert Squ.shape == (Q.dof_count, V.dof_count)
    assert Spp.shape == (Q.dof_count, Q.dof_count)
    assert Squ.nnz == 0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_stabilization_linear_pressure_value(n):
    mesh, V, Q = spaces(n)
    _, Spp = assemble_pressure_stabilization(V, Q,
                                             MaterialParams(1.0, gamma=1.0))
    p = interpolate(Q, AnalyticField.scalar(lambda x, y: x)).coefficients
    assert p @ (Spp @ p) == pytest.approx(2.0 / n ** 2, rel=1e-12)


def test_stabilization_constant_pressure_zero():
    mesh, V, Q = spaces(2)
    _, Spp = assemble_pressure_stabilization(V, Q,
                                             MaterialParams(1.0, gamma=0.5))
    p = np.full(Q.dof_count, 3.0)
    assert np.abs(Spp @ p).max() < 1e-14


def test_stabilization_pressure_block_spd():
    mesh, V, Q = spaces(3)
    _, Spp = assemble_pressure_stabilization(V, Q,
                                             MaterialParams(1.0, gamma=0.1))
    Spp = Spp.toarray()
    assert np.abs(Spp - Spp.T).max() < 1e-12
    ev = np.linalg.eigvalsh(Spp)
    assert ev.min() > -1e-12 * max(ev.max(), 1.0)


def test_stabilization_requires_positive_gamma():
    mesh, V, Q = spaces(2)
    with pytest.raises(ValueError):
        assemble_pressure_stabilization(V, Q, MaterialParams(1.0, gamma=0.0))
    with pytest.raises(ValueError):
        assemble_incompressible_system(V, Q, MaterialParams(1.0),
                                       ZERO, ZERO)


def test_p2_stabilization_velocity_coupling_consistent():
    # for P2, the velocity part of the stabilization must integrate
    # -2 mu div eps(u) against grad q; with u = (x^2, 0), q = x:
    # div eps(u) = (2, 0), so the integrand is -4 mu over the square
    mesh = build_unit_square_mesh(3)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    mu, gamma = 1.7, 0.3
    Squ, _ = assemble_pressure_stabilization(V, Q,
                                             MaterialParams(mu, gamma=gamma))
    u2 = AnalyticField.vector(lambda x, y: np.stack([x ** 2, 0 * y], axis=-1))
    qx = AnalyticField.scalar(lambda x, y: x)
    u = interpolate(V, u2).coefficients
    q = interpolate(Q, qx).coefficients
    h2 = 2.0 / 9.0   # uniform h_K^2 on the n=3 mesh
    expected = (gamma / mu) * h2 * (-2.0 * mu) * 2.0
    assert q @ (Squ @ u) == pytest.approx(expected, rel=1e-12)


def test_zero_data_zero_solution():
    # the matrix is singular; the mean-zero solve is the one the sweeps use
    from elastweak.experiments import _pinned_mean_solve
    mesh, V, Q = spaces(3)
    mixed = assemble_incompressible_system(V, Q,
                                           MaterialParams(1.0, gamma=0.1),
                                           ZERO, ZERO)
    x = _pinned_mean_solve(mixed, pressure_integral_vector(Q),
                           mixed.system.rhs, "zero data")
    assert np.abs(x).max() == 0.0


def test_manufactured_data_compatibility():
    from elastweak.experiments import manufactured_incompressible
    from elastweak.spaces import FESpace
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    mesh = build_unit_square_mesh(6)
    space = FESpace(mesh, 1, 1)
    bt = space.boundary_tables(16)
    gv = g.value(bt.x[..., 0], bt.x[..., 1])
    flux = float(np.einsum("eq,eqa,ea->", bt.w, gv, bt.normal))
    assert abs(flux) < 1e-12


def test_nearly_infinite_lambda_recovers_incompressible_matrix():
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    base = assemble_incompressible_system(V, Q, pars, ZERO, ZERO).system.matrix
    near = assemble_incompressible_system(V, Q, pars, ZERO, ZERO,
                                          nearly_lambda=np.inf)
    assert near.constraint_index is None
    diff = (base - near.system.matrix)
    assert np.abs(diff.toarray()).max() == 0.0
    near2 = assemble_incompressible_system(V, Q, pars, ZERO, ZERO,
                                           nearly_lambda=1e14)
    diff2 = (base - near2.system.matrix).toarray()
    assert np.abs(diff2).max() < 1e-10


def test_nearly_lambda_must_be_positive():
    mesh, V, Q = spaces(2)
    for lam in (-2.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="nearly_lambda must be positive"):
            assemble_incompressible_system(V, Q,
                                           MaterialParams(1.0, gamma=0.1),
                                           ZERO, ZERO, nearly_lambda=lam)


def test_mean_constraint_removes_singularity():
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    mixed = assemble_incompressible_system(V, Q, pars, ZERO, ZERO)
    C = mixed.system.matrix
    assert mixed.constraint_index == V.dof_count + Q.dof_count == C.shape[0]
    # constant pressure spans the kernel of the unconstrained operator
    X = mixed_vector(V, Q, pfield=AnalyticField.scalar(lambda x, y: 1 + 0 * x))
    assert np.abs(C @ X).max() < 1e-12
    # the pressure-mean border makes any load solvable
    b = np.random.default_rng(0).standard_normal(C.shape[0])
    mean = pressure_integral_vector(Q)
    x, lam = bordered_mean_solve(mixed, mean, b)
    r = b - C @ x
    r[V.dof_count:] -= lam * mean
    assert np.linalg.norm(r) < 1e-9 * np.linalg.norm(b)
    assert abs(mean @ x[V.dof_count:]) < 1e-12


def test_solved_pressure_has_zero_mean_and_multiplier_vanishes():
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    mesh = build_unit_square_mesh(8)
    u_h, p_h, mixed = solve_incompressible(mesh, 1, pars, f, g)
    mean = pressure_integral_vector(p_h.space)
    assert abs(mean @ p_h.coefficients) < 1e-12
    # the multiplier of the bordered system: the load's compatibility defect
    b_p = mixed.system.rhs[mixed.n_velocity:]
    assert abs(b_p.sum()) / mean.sum() < 1e-12


def test_discrete_mass_balance_identity():
    # with q = 1 the boundary pairing cancels the volume divergence exactly:
    # (div u_h, 1) equals the boundary flux of u_h for any discrete field,
    # and the load's compatibility defect vanishes for compatible data
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    mesh = build_unit_square_mesh(8)
    u_h, p_h, mixed = solve_incompressible(mesh, 1, pars, f, g)
    V, Q = u_h.space, p_h.space
    D = assemble_divergence(V, Q)
    div_total = np.ones(Q.dof_count) @ (D @ u_h.coefficients)
    bt = V.boundary_tables(4)
    coef = u_h.coefficients[bt.cell_dofs].reshape(len(bt.edge_ids), -1, 2)
    vals = np.einsum("eqi,eic->eqc", bt.N, coef)
    flux = float(np.einsum("eq,eqa,ea->", bt.w, vals, bt.normal))
    assert div_total == pytest.approx(flux, abs=1e-10)
    b_p = mixed.system.rhs[V.dof_count:]
    assert abs(b_p.sum()) / pressure_integral_vector(Q).sum() < 1e-12


def test_repeat_solve_is_identical():
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    mesh = build_unit_square_mesh(4)
    u1, p1, _ = solve_incompressible(mesh, 1, pars, f, g)
    u2, p2, _ = solve_incompressible(mesh, 1, pars, f, g)
    assert np.array_equal(u1.coefficients, u2.coefficients)
    assert np.array_equal(p1.coefficients, p2.coefficients)


PINNED_CASES = [(1, 16, "weak"), (1, 16, "strong"), (2, 8, "weak"),
                (2, 8, "strong")]


def _relative_gap(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("order,n,bc_mode", PINNED_CASES)
def test_pinned_solve_matches_bordered_lu(order, n, bc_mode):
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    # a compatible load: the multiplier is the load's compatibility defect
    u_h, p_h, mixed = solve_incompressible(
        build_unit_square_mesh(n), order, pars, f, g, bc_mode=bc_mode)
    mean = pressure_integral_vector(p_h.space)
    x, lam = bordered_mean_solve(mixed, mean, mixed.system.rhs)
    u, p = mixed.split(x)
    assert _relative_gap(u_h.coefficients, u) < 1e-10
    assert _relative_gap(p_h.coefficients, p) < 1e-10
    b_p = mixed.system.rhs[mixed.n_velocity:]
    assert abs(b_p.sum() / mean.sum() - lam) < 1e-12


@pytest.mark.parametrize("order,n,bc_mode", PINNED_CASES)
def test_pinned_helper_matches_bordered_lu_on_random_rhs(order, n, bc_mode):
    # an incompatible load: the multiplier of the bordered system is O(1)
    from elastweak.experiments import _pinned_mean_solve
    mesh, V, Q = spaces(n, order)
    mixed = assemble_incompressible_system(
        V, Q, MaterialParams(1.0, gamma=0.1), ZERO, ZERO,
        bc_mode=bc_mode)
    mean = pressure_integral_vector(Q)
    b = np.random.default_rng(7).standard_normal(mixed.system.dof_count)
    x = _pinned_mean_solve(mixed, mean, b, "random rhs")
    ref, lam = bordered_mean_solve(mixed, mean, b)
    assert abs(lam) > 1e-3
    assert _relative_gap(x, ref) < 1e-10
    p = x[V.dof_count:]
    assert abs(mean @ p) <= 1e-14 * mean.sum() * np.abs(p).max()


def test_pinned_mean_solve_checks_the_pinned_row():
    # with a pressure mass the constant pressure spans no kernel, so the
    # solve with one pressure DOF pinned leaves a residual in that DOF's
    # row, which the residual check on every unknown rejects
    from elastweak.experiments import ExperimentError, _pinned_mean_solve
    mesh, V, Q = spaces(4)
    mixed = assemble_incompressible_system(
        V, Q, MaterialParams(1.0, gamma=0.1), ZERO, ZERO, nearly_lambda=1.0)
    b = np.random.default_rng(5).standard_normal(mixed.system.dof_count)
    with pytest.raises(ExperimentError, match="relative residual"):
        _pinned_mean_solve(mixed, pressure_integral_vector(Q), b, "pinned")


@pytest.mark.parametrize("order,bc_mode", [(1, "weak"), (1, "strong"),
                                           (2, "weak"), (2, "strong")])
def test_constant_pressure_spans_both_kernels_of_core(order, bc_mode):
    # the pinned solve needs the pressure rows of the core to sum to zero
    # (left kernel) as well as core @ (0, 1) = 0 (right kernel)
    mesh, V, Q = spaces(6, order)
    mixed = assemble_incompressible_system(
        V, Q, MaterialParams(1.0, gamma=0.1), ZERO, ZERO,
        bc_mode=bc_mode)
    core = mixed.system.matrix
    scale = abs(core).max()
    const = np.concatenate([np.zeros(V.dof_count), np.ones(Q.dof_count)])
    assert np.abs(const @ core).max() < 1e-15 * scale
    assert np.abs(core @ const).max() < 1e-15 * scale
