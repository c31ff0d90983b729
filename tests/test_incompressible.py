import numpy as np
import pytest

from elastweak.compressible import MaterialParams
from elastweak.incompressible import (assemble_divergence,
                                      assemble_incompressible_system,
                                      assemble_mixed_boundary_flux,
                                      assemble_mixed_volume,
                                      assemble_pressure_stabilization,
                                      pressure_integral_vector)
from elastweak.mesh import build_unit_square_mesh
from elastweak.solvers import lu_solve
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
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    A = assemble_mixed_volume(V, Q, pars)
    ux = AnalyticField.vector(lambda x, y: np.stack([x, 0 * y], axis=-1))
    one = AnalyticField.scalar(lambda x, y: 1.0 + 0 * x)
    X = mixed_vector(V, Q, vfield=ux)
    Y = mixed_vector(V, Q, pfield=one)
    assert Y @ (A @ X) == pytest.approx(1.0, rel=1e-13)      # (div u, q)
    assert X @ (A @ Y) == pytest.approx(-1.0, rel=1e-13)     # -(p, div v)


def test_mixed_volume_divergence_free_rotation():
    mesh, V, Q = spaces(3)
    A = assemble_mixed_volume(V, Q, MaterialParams(1.0, gamma=0.1))
    rot = AnalyticField.vector(lambda x, y: np.stack([y, -x], axis=-1))
    q = AnalyticField.scalar(lambda x, y: x * 0 + 2.0)
    X = mixed_vector(V, Q, vfield=rot)
    Y = mixed_vector(V, Q, pfield=q)
    assert abs(Y @ (A @ X)) < 1e-13


def test_mixed_volume_pressure_blocks_negative_transpose():
    mesh, V, Q = spaces(2)
    A = assemble_mixed_volume(V, Q, MaterialParams(1.0, gamma=0.1)).toarray()
    nU = V.dof_count
    vp = A[:nU, nU:]
    qv = A[nU:, :nU]
    assert np.abs(vp + qv.T).max() < 1e-13


def test_mixed_volume_mismatched_meshes_rejected():
    mesh1 = build_unit_square_mesh(2)
    mesh2 = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        assemble_mixed_volume(FESpace(mesh1, 1, 2), FESpace(mesh2, 1, 1),
                              MaterialParams(1.0, gamma=0.1))


def test_boundary_flux_pressure_edge_value():
    # b(u=0, v=(1,0), p=1) over the right edge equals -1; it enters the
    # matrix through -b(u,v,p), so the assembled pairing gives +1
    mesh, V, Q = spaces(1)
    N = assemble_mixed_boundary_flux(V, Q, MaterialParams(1.0, gamma=0.1),
                                     side_tags=("right",))
    one = AnalyticField.scalar(lambda x, y: 1.0 + 0 * x)
    ex = AnalyticField.constant_vector(1.0, 0.0)
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
    N = assemble_mixed_boundary_flux(V, Q, MaterialParams(2.0, gamma=0.1))
    D = (N + N.T).toarray()
    assert np.abs(D).max() < 1e-12


def test_stabilization_velocity_block_vanishes_for_p1():
    mesh, V, Q = spaces(3)
    S = assemble_pressure_stabilization(V, Q, MaterialParams(1.0, gamma=0.1))
    nU = V.dof_count
    Sd = S.toarray()
    assert np.abs(Sd[:, :nU]).max() == 0.0
    assert np.abs(Sd[:nU, :]).max() == 0.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_stabilization_linear_pressure_value(n):
    mesh, V, Q = spaces(n)
    S = assemble_pressure_stabilization(V, Q, MaterialParams(1.0, gamma=1.0))
    px = AnalyticField.scalar(lambda x, y: x)
    X = mixed_vector(V, Q, pfield=px)
    assert X @ (S @ X) == pytest.approx(2.0 / n ** 2, rel=1e-12)


def test_stabilization_constant_pressure_zero():
    mesh, V, Q = spaces(2)
    S = assemble_pressure_stabilization(V, Q, MaterialParams(1.0, gamma=0.5))
    X = mixed_vector(V, Q, pfield=AnalyticField.scalar(lambda x, y: 3 + 0 * x))
    assert np.abs(S @ X).max() < 1e-14


def test_stabilization_pressure_block_spd():
    mesh, V, Q = spaces(3)
    S = assemble_pressure_stabilization(V, Q,
                                        MaterialParams(1.0, gamma=0.1)).toarray()
    nU = V.dof_count
    Spp = S[nU:, nU:]
    assert np.abs(Spp - Spp.T).max() < 1e-12
    ev = np.linalg.eigvalsh(Spp)
    assert ev.min() > -1e-12 * max(ev.max(), 1.0)


def test_stabilization_requires_positive_gamma():
    mesh, V, Q = spaces(2)
    with pytest.raises(ValueError):
        assemble_pressure_stabilization(V, Q, MaterialParams(1.0, gamma=0.0))
    with pytest.raises(ValueError):
        assemble_incompressible_system(mesh, V, Q, MaterialParams(1.0),
                                       ZERO, ZERO)


def test_p2_stabilization_velocity_coupling_consistent():
    # for P2, the velocity part of the stabilization must integrate
    # -2 mu div eps(u) against grad q; with u = (x^2, 0), q = x:
    # div eps(u) = (2, 0), so the integrand is -4 mu over the square
    mesh = build_unit_square_mesh(3)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    mu, gamma = 1.7, 0.3
    S = assemble_pressure_stabilization(V, Q, MaterialParams(mu, gamma=gamma))
    u2 = AnalyticField.vector(lambda x, y: np.stack([x ** 2, 0 * y], axis=-1))
    qx = AnalyticField.scalar(lambda x, y: x)
    X = np.zeros(V.dof_count + Q.dof_count)
    X[:V.dof_count] = interpolate(V, u2).coefficients
    Y = np.zeros_like(X)
    Y[V.dof_count:] = interpolate(Q, qx).coefficients
    h2 = 2.0 / 9.0   # uniform h_K^2 on the n=3 mesh
    expected = (gamma / mu) * h2 * (-2.0 * mu) * 2.0
    assert Y @ (S @ X) == pytest.approx(expected, rel=1e-12)


def test_zero_data_zero_solution():
    mesh, V, Q = spaces(3)
    mixed = assemble_incompressible_system(mesh, V, Q,
                                           MaterialParams(1.0, gamma=0.1),
                                           ZERO, ZERO)
    x, _ = lu_solve(mixed.system.matrix, mixed.system.rhs)
    assert np.abs(x).max() == 0.0


def test_manufactured_data_compatibility():
    from elastweak.experiments import manufactured_incompressible
    from elastweak.spaces import FESpace
    pars = MaterialParams(1.0, gamma=0.1)
    eu, ep, f, g = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(6)
    space = FESpace(mesh, 1, 1)
    bt = space.boundary_tables(16)
    gv = g.value(bt.x[..., 0], bt.x[..., 1])
    flux = float(np.einsum("eq,eqa,ea->", bt.w, gv, bt.normal))
    assert abs(flux) < 1e-12


def test_nearly_infinite_lambda_recovers_incompressible_matrix():
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    # the incompressible system is bordered by the pressure mean; its core
    # is the unbordered operator
    bordered = assemble_incompressible_system(mesh, V, Q, pars, ZERO, ZERO)
    nc = bordered.constraint_index
    base = bordered.system.matrix[:nc, :nc]
    near = assemble_incompressible_system(mesh, V, Q, pars, ZERO, ZERO,
                                          nearly_lambda=np.inf)
    assert near.constraint_index is None
    diff = (base - near.system.matrix)
    assert np.abs(diff.toarray()).max() == 0.0
    near2 = assemble_incompressible_system(mesh, V, Q, pars, ZERO, ZERO,
                                           nearly_lambda=1e14)
    diff2 = (base - near2.system.matrix).toarray()
    assert np.abs(diff2).max() < 1e-10


def test_nearly_lambda_must_be_positive():
    mesh, V, Q = spaces(2)
    with pytest.raises(ValueError):
        assemble_incompressible_system(mesh, V, Q,
                                       MaterialParams(1.0, gamma=0.1),
                                       ZERO, ZERO, nearly_lambda=-2.0)


def test_mean_constraint_removes_singularity():
    mesh, V, Q = spaces(2)
    pars = MaterialParams(1.0, gamma=0.1)
    constrained = assemble_incompressible_system(mesh, V, Q, pars, ZERO, ZERO)
    nc = constrained.constraint_index
    assert nc == V.dof_count + Q.dof_count
    # constant pressure spans the kernel of the unconstrained operator
    X = mixed_vector(V, Q, pfield=AnalyticField.scalar(lambda x, y: 1 + 0 * x))
    assert np.abs(constrained.system.matrix[:nc, :nc] @ X).max() < 1e-12
    rng = np.random.default_rng(0)
    b = rng.standard_normal(constrained.system.dof_count)
    x, report = lu_solve(constrained.system.matrix, b)
    assert report.residual_norm < 1e-9


def test_solved_pressure_has_zero_mean_and_multiplier_vanishes():
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    eu, ep, f, g = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(8)
    u_h, p_h, mult, mixed = solve_incompressible(mesh, 1, pars, f, g)
    Q = p_h.space
    mean = pressure_integral_vector(Q) @ p_h.coefficients
    assert abs(mean) < 1e-12
    assert abs(mult) < 1e-12


def test_discrete_mass_balance_identity():
    # with q = 1 the boundary pairing cancels the volume divergence exactly:
    # (div u_h, 1) equals the boundary flux of u_h for any discrete field,
    # and the solved multiplier vanishes for compatible data
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    eu, ep, f, g = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(8)
    u_h, p_h, mult, mixed = solve_incompressible(mesh, 1, pars, f, g)
    V, Q = u_h.space, p_h.space
    D = assemble_divergence(V, Q)
    div_total = np.ones(Q.dof_count) @ (D @ u_h.coefficients)
    bt = V.boundary_tables(4)
    coef = u_h.coefficients[bt.cell_dofs].reshape(len(bt.edge_ids), -1, 2)
    vals = np.einsum("eqi,eic->eqc", bt.N, coef)
    flux = float(np.einsum("eq,eqa,ea->", bt.w, vals, bt.normal))
    assert div_total == pytest.approx(flux, abs=1e-10)
    assert abs(mult) < 1e-12


def test_repeat_solve_is_identical():
    from elastweak.experiments import manufactured_incompressible, \
        solve_incompressible
    pars = MaterialParams(1.0, gamma=0.1)
    eu, ep, f, g = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(4)
    u1, p1, _, _ = solve_incompressible(mesh, 1, pars, f, g)
    u2, p2, _, _ = solve_incompressible(mesh, 1, pars, f, g)
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
    eu, ep, f, g = manufactured_incompressible(pars)
    u_h, p_h, mult, mixed = solve_incompressible(
        build_unit_square_mesh(n), order, pars, f, g, bc_mode=bc_mode)
    u, p, lam = mixed.split(lu_solve(mixed.system.matrix,
                                     mixed.system.rhs)[0])
    assert _relative_gap(u_h.coefficients, u) < 1e-10
    assert _relative_gap(p_h.coefficients, p) < 1e-10
    assert abs(mult - lam) < 1e-12


@pytest.mark.parametrize("order,n,bc_mode", PINNED_CASES)
def test_pinned_helper_matches_bordered_lu_on_random_rhs(order, n, bc_mode):
    # an incompatible right-hand side: the multiplier is O(1) and the border
    # entry asks for a nonzero pressure mean
    from elastweak.experiments import _pinned_mean_solve
    mesh, V, Q = spaces(n, order)
    mixed = assemble_incompressible_system(
        mesh, V, Q, MaterialParams(1.0, gamma=0.1), ZERO, ZERO,
        bc_mode=bc_mode)
    b = np.random.default_rng(7).standard_normal(mixed.system.dof_count)
    b[mixed.constraint_index] = 0.5
    x = _pinned_mean_solve(mixed, b, "random rhs")
    ref, _ = lu_solve(mixed.system.matrix, b)
    assert abs(ref[-1]) > 1e-3
    assert _relative_gap(x, ref) < 1e-10
    assert pressure_integral_vector(Q) @ x[V.dof_count:-1] == pytest.approx(
        0.5, rel=1e-12)


@pytest.mark.parametrize("order,bc_mode", [(1, "weak"), (1, "strong"),
                                           (2, "weak"), (2, "strong")])
def test_constant_pressure_spans_both_kernels_of_core(order, bc_mode):
    # the pinned solve needs the pressure rows of the core to sum to zero
    # (left kernel) as well as core @ (0, 1) = 0 (right kernel)
    mesh, V, Q = spaces(6, order)
    mixed = assemble_incompressible_system(
        mesh, V, Q, MaterialParams(1.0, gamma=0.1), ZERO, ZERO,
        bc_mode=bc_mode)
    nc = mixed.constraint_index
    core = mixed.system.matrix[:nc, :nc]
    scale = abs(core).max()
    const = np.concatenate([np.zeros(V.dof_count), np.ones(Q.dof_count)])
    assert np.abs(const @ core).max() < 1e-15 * scale
    assert np.abs(core @ const).max() < 1e-15 * scale
