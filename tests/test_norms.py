import math

import numpy as np
import pytest
import scipy.linalg as sla
from fem_helpers import field_with_gradient
from oracles import (_discrete_tables, galerkin_orthogonality_residual,
                     galerkin_orthogonality_residual_mixed,
                     interior_error_parts, korn_boundary_seminorm,
                     rigid_motion_gram,
                     triple_norm_compressible, triple_norm_incompressible)

from elastweak.compressible import (MaterialParams, _vector_form,
                                    _weak_operator,
                                    assemble_elasticity_stiffness,
                                    assemble_strong_system)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (_jet_tables, _jets, compressible_infsup,
                             discrete_infsup_constant,
                             discrete_korn_constant, error_norms,
                             incompressible_infsup, side_mean_gram,
                             triple_norm_gram_compressible,
                             triple_norm_gram_incompressible)
from elastweak.spaces import AnalyticField, DiscreteField, FESpace, interpolate


def vec(fx, fy, grad=None):
    def value(x, y):
        return np.stack([fx(x, y), fy(x, y)], axis=-1)

    if grad is None:
        return AnalyticField.vector(value)
    return field_with_gradient(value, grad)


X_FIELD = vec(lambda x, y: x, lambda x, y: 0 * x,
              lambda x, y: np.broadcast_to(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                           np.shape(x) + (2, 2)).copy())
ROTATION = vec(lambda x, y: y, lambda x, y: -x)


def test_triple_norm_zero_field():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    zero = DiscreteField(V, np.zeros(V.dof_count))
    assert triple_norm_compressible(zero, MaterialParams(1.0)) == 0.0


def test_triple_norm_hand_value():
    # w = (x, 0) on the n=1 mesh, mu=1, lam=0: gradient part 1, boundary part
    # (1 + 2/3) / sqrt(2) with both owner elements of diameter sqrt(2)
    mesh = build_unit_square_mesh(1)
    V = FESpace(mesh, 1, 2)
    w = interpolate(V, X_FIELD)
    val = triple_norm_compressible(w, MaterialParams(1.0, 0.0))
    assert val == pytest.approx(math.sqrt(1.0 + (5.0 / 3.0) / math.sqrt(2)),
                                rel=1e-12)


def test_triple_norm_homogeneity():
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    rng = np.random.default_rng(1)
    pars = MaterialParams(2.0, 0.5)
    for c in (-3.7, 0.25):
        coeffs = rng.standard_normal(V.dof_count)
        a = triple_norm_compressible(DiscreteField(V, coeffs), pars)
        b = triple_norm_compressible(DiscreteField(V, c * coeffs), pars)
        assert b == pytest.approx(abs(c) * a, rel=1e-12)


def test_triple_norm_lambda_additivity():
    # with lam=0 only the mu part remains; the squared norms add
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    rng = np.random.default_rng(5)
    w = DiscreteField(V, rng.standard_normal(V.dof_count))
    mu_part = triple_norm_compressible(w, MaterialParams(1.0, 0.0))
    full = triple_norm_compressible(w, MaterialParams(1.0, 2.5))
    lam_part_sq = full ** 2 - mu_part ** 2
    big = triple_norm_compressible(w, MaterialParams(1.0, 5.0))
    assert big ** 2 == pytest.approx(mu_part ** 2 + 2 * lam_part_sq, rel=1e-12)


def test_triple_norm_triangle_inequality():
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    rng = np.random.default_rng(9)
    pars = MaterialParams(1.5, 0.7)
    for _ in range(5):
        a = rng.standard_normal(V.dof_count)
        b = rng.standard_normal(V.dof_count)
        na = triple_norm_compressible(DiscreteField(V, a), pars)
        nb = triple_norm_compressible(DiscreteField(V, b), pars)
        nab = triple_norm_compressible(DiscreteField(V, a + b), pars)
        assert nab <= na + nb + 1e-10


def test_triple_norm_incompressible_values():
    mesh = build_unit_square_mesh(4)
    V = FESpace(mesh, 1, 2)
    Q = FESpace(mesh, 1, 1)
    zero_v = DiscreteField(V, np.zeros(V.dof_count))
    zero_p = DiscreteField(Q, np.zeros(Q.dof_count))
    pars = MaterialParams(1.0, gamma=0.1)
    assert triple_norm_incompressible(zero_v, zero_p, pars) == 0.0
    # rho = x, w = 0: norm equals the uniform element size h = sqrt(2)/n
    px = interpolate(Q, AnalyticField.scalar(lambda x, y: x))
    val = triple_norm_incompressible(zero_v, px, pars)
    assert val == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-12)
    # homogeneity
    rng = np.random.default_rng(2)
    wc = rng.standard_normal(V.dof_count)
    pc = rng.standard_normal(Q.dof_count)
    n1 = triple_norm_incompressible(DiscreteField(V, wc),
                                    DiscreteField(Q, pc), pars)
    n2 = triple_norm_incompressible(DiscreteField(V, 2 * wc),
                                    DiscreteField(Q, 2 * pc), pars)
    assert n2 == pytest.approx(2 * n1, rel=1e-12)


def test_error_norms_reproduction_is_exact():
    mesh = build_unit_square_mesh(3)
    pars = MaterialParams(1.0, 1.0)
    lin = vec(lambda x, y: 0.2 + x - 0.5 * y, lambda x, y: 1.0 - 0.3 * x + y,
              lambda x, y: np.broadcast_to(
                  np.array([[1.0, -0.5], [-0.3, 1.0]]),
                  np.shape(x) + (2, 2)).copy())
    for order in (1, 2):
        V = FESpace(mesh, order, 2)
        rep = error_norms(interpolate(V, lin), lin, pars)
        assert rep.l2_error <= 1e-11
        assert rep.h1_semi_error <= 1e-11
        assert rep.triple_norm_error <= 1e-11


def test_error_norms_hand_values():
    mesh = build_unit_square_mesh(4)
    V = FESpace(mesh, 1, 2)
    zero = DiscreteField(V, np.zeros(V.dof_count))
    rep = error_norms(zero, X_FIELD, MaterialParams(1.0))
    assert rep.l2_error == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert rep.h1_semi_error == pytest.approx(1.0, rel=1e-12)


def test_error_norms_requires_gradient():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    zero = DiscreteField(V, np.zeros(V.dof_count))
    no_grad = vec(lambda x, y: x, lambda x, y: y)
    with pytest.raises(ValueError, match="lacks a derivative contract"):
        error_norms(zero, no_grad, MaterialParams(1.0))
    with pytest.raises(ValueError, match="lacks a derivative contract"):
        galerkin_orthogonality_residual(mesh, V, MaterialParams(1.0), no_grad,
                                        zero)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_cook_mesh])
def test_error_of_zero_field_is_triple_norm_of_exact(builder, order):
    # the error of the zero field is the norm of the exact field, which the
    # oracles' triple norms integrate on their own
    from elastweak.experiments import (manufactured_compressible,
                                       manufactured_incompressible)
    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    zero_u = DiscreteField(V, np.zeros(V.dof_count))
    zero_p = DiscreteField(Q, np.zeros(Q.dof_count))
    pars = MaterialParams(mu=1.3, lam=2.7, gamma=0.1)
    exact = manufactured_compressible(pars).exact_u
    assert error_norms(zero_u, exact, pars).triple_norm_error == \
        pytest.approx(triple_norm_compressible(exact, pars, mesh=mesh),
                      rel=1e-14)
    data = manufactured_incompressible(pars)
    exact_u, exact_p = data.exact_u, data.exact_p
    rep = error_norms(zero_u, exact_u, pars, zero_p, exact_p)
    assert rep.triple_norm_error == pytest.approx(
        triple_norm_incompressible(exact_u, exact_p, pars, mesh=mesh),
        rel=1e-14)
    assert rep.triple_norm_error > 0.0


def test_korn_seminorm_constant_field():
    mesh = build_unit_square_mesh(3)
    const = AnalyticField.constant_vector(1.0, 0.0)
    assert korn_boundary_seminorm(mesh, const) == pytest.approx(2.0, rel=1e-12)


def test_korn_seminorm_rotations():
    mesh = build_unit_square_mesh(4)
    # rotation about the square centre has side means of squared size 1/4
    centered = vec(lambda x, y: y - 0.5, lambda x, y: 0.5 - x)
    assert korn_boundary_seminorm(mesh, centered) == pytest.approx(1.0,
                                                                   rel=1e-12)
    # rotation about the origin picks up the translation part as well
    assert korn_boundary_seminorm(mesh, ROTATION) == pytest.approx(
        math.sqrt(3.0), rel=1e-12)


def test_korn_seminorm_zero_mean_fields():
    mesh = build_unit_square_mesh(2)
    wave = vec(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
               lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert korn_boundary_seminorm(mesh, wave, degree=24) < 1e-9


def test_korn_seminorm_invariance_under_zero_mean_additions():
    mesh = build_unit_square_mesh(3)
    base = AnalyticField.constant_vector(0.5, -1.0)
    combined = vec(
        lambda x, y: 0.5 + np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
        lambda x, y: -1.0 + np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    a = korn_boundary_seminorm(mesh, base, degree=24)
    b = korn_boundary_seminorm(mesh, combined, degree=24)
    assert b == pytest.approx(a, abs=1e-9)


def test_rigid_motion_gram_unit_square():
    G, smallest = rigid_motion_gram(build_unit_square_mesh(4))
    assert np.diag(G) == pytest.approx([4.0, 4.0, 1.0], abs=1e-10)
    assert np.abs(G - np.diag(np.diag(G))).max() < 1e-10
    assert smallest > 0.0
    assert smallest == pytest.approx(1.0, abs=1e-10)


def test_rigid_motion_gram_cook():
    G, smallest = rigid_motion_gram(build_cook_mesh(3))
    assert smallest > 0.0


def test_side_mean_gram_matches_seminorm():
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    S = side_mean_gram(V)
    rot = interpolate(V, ROTATION)
    quad = rot.coefficients @ (S @ rot.coefficients)
    direct = korn_boundary_seminorm(mesh, rot)
    assert quad == pytest.approx(direct ** 2, rel=1e-12)


def test_side_mean_gram_weights_unequal_sides():
    # Cook sides differ in length, unlike the unit square's
    mesh = build_cook_mesh(3)
    V = FESpace(mesh, 2, 2)
    u = DiscreteField(V, np.random.default_rng(5).standard_normal(V.dof_count))
    quad = u.coefficients @ (side_mean_gram(V) @ u.coefficients)
    assert quad == pytest.approx(korn_boundary_seminorm(mesh, u) ** 2,
                                 rel=1e-12)


def test_discrete_korn_constant_positive_and_rotation_quotient():
    mesh = build_unit_square_mesh(4)
    V = FESpace(mesh, 1, 2)
    ck = discrete_korn_constant(V)
    assert ck > 0.0
    # rigid rotation: eps vanishes, so its Rayleigh quotient is the boundary
    # seminorm against the full H1 norm: 3 / (2/3 + 2)
    rot = interpolate(V, ROTATION).coefficients
    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5)).toarray()
    S = side_mean_gram(V)
    H = _vector_form(V, grad=1.0, mass=1.0).toarray()
    quot = (rot @ (E + S) @ rot) / (rot @ H @ rot)
    assert quot == pytest.approx(3.0 / (8.0 / 3.0), rel=1e-12)
    assert ck ** 2 <= quot + 1e-12


def test_discrete_korn_constant_beyond_former_dense_size():
    # 5202 vector DOFs
    mesh = build_unit_square_mesh(50)
    V = FESpace(mesh, 1, 2)
    ck = discrete_korn_constant(V)
    assert ck > 0.0
    rot = interpolate(V, ROTATION).coefficients
    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5))
    H = _vector_form(V, grad=1.0, mass=1.0)
    quot = (rot @ ((E + side_mean_gram(V)) @ rot)) / (rot @ (H @ rot))
    assert ck ** 2 <= quot + 1e-12


def test_infsup_on_coercive_toy_system():
    # energy matrix measured in its own norm has inf-sup constant one
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    system = assemble_strong_system(V, MaterialParams(1.0, 0.5),
                                    zero, zero)
    A = system.matrix.toarray()
    assert discrete_infsup_constant(A, A) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_cook_mesh])
def test_pinned_incompressible_infsup_matches_mean_zero_basis(builder, order):
    # oracle: restrict A and N to the mean-zero pressures with a dense
    # orthonormal null-space basis of the pressure-mean functional
    from scipy.linalg import null_space

    from elastweak.incompressible import (_mixed_operator,
                                          pressure_integral_vector)
    mesh = builder(4)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    pars = MaterialParams(mu=1.3, gamma=0.1)
    A = _mixed_operator(V, Q, pars, mesh.side_tags).toarray()
    N = triple_norm_gram_incompressible(V, Q, pars).toarray()
    m = np.concatenate([np.zeros(V.dof_count), pressure_integral_vector(Q)])
    Z = null_space(m[None, :])
    oracle = discrete_infsup_constant(Z.T @ A @ Z, Z.T @ N @ Z)
    assert incompressible_infsup(V, Q, pars) == pytest.approx(
        oracle, rel=1e-10)


def _dense_infsup(A, N):
    """Smallest singular value of N^-1/2 A N^-1/2 from dense eigh and SVD."""
    w, Q = sla.eigh(N.toarray())
    Nmh = (Q * w ** -0.5) @ Q.T
    return sla.svdvals(Nmh @ A.toarray() @ Nmh)[-1]


@pytest.mark.parametrize("order,n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_cook_mesh])
def test_sparse_diagnostics_match_dense_oracles(builder, order, n):
    from elastweak.incompressible import _mixed_operator
    mesh = builder(n)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    cpars = MaterialParams(1.0, 1.0)
    oracle = _dense_infsup(_weak_operator(V, cpars, None),
                           triple_norm_gram_compressible(V, cpars))
    assert compressible_infsup(V, cpars) == pytest.approx(
        oracle, rel=1e-10)

    ipars = MaterialParams(1.0, 0.0, gamma=0.1)
    A = _mixed_operator(V, Q, ipars, mesh.side_tags)
    N = triple_norm_gram_incompressible(V, Q, ipars)
    oracle = _dense_infsup(A[:-1, :-1], N[:-1, :-1])
    assert incompressible_infsup(V, Q, ipars) == pytest.approx(
        oracle, rel=1e-10)

    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5))
    H = _vector_form(V, grad=1.0, mass=1.0)
    ev = sla.eigh((E + side_mean_gram(V)).toarray(), H.toarray(),
                  eigvals_only=True, subset_by_index=[0, 0])
    assert discrete_korn_constant(V) == pytest.approx(
        np.sqrt(ev[0]), rel=1e-10)


def test_orthogonality_residual_zero_problem():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    u_h = DiscreteField(V, np.zeros(V.dof_count))
    res = galerkin_orthogonality_residual(mesh, V, MaterialParams(1.0, 1.0),
                                          zero, u_h)
    assert res == 0.0


def test_orthogonality_discriminates_interpolant():
    from elastweak.experiments import manufactured_compressible, \
        solve_compressible
    pars = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(pars)
    exact, f, g = data.exact_u, data.f, data.g
    mesh = build_unit_square_mesh(4)
    u_h, _ = solve_compressible(mesh, 2, pars, f, g)
    good = galerkin_orthogonality_residual(mesh, u_h.space, pars, exact, u_h)
    ih = interpolate(u_h.space, exact)
    bad = galerkin_orthogonality_residual(mesh, u_h.space, pars, exact, ih)
    assert good <= 1e-8
    assert bad > 100 * max(good, 1e-14)


def test_triple_norm_accepts_analytic_fields():
    # the analytic route must agree with the interpolated route for a field
    # the space reproduces exactly
    mesh = build_unit_square_mesh(1)
    V = FESpace(mesh, 1, 2)
    pars = MaterialParams(1.0, 0.0)
    via_interp = triple_norm_compressible(interpolate(V, X_FIELD), pars)
    via_analytic = triple_norm_compressible(X_FIELD, pars, mesh=mesh)
    assert via_analytic == pytest.approx(via_interp, rel=1e-12)
    with pytest.raises(ValueError):
        triple_norm_compressible(X_FIELD, pars)


def test_mixed_orthogonality_residual():
    from elastweak.compressible import (LOAD_DEGREE, assemble_flux_load,
                                        assemble_load)
    from elastweak.experiments import manufactured_incompressible
    from elastweak.incompressible import (_mixed_load, _pressure_flux_load,
                                          assemble_incompressible_system)
    from elastweak.solvers import lu_solve
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    eu, ep, f, g = data.exact_u, data.exact_p, data.f, data.g
    mesh = build_unit_square_mesh(4)
    V, Q = FESpace(mesh, 1, 2), FESpace(mesh, 1, 1)
    mixed = assemble_incompressible_system(V, Q, pars, f, g)

    def rhs(load_degree, flux_degree):
        # velocity rows, pressure rows, the pressure-mean row
        return np.concatenate([
            assemble_load(V, f, load_degree)
            + assemble_flux_load(V, MaterialParams(pars.mu), g, None,
                                 flux_degree),
            _mixed_load(V, Q, pars, f, load_degree)[V.dof_count:]
            + _pressure_flux_load(Q, g, None, flux_degree), [0.0]])

    assert np.array_equal(rhs(LOAD_DEGREE, None), mixed.system.rhs)
    # the data terms of the solve must be integrated at the checking degree,
    # otherwise the residual only measures the quadrature gap
    x, _ = lu_solve(mixed.system.matrix, rhs(16, 16))
    res = galerkin_orthogonality_residual_mixed(mesh, V, Q, pars, eu, ep, f, x)
    assert res <= 1e-8
    # a perturbed vector is flagged
    bad = x.copy()
    bad[: V.dof_count] *= 1.01
    res_bad = galerkin_orthogonality_residual_mixed(mesh, V, Q, pars, eu, ep,
                                                    f, bad)
    assert res_bad > 100 * max(res, 1e-14)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_cook_mesh])
def test_gram_matrices_reproduce_norms(builder, order):
    from elastweak.incompressible import (assemble_pressure_mass,
                                          pressure_integral_vector)
    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    pars = MaterialParams(mu=1.3, lam=2.7, gamma=0.1)
    rng = np.random.default_rng(11)
    u = DiscreteField(V, rng.standard_normal(V.dof_count))
    p = DiscreteField(Q, rng.standard_normal(Q.dof_count))
    c = u.coefficients
    quad = c @ (triple_norm_gram_compressible(V, pars) @ c)
    assert quad == pytest.approx(triple_norm_compressible(u, pars) ** 2,
                                 rel=1e-12)
    x = np.concatenate([c, p.coefficients])
    quad = x @ (triple_norm_gram_incompressible(V, Q, pars) @ x)
    assert quad == pytest.approx(triple_norm_incompressible(u, p, pars) ** 2,
                                 rel=1e-12)
    # the H1 Gram of the Korn constant against |u|^2 + |grad u|^2 summed
    # over the error rule's points
    quad = c @ (_vector_form(V, grad=1.0, mass=1.0) @ c)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    norms = error_norms(u, zero, pars)
    assert quad == pytest.approx(
        norms.l2_error ** 2 + norms.h1_semi_error ** 2, rel=1e-12)
    # P2 vertex functions integrate to zero, so compare on the vector scale
    mean = pressure_integral_vector(Q)
    lumped = assemble_pressure_mass(Q) @ np.ones(Q.dof_count)
    assert np.abs(lumped - mean).max() <= 1e-12 * np.abs(mean).max()


def _one_block(monkeypatch):
    """Make every per-cell loop run over the whole mesh as one block."""
    import elastweak.compressible as compressible
    import elastweak.norms as norms

    def whole_mesh(mesh, chunk=None):
        yield slice(0, mesh.num_triangles)

    monkeypatch.setattr(compressible, "cell_chunks", whole_mesh)
    monkeypatch.setattr(norms, "cell_chunks", whole_mesh)


@pytest.mark.parametrize("order", [1, 2])
def test_quadrature_point_layers_do_not_depend_on_the_block(monkeypatch,
                                                             order):
    from elastweak.compressible import assemble_load
    from elastweak.experiments import (manufactured_compressible,
                                       manufactured_incompressible)
    from elastweak.incompressible import _mixed_load
    from elastweak.spaces import cell_chunks

    mesh = build_unit_square_mesh(23)      # 1058 cells: no multiple of a block
    assert len(list(cell_chunks(mesh))) > 1
    params = MaterialParams(1.0, 2.0, gamma=0.1)
    data = manufactured_compressible(params)
    exact, f = data.exact_u, data.f
    data = manufactured_incompressible(params)
    exact_u, exact_p, f_mixed = data.exact_u, data.exact_p, data.f
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    rng = np.random.default_rng(order)
    u_h = DiscreteField(V, 1e-3 * rng.standard_normal(V.dof_count))
    p_h = DiscreteField(Q, rng.standard_normal(Q.dof_count))

    def measured():
        compressible = error_norms(u_h, exact, params)
        mixed = error_norms(u_h, exact_u, params, p_h, exact_p)
        return ([compressible.l2_error, compressible.h1_semi_error,
                 compressible.triple_norm_error, mixed.l2_error,
                 mixed.h1_semi_error, mixed.triple_norm_error,
                 mixed.pressure_l2_error],
                assemble_load(V, f), assemble_load(V, f_mixed),
                _mixed_load(V, Q, params, f_mixed, 10)[V.dof_count:])

    blocked = measured()
    _one_block(monkeypatch)
    whole = measured()
    np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-13, atol=0.0)
    for a, b in zip(blocked[1:], whole[1:]):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("components", [1, 2])
def test_discrete_tables_match_per_point_reference(order, components):
    # the Cook mesh's Jinv is not symmetric, so a transposed map shows
    space = FESpace(build_cook_mesh(2), order, components)
    tab = space.interior_tables(10)
    field = DiscreteField(space, np.random.default_rng(order).standard_normal(
        space.dof_count))
    cells = range(1, space.mesh.num_triangles)
    vals, grads = _discrete_tables(field, tab, slice(1, None))
    coef = field.cell_coefficients(slice(1, None))
    want_v, want_g = np.zeros_like(vals), np.zeros_like(grads)
    for k, c in enumerate(cells):
        for q in range(tab.rule.num_points):
            grad_phi = tab.dN_ref[q] @ tab.Jinv[c]       # (nsb, a)
            want_v[k, q] = np.tensordot(tab.N[q], coef[k], axes=(0, 0))
            want_g[k, q] = np.tensordot(coef[k], grad_phi, axes=(0, 0))
    for got, want in ((vals, want_v), (grads, want_g)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the error pass's component-major jets, written into the leading rows
    # of the given array: the planes (c, m, q) of the values, then
    # (c, 2, m, q) of the derivatives
    m, nq = want_v.shape[:2]
    out = np.full((3 * components + 1, m, nq), np.nan)
    assert _jets(field, _jet_tables(order, tab.rule.points), tab.Jinv,
                 slice(1, None), out) is out
    want = np.concatenate([
        np.moveaxis(want_v.reshape(m, nq, -1), 2, 0),
        np.moveaxis(want_g.reshape(m, nq, -1, 2), (2, 3),
                    (0, 1)).reshape(-1, m, nq)])
    assert np.abs(out[:-1] - want).max() <= 1e-13 * np.abs(want).max()
    assert np.isnan(out[-1]).all()


def _polynomial(rng, components, scale, degree=8):
    """A random polynomial AnalyticField of the given degree in the scaled
    coordinates (x / scale[0], y / scale[1]), with its jet."""
    powers = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coef = rng.standard_normal((len(powers), components))

    def jet(x, y):
        s, t = x / scale[0], y / scale[1]
        v = np.zeros(np.shape(x) + (components,))
        g = np.zeros(np.shape(x) + (components, 2))
        for (i, j), c in zip(powers, coef):
            v += (s ** i * t ** j)[..., None] * c
            if i:
                ds = i * s ** (i - 1) * t ** j / scale[0]
                g[..., 0] += ds[..., None] * c
            if j:
                dt = j * s ** i * t ** (j - 1) / scale[1]
                g[..., 1] += dt[..., None] * c
        if components == 1:
            return v[..., 0], g[..., 0, :]
        return v, g

    return AnalyticField(lambda x, y: jet(x, y)[0], jet, components)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder, scale", [(build_unit_square_mesh, (1, 1)),
                                            (build_cook_mesh, (48, 60))])
def test_error_norms_match_collapsed_rule(monkeypatch, builder, scale, order):
    # errors of degree <= 8 square to degree <= 16, which the symmetric
    # 55-point rule and the 81-point collapsed rule both integrate exactly
    import elastweak.spaces as spaces
    from elastweak.quadrature import _collapsed_rule

    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    rng = np.random.default_rng(order)
    u_h = DiscreteField(V, rng.standard_normal(V.dof_count))
    p_h = DiscreteField(Q, rng.standard_normal(Q.dof_count))
    exact_u, exact_p = _polynomial(rng, 2, scale), _polynomial(rng, 1, scale)
    pars = MaterialParams(mu=1.3, lam=2.7, gamma=0.1)

    def reports():
        return [error_norms(u_h, exact_u, pars),
                error_norms(u_h, exact_u, pars, p_h, exact_p)]

    symmetric = reports()
    assert V.interior_tables(16).rule.num_points == 55
    monkeypatch.setattr(spaces, "triangle_rule", _collapsed_rule)
    assert V.interior_tables(16).rule.num_points == 81
    for got, want in zip(symmetric, reports()):
        for name in ("l2_error", "h1_semi_error", "triple_norm_error",
                     "pressure_l2_error"):
            if getattr(want, name) is not None:
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder, scale", [(build_unit_square_mesh, (1, 1)),
                                            (build_cook_mesh, (48, 60))],
                         ids=["square", "cook"])
def test_error_sums_match_per_point_reference(builder, scale, order):
    # the block sums (squared component planes contracted with the weight
    # columns) against sums over single points; exact fields whose jets
    # return component planes, contiguous component-last arrays, and parts
    # of one whole
    from elastweak.experiments import (manufactured_compressible,
                                       manufactured_incompressible)
    from elastweak.norms import ERROR_DEGREE, _boundary_parts, _interior_parts
    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    rng = np.random.default_rng(order)
    u_h = DiscreteField(V, rng.standard_normal(V.dof_count))
    p_h = DiscreteField(Q, rng.standard_normal(Q.dof_count))
    poly_u, poly_p = _polynomial(rng, 2, scale), _polynomial(rng, 1, scale)
    pars = MaterialParams(mu=1.3, lam=2.7, gamma=0.1)
    compressible = manufactured_compressible(pars).exact_u
    mixed = manufactured_incompressible(pars)
    tab = V.interior_tables(ERROR_DEGREE)
    for pairs in ([(u_h, poly_u)], [(u_h, compressible)], [(p_h, poly_p)],
                  [(u_h, mixed.exact_u), (p_h, mixed.exact_p)],
                  [(u_h, poly_u), (p_h, poly_p)]):
        got = _interior_parts(tab, pairs)
        want = np.array([interior_error_parts(f, e) for f, e in pairs])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        if pairs[0][0] is p_h:      # error_norms takes a velocity first
            continue
        report = error_norms(*pairs[0], pars, *(pairs[1] if pairs[1:]
                                                  else (None, None)))
        l2, g2, d2, _ = want[0]
        assert report.l2_error == pytest.approx(np.sqrt(l2), rel=1e-13)
        assert report.h1_semi_error == pytest.approx(np.sqrt(g2), rel=1e-13)
        t2, n2 = _boundary_parts(*pairs[0])
        if len(pairs) == 1:
            triple = pars.mu * (g2 + t2) + pars.lam * (d2 + n2)
        else:
            triple = pars.mu * (g2 + t2) + want[1, 3] / pars.mu
            assert report.pressure_l2_error == pytest.approx(
                np.sqrt(want[1, 0]), rel=1e-13)
        assert report.triple_norm_error == pytest.approx(np.sqrt(triple),
                                                         rel=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_one_pass_mixed_error_matches_separate_parts(order):
    # the velocity and the pressure share the mixed error pass; each part
    # equals the one computed alone
    from elastweak.experiments import manufactured_incompressible
    from elastweak.norms import ERROR_DEGREE, _interior_parts
    mesh = build_cook_mesh(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    rng = np.random.default_rng(order)
    u_h = DiscreteField(V, rng.standard_normal(V.dof_count))
    p_h = DiscreteField(Q, rng.standard_normal(Q.dof_count))
    pars = MaterialParams(mu=1.3, gamma=0.1)
    data = manufactured_incompressible(pars)
    tab = V.interior_tables(ERROR_DEGREE)
    both = _interior_parts(tab, [(u_h, data.exact_u), (p_h, data.exact_p)])
    velocity = _interior_parts(tab, [(u_h, data.exact_u)])[0]
    pressure = _interior_parts(Q.interior_tables(ERROR_DEGREE),
                               [(p_h, data.exact_p)])[0]
    np.testing.assert_allclose(both, [velocity, pressure], rtol=1e-14,
                               atol=0.0)
    mixed = error_norms(u_h, data.exact_u, pars, p_h, data.exact_p)
    alone = error_norms(u_h, data.exact_u, pars)
    assert mixed.l2_error == pytest.approx(alone.l2_error, rel=1e-14)
    assert mixed.h1_semi_error == pytest.approx(alone.h1_semi_error,
                                                rel=1e-14)
    assert mixed.pressure_l2_error == pytest.approx(np.sqrt(pressure[0]),
                                                    rel=1e-14)
    # lam = 0: the compressible triple norm is the velocity part of the
    # incompressible one
    assert mixed.triple_norm_error ** 2 == pytest.approx(
        alone.triple_norm_error ** 2 + pressure[3] / pars.mu, rel=1e-14)


def test_mixed_error_pass_evaluates_each_sine_once_per_block(monkeypatch):
    # the manufactured velocity and pressure are parts of one field, whose
    # jet the error pass evaluates once per cell block
    from elastweak.experiments import manufactured_incompressible
    from elastweak.spaces import cell_chunks
    pars = MaterialParams(mu=1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(24)
    blocks = len(list(cell_chunks(mesh)))
    assert blocks == 3
    V, Q = FESpace(mesh, 1, 2), FESpace(mesh, 1, 1)
    u_h = DiscreteField(V, np.zeros(V.dof_count))
    p_h = DiscreteField(Q, np.zeros(Q.dof_count))
    calls = []
    sin = np.sin

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return sin(*args, **kwargs)

    monkeypatch.setattr(np, "sin", counted)
    error_norms(u_h, data.exact_u, pars, p_h, data.exact_p)
    # sin(4 pi x) and sin(4 pi y): once per cell block and once for the
    # boundary trace of the velocity
    assert len(calls) == 2 * (blocks + 1)


def test_error_norms_reject_pressure_on_another_mesh():
    V = FESpace(build_unit_square_mesh(2), 1, 2)
    Q = FESpace(build_unit_square_mesh(2), 1, 1)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    p_h = DiscreteField(Q, np.zeros(Q.dof_count))
    with pytest.raises(ValueError, match="different meshes"):
        error_norms(DiscreteField(V, np.zeros(V.dof_count)), zero,
                    MaterialParams(1.0), p_h, AnalyticField.scalar(
                        lambda x, y: 0 * x))
