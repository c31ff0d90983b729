import math

import numpy as np
import pytest
import scipy.linalg as sla

from elastweak.compressible import (MaterialParams, _weak_operator,
                                    assemble_elasticity_stiffness,
                                    assemble_strong_system)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (_discrete_tables, compressible_infsup,
                             discrete_infsup_constant,
                             discrete_korn_constant,
                             error_norms, galerkin_orthogonality_residual,
                             incompressible_infsup,
                             korn_boundary_seminorm,
                             rigid_motion_gram, side_mean_gram,
                             triple_norm_compressible,
                             triple_norm_gram_compressible,
                             triple_norm_gram_incompressible,
                             triple_norm_incompressible, _vector_gram)
from elastweak.spaces import AnalyticField, DiscreteField, FESpace, interpolate


def vec(fx, fy, grad=None):
    return AnalyticField.vector(
        lambda x, y: np.stack([fx(x, y), fy(x, y)], axis=-1), grad)


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
    assert rep.h_max == pytest.approx(math.sqrt(2) / 4)


def test_error_norms_requires_gradient():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    zero = DiscreteField(V, np.zeros(V.dof_count))
    no_grad = vec(lambda x, y: x, lambda x, y: y)
    with pytest.raises(ValueError):
        error_norms(zero, no_grad, MaterialParams(1.0))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("builder", [build_unit_square_mesh, build_cook_mesh])
def test_error_of_zero_field_is_triple_norm_of_exact(builder, order):
    # error_norms and the triple norms share one evaluator: the error of
    # the zero field is the norm of the exact field
    from elastweak.experiments import (manufactured_compressible,
                                       manufactured_incompressible)
    mesh = builder(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    zero_u = DiscreteField(V, np.zeros(V.dof_count))
    zero_p = DiscreteField(Q, np.zeros(Q.dof_count))
    pars = MaterialParams(mu=1.3, lam=2.7, gamma=0.1)
    exact, _, _ = manufactured_compressible(pars)
    assert error_norms(zero_u, exact, pars).triple_norm_error == \
        pytest.approx(triple_norm_compressible(exact, pars, mesh=mesh),
                      rel=1e-14)
    exact_u, exact_p, _, _ = manufactured_incompressible(pars)
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
    ck = discrete_korn_constant(mesh, V)
    assert ck > 0.0
    # rigid rotation: eps vanishes, so its Rayleigh quotient is the boundary
    # seminorm against the full H1 norm: 3 / (2/3 + 2)
    rot = interpolate(V, ROTATION).coefficients
    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5)).toarray()
    S = side_mean_gram(V)
    H = (_vector_gram(V, "mass") + _vector_gram(V, "grad")).toarray()
    quot = (rot @ (E + S) @ rot) / (rot @ H @ rot)
    assert quot == pytest.approx(3.0 / (8.0 / 3.0), rel=1e-12)
    assert ck ** 2 <= quot + 1e-12


def test_discrete_korn_constant_beyond_former_dense_size():
    # 5202 vector DOFs
    mesh = build_unit_square_mesh(50)
    V = FESpace(mesh, 1, 2)
    ck = discrete_korn_constant(mesh, V)
    assert ck > 0.0
    rot = interpolate(V, ROTATION).coefficients
    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5))
    H = _vector_gram(V, "mass") + _vector_gram(V, "grad")
    quot = (rot @ ((E + side_mean_gram(V)) @ rot)) / (rot @ (H @ rot))
    assert ck ** 2 <= quot + 1e-12


def test_infsup_on_coercive_toy_system():
    # energy matrix measured in its own norm has inf-sup constant one
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    system = assemble_strong_system(mesh, V, MaterialParams(1.0, 0.5),
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
    assert incompressible_infsup(mesh, V, Q, pars) == pytest.approx(
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
    assert compressible_infsup(mesh, V, cpars) == pytest.approx(
        oracle, rel=1e-10)

    ipars = MaterialParams(1.0, 0.0, gamma=0.1)
    A = _mixed_operator(V, Q, ipars, mesh.side_tags)
    N = triple_norm_gram_incompressible(V, Q, ipars)
    oracle = _dense_infsup(A[:-1, :-1], N[:-1, :-1])
    assert incompressible_infsup(mesh, V, Q, ipars) == pytest.approx(
        oracle, rel=1e-10)

    E = assemble_elasticity_stiffness(V, MaterialParams(mu=0.5))
    H = _vector_gram(V, "mass") + _vector_gram(V, "grad")
    ev = sla.eigh((E + side_mean_gram(V)).toarray(), H.toarray(),
                  eigvals_only=True, subset_by_index=[0, 0])
    assert discrete_korn_constant(mesh, V) == pytest.approx(
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
    exact, f, g = manufactured_compressible(pars)
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
    from elastweak.experiments import manufactured_incompressible
    from elastweak.incompressible import assemble_incompressible_system
    from elastweak.norms import galerkin_orthogonality_residual_mixed
    from elastweak.solvers import lu_solve
    pars = MaterialParams(1.0, gamma=0.1)
    eu, ep, f, g = manufactured_incompressible(pars)
    mesh = build_unit_square_mesh(4)
    V, Q = FESpace(mesh, 1, 2), FESpace(mesh, 1, 1)
    # the data terms of the solve must be integrated at the checking degree,
    # otherwise the residual only measures the quadrature gap
    mixed = assemble_incompressible_system(mesh, V, Q, pars, f, g,
                                           rhs_degree=16, flux_degree=16)
    x, _ = lu_solve(mixed.system.matrix, mixed.system.rhs)
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
    from elastweak.incompressible import _stab_h, _stabilized_load
    from elastweak.spaces import cell_chunks

    mesh = build_unit_square_mesh(23)      # 1058 cells: no multiple of a block
    assert len(list(cell_chunks(mesh))) > 1
    params = MaterialParams(1.0, 2.0, gamma=0.1)
    exact, f, _ = manufactured_compressible(params)
    exact_u, exact_p, f_mixed, _ = manufactured_incompressible(params)
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
                _stabilized_load(Q, params, f_mixed, _stab_h(mesh), 10))

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
