import math

import numpy as np
import pytest

from elastweak.compressible import (MaterialParams,
                                    assemble_elasticity_stiffness,
                                    assemble_strong_system)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (discrete_infsup_constant, discrete_korn_constant,
                             error_norms, galerkin_orthogonality_residual,
                             korn_boundary_seminorm,
                             rigid_motion_gram, side_mean_gram,
                             triple_norm_compressible,
                             triple_norm_gram_compressible,
                             triple_norm_gram_incompressible,
                             triple_norm_incompressible, _vector_gram)
from elastweak.solvers import SizeCapError
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


def test_discrete_korn_constant_size_cap():
    mesh = build_unit_square_mesh(50)   # 5202 vector DOFs, above the cap
    V = FESpace(mesh, 1, 2)
    with pytest.raises(SizeCapError):
        discrete_korn_constant(mesh, V)


def test_infsup_on_coercive_toy_system():
    # energy matrix measured in its own norm has inf-sup constant one
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    zero = AnalyticField.constant_vector(0.0, 0.0)
    system = assemble_strong_system(mesh, V, MaterialParams(1.0, 0.5),
                                    zero, zero)
    A = system.matrix.toarray()
    assert discrete_infsup_constant(A, A) == pytest.approx(1.0, abs=1e-8)


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
