import math

import numpy as np
import pytest
import scipy.linalg as sla
from fem_helpers import field_with_gradient
from oracles import (_exact_flux_rows, _exact_volume_rows,
                     galerkin_orthogonality_residual, triple_norm_compressible)

from elastweak.compressible import (MaterialParams, _stiffness_parts,
                                    assemble_boundary_flux,
                                    assemble_elasticity_stiffness,
                                    assemble_load, assemble_neumann_load,
                                    assemble_strong_system,
                                    assemble_weak_system,
                                    dirichlet_dofs_and_values)
from elastweak.mesh import Mesh, build_cook_mesh, build_unit_square_mesh
from elastweak.solvers import lu_solve
from elastweak.spaces import (AnalyticField, DiscreteField, FESpace,
                              cell_chunks, interpolate, reference_tensors)


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    s = 1.0 / math.sqrt(2.0)
    normals = np.array([[0.0, -1.0], [s, s], [-1.0, 0.0]])
    tangents = np.array([[1.0, 0.0], [-s, s], [0.0, -1.0]])
    return Mesh(vertices=verts, triangles=tris, edge_vertices=edges,
                edge_tag=np.array([0, 1, 2]), edge_normal=normals,
                edge_tangent=tangents, edge_owner=np.array([0, 0, 0]),
                side_tags=("bottom", "diag", "left"))


def field_x0():
    return field_with_gradient(
        lambda x, y: np.stack([x, 0 * y], axis=-1),
        lambda x, y: np.broadcast_to(
            np.array([[1.0, 0.0], [0.0, 0.0]]), np.shape(x) + (2, 2)).copy())


def rotation_field():
    return AnalyticField.vector(lambda x, y: np.stack([y, -x], axis=-1))


ZERO = AnalyticField.constant_vector(0.0, 0.0)


def test_reference_triangle_energy():
    V = FESpace(reference_triangle_mesh(), 1, 2)
    K = assemble_elasticity_stiffness(V, MaterialParams(1.0, 1.0))
    u = interpolate(V, field_x0()).coefficients
    assert u @ (K @ u) == pytest.approx(1.5, rel=1e-13)


def test_rigid_motions_have_zero_energy():
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    K = assemble_elasticity_stiffness(V, MaterialParams(1.0, 2.0))
    scale = np.abs(K.data).max()
    for field in (AnalyticField.constant_vector(1.0, 0.0),
                  AnalyticField.constant_vector(0.0, 1.0),
                  rotation_field()):
        r = interpolate(V, field).coefficients
        assert abs(r @ (K @ r)) <= 1e-10 * scale


def test_scalar_space_rejected():
    mesh = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        assemble_elasticity_stiffness(FESpace(mesh, 1, 1), MaterialParams(1.0))


def test_volume_matrix_has_three_rigid_modes():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    K = assemble_elasticity_stiffness(V, MaterialParams(1.0, 1.0)).toarray()
    ev = np.sort(np.abs(sla.eigvalsh(K)))
    assert ev[2] <= 1e-10 * ev[-1]
    assert ev[3] > 1e-6 * ev[-1]


def test_boundary_flux_hand_values():
    mesh = build_unit_square_mesh(1)
    V = FESpace(mesh, 1, 2)
    pars = MaterialParams(1.0, 1.0)
    u = interpolate(V, field_x0()).coefficients
    v = interpolate(V, AnalyticField.constant_vector(1.0, 0.0)).coefficients
    B_right = assemble_boundary_flux(V, pars, side_tags=("right",))
    assert v @ (B_right @ u) == pytest.approx(3.0, rel=1e-13)
    B_bottom = assemble_boundary_flux(V, pars, side_tags=("bottom",))
    assert v @ (B_bottom @ u) == pytest.approx(0.0, abs=1e-14)


def test_flux_of_constant_field_vanishes():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    B = assemble_boundary_flux(V, MaterialParams(2.0, 3.0))
    c = interpolate(V, AnalyticField.constant_vector(0.7, -1.2)).coefficients
    assert np.abs(B @ c).max() < 1e-13


def test_unknown_side_tag_raises():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    with pytest.raises(KeyError):
        assemble_boundary_flux(V, MaterialParams(1.0), side_tags=("north",))
    with pytest.raises(KeyError):
        assemble_neumann_load(V, "north", ZERO)


def test_weak_system_antisymmetric_boundary_part():
    mesh = build_unit_square_mesh(4)
    V = FESpace(mesh, 1, 2)
    pars = MaterialParams(1.0, 1.0)
    system = assemble_weak_system(V, pars, ZERO, ZERO)
    K = assemble_elasticity_stiffness(V, pars)
    S = (system.matrix - K).toarray()
    assert np.abs(S + S.T).max() < 1e-12


def test_weak_system_zero_data_zero_solution():
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 2, 2)
    system = assemble_weak_system(V, MaterialParams(1.0, 1.0), ZERO, ZERO)
    x, report = lu_solve(system.matrix, system.rhs)
    assert np.abs(x).max() == 0.0
    assert report.residual_norm == 0.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_weak_matrix_nonsingular(n):
    mesh = build_unit_square_mesh(n)
    V = FESpace(mesh, 1, 2)
    system = assemble_weak_system(V, MaterialParams(1.0, 1.0), ZERO, ZERO)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(system.dof_count)
    x, report = lu_solve(system.matrix, b)
    assert report.residual_norm <= 1e-9


def linear_field():
    G = np.array([[0.7, -0.2], [0.4, 0.9]])

    def val(x, y):
        return np.stack([0.3 + 0.7 * x - 0.2 * y, -0.1 + 0.4 * x + 0.9 * y],
                        axis=-1)

    def grad(x, y):
        return np.broadcast_to(G, np.shape(x) + (2, 2)).copy()

    return field_with_gradient(val, grad)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_patch_test_linear_reproduction(order, mode, lam=3.7):
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, order, 2)
    pars = MaterialParams(mu=2.1, lam=lam)
    lin = linear_field()
    if mode == "strong":
        system = assemble_strong_system(V, pars, ZERO, lin)
    else:
        system = assemble_weak_system(V, pars, ZERO, lin)
    x, _ = lu_solve(system.matrix, system.rhs)
    exact = interpolate(V, lin).coefficients
    assert np.abs(x - exact).max() <= 1e-10


def test_strong_system_fixes_boundary_values():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    system = assemble_strong_system(V, MaterialParams(1.0), ZERO, ZERO)
    x, _ = lu_solve(system.matrix, system.rhs)
    # the unit-square boundary nodes, found by position
    pts = V.dof_points
    boundary = np.flatnonzero(((pts == 0.0) | (pts == 1.0)).any(axis=1))
    assert len(boundary) == 8
    assert np.abs(x[2 * boundary]).max() == 0.0
    assert np.abs(x[2 * boundary + 1]).max() == 0.0


def test_weak_and_strong_solutions_approach_each_other():
    from elastweak.experiments import manufactured_compressible
    pars = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(pars)
    exact, f, g = data.exact_u, data.f, data.g
    dists = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n)
        V = FESpace(mesh, 1, 2)
        sw = assemble_weak_system(V, pars, f, g)
        ss = assemble_strong_system(V, pars, f, g)
        xw, _ = lu_solve(sw.matrix, sw.rhs)
        xs, _ = lu_solve(ss.matrix, ss.rhs)
        diff = DiscreteField(V, xw - xs)
        dists.append(triple_norm_compressible(diff, pars))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.5 * dists[0]


def test_neumann_load_totals():
    mesh = build_cook_mesh(4)
    V = FESpace(mesh, 1, 2)
    traction = AnalyticField.constant_vector(0.0, 100.0)
    load = assemble_neumann_load(V, "AB", traction)
    ey = interpolate(V, AnalyticField.constant_vector(0.0, 1.0)).coefficients
    ex = interpolate(V, AnalyticField.constant_vector(1.0, 0.0)).coefficients
    assert ey @ load == pytest.approx(1600.0, rel=1e-12)
    assert ex @ load == pytest.approx(0.0, abs=1e-12)
    zero_load = assemble_neumann_load(V, "AB", ZERO)
    assert np.abs(zero_load).max() == 0.0



@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_neumann_loads_enter_every_row_but_the_dirichlet_ones(mode):
    # the loaded bottom side shares the corner (0, 0) with the Dirichlet
    # side left: strong rows there keep the nodal data, every other row
    # gains the traction load
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 2, 2)
    pars = MaterialParams(1.3, 2.0)
    traction = AnalyticField.constant_vector(1.5, -2.0)
    assemble = (assemble_weak_system if mode == "weak"
                else assemble_strong_system)
    plain = assemble(V, pars, ZERO, linear_field(), ("left",))
    loaded = assemble(V, pars, ZERO, linear_field(), ("left",),
                      neumann={"bottom": traction})
    load = assemble_neumann_load(V, "bottom", traction)
    free = np.ones(V.dof_count, dtype=bool)
    if mode == "strong":
        dofs, vals = dirichlet_dofs_and_values(V, linear_field(), ("left",))
        assert np.array_equal(loaded.rhs[dofs], vals)
        assert np.abs(load[dofs]).max() > 0.0
        free[dofs] = False
    assert (loaded.matrix != plain.matrix).nnz == 0
    assert np.abs(loaded.rhs[free] - plain.rhs[free] - load[free]).max() \
        <= 1e-13 * np.abs(load).max()


TRIG = AnalyticField.vector(lambda x, y: np.stack(
    [np.sin(3.0 * x) * np.cos(2.0 * y), np.exp(x) * np.sin(y)], axis=-1))


@pytest.mark.parametrize("order", [1, 2])
def test_data_integrals_default_to_degree_2k_plus_2(order):
    # the boundary data integrals default to the edge rule of the boundary
    # bilinear forms
    from elastweak.compressible import assemble_flux_load
    from elastweak.incompressible import _pressure_flux_load
    pars = MaterialParams(1.3, 2.7)
    mesh = build_cook_mesh(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    degree = 2 * order + 2
    assert V.form_degree == Q.form_degree == degree
    assert np.array_equal(assemble_flux_load(V, pars, TRIG),
                          assemble_flux_load(V, pars, TRIG, degree=degree))
    assert np.array_equal(assemble_neumann_load(V, "AB", TRIG),
                          assemble_neumann_load(V, "AB", TRIG, degree=degree))
    assert np.array_equal(_pressure_flux_load(Q, TRIG, None),
                          _pressure_flux_load(Q, TRIG, None, degree=degree))


def test_weak_system_consistency_with_exact_solution():
    # inserting the exact manufactured field into the discrete operator
    # reproduces the right-hand side at quadrature precision
    from elastweak.experiments import manufactured_compressible
    from elastweak.compressible import assemble_flux_load, assemble_load
    pars = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(pars)
    exact, f, g = data.exact_u, data.f, data.g
    mesh = build_unit_square_mesh(4)
    V = FESpace(mesh, 2, 2)
    sides = tuple(mesh.side_tags)
    lhs = (_exact_volume_rows(V, pars, exact, 16)
           - _exact_flux_rows(V, pars, exact, sides, 16)
           + assemble_flux_load(V, pars, exact, sides, 16))
    rhs = (assemble_load(V, f, 16)
           + assemble_flux_load(V, pars, g, sides, 16))
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(mu=0.0)
    with pytest.raises(ValueError):
        MaterialParams(mu=1.0, lam=-1.0)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: MaterialParams(mu=math.nan), id="mu-nan"),
    pytest.param(lambda: MaterialParams(mu=math.inf), id="mu-inf"),
    pytest.param(lambda: MaterialParams(mu=1.0, lam=math.nan), id="lam-nan"),
    pytest.param(lambda: MaterialParams(mu=1.0, lam=math.inf), id="lam-inf"),
    pytest.param(lambda: MaterialParams(mu=1.0, gamma=math.nan),
                 id="gamma-nan"),
    pytest.param(lambda: MaterialParams(mu=1.0, gamma=-math.inf),
                 id="gamma-inf"),
    pytest.param(lambda: MaterialParams.from_young_poisson(None, 0.3),
                 id="young-missing"),
    pytest.param(lambda: MaterialParams.from_young_poisson(1e5, None),
                 id="poisson-missing"),
    pytest.param(lambda: MaterialParams.from_young_poisson(math.nan, 0.3),
                 id="young-nan"),
    pytest.param(lambda: MaterialParams.from_young_poisson(1e5, math.inf),
                 id="poisson-inf"),
    pytest.param(lambda: MaterialParams.from_young_poisson(1e5, 0.5),
                 id="poisson-half"),
    pytest.param(lambda: MaterialParams.from_young_poisson(1e5, -1.0),
                 id="poisson-minus-one"),
    pytest.param(lambda: MaterialParams.from_young_poisson(1e5, 0.7),
                 id="poisson-above-half"),
])
def test_material_params_reject_bad_inputs(make):
    with pytest.raises(ValueError):
        make()


def test_empty_dirichlet_sides_select_no_side():
    from fem_helpers import assert_same_csr, padded_mixed_operator

    from elastweak.incompressible import assemble_incompressible_system
    mesh = build_unit_square_mesh(3)
    V, Q = FESpace(mesh, 1, 2), FESpace(mesh, 1, 1)
    pars = MaterialParams(1.0, 2.0, gamma=0.1)
    g = AnalyticField.constant_vector(0.3, -0.2)
    K = assemble_elasticity_stiffness(V, pars)

    assert assemble_boundary_flux(V, pars, ()).nnz == 0
    # a repeated side is counted once
    assert_same_csr(assemble_boundary_flux(V, pars, ("left", "left")),
                    assemble_boundary_flux(V, pars, ("left",)))
    twice, once = (assemble_incompressible_system(V, Q, pars, g, g,
                                                  dirichlet_sides=sides)
                   for sides in (("left", "left"), ("left",)))
    assert_same_csr(twice.system.matrix, once.system.matrix)
    assert np.array_equal(twice.system.rhs, once.system.rhs)
    dofs, vals = dirichlet_dofs_and_values(V, g, ())
    assert len(dofs) == 0 and len(vals) == 0
    assert len(dirichlet_dofs_and_values(V, g, None)[0]) == 2 * 12

    weak = assemble_weak_system(V, pars, g, g, dirichlet_sides=())
    assert abs(weak.matrix - K).max() == 0.0
    assert np.array_equal(weak.rhs, assemble_load(V, g))
    strong = assemble_strong_system(V, pars, g, g, dirichlet_sides=())
    assert abs(strong.matrix - K).max() == 0.0

    # volume plus stabilization: no flux, and the pressure mean is not fixed
    core = padded_mixed_operator(V, Q, pars, ())
    for mode in ("weak", "strong"):
        mixed = assemble_incompressible_system(V, Q, pars, g, g,
                                               dirichlet_sides=(),
                                               bc_mode=mode)
        assert abs(mixed.system.matrix - core).max() == 0.0
        assert mixed.constraint_index is None

    # with no Dirichlet side the residual pairs only the volume form
    x = interpolate(V, field_x0()).coefficients
    rows = K @ x
    row_norms = np.sqrt(np.asarray(K.multiply(K).sum(axis=1)).ravel())
    expected = np.max(np.abs(rows) / row_norms)
    res = galerkin_orthogonality_residual(mesh, V, pars, field_x0(),
                                          np.zeros(V.dof_count),
                                          dirichlet_sides=())
    assert res == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("order", [1, 2])
def test_stiffness_blocks_match_searched_contraction(order):
    # n=23 has 1058 cells: two full 512-cell blocks and a 34-cell last one;
    # the one matrix product per block must give the bits of the einsum
    # d_a phi_i d_b phi_j = sum_pr Jinv[p, a] Jinv[r, b] d_p N_i d_r N_j
    # contracted along a freshly searched path
    space = FESpace(build_cook_mesh(23), order, 2)
    _, Jinv, detJ = space.geometry()
    for cells in cell_chunks(space.mesh):
        ref = np.einsum("c,ipjr,cpa,crb->ciajb", np.abs(detJ[cells]),
                        reference_tensors(order).grad_grad, Jinv[cells],
                        Jinv[cells], optimize=True)
        _, D = _stiffness_parts(space, cells)
        assert D.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_degree_10_loads_match_collapsed_rule(monkeypatch, order):
    # data of degree 10 - k makes the load integrands polynomials of degree
    # <= 10, which the symmetric and the collapsed rule both integrate exactly
    import elastweak.spaces as spaces
    from elastweak.incompressible import _mixed_load
    from elastweak.quadrature import _collapsed_rule

    mesh = build_cook_mesh(3)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    d = 10 - order
    f = AnalyticField.vector(lambda x, y: np.stack(
        [(x / 48) ** d - 2 * (y / 60) ** (d - 1) * (x / 48),
         (x / 48 + y / 60) ** d], axis=-1))
    params = MaterialParams(1.0, 2.0, gamma=0.1)

    def loads():
        mixed = _mixed_load(V, Q, params, f, 10)
        return (assemble_load(V, f, 10), mixed[:V.dof_count],
                mixed[V.dof_count:])

    symmetric = loads()
    assert V.interior_tables(10).rule.num_points == 25
    monkeypatch.setattr(spaces, "triangle_rule", _collapsed_rule)
    assert V.interior_tables(10).rule.num_points == 36
    for got, want in zip(symmetric, loads()):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
