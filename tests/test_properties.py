"""Property tests on unit-square and Cook-membrane meshes whose interior
vertices are randomly perturbed, so that the cells are general affine
triangles rather than the builders' structured ones."""

import dataclasses

import numpy as np
import pytest
from fem_helpers import field_with_gradient, unique_edges
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import galerkin_orthogonality_residual, rigid_motion_basis

from elastweak.compressible import (MaterialParams, _stress, _weak_operator,
                                    assemble_boundary_flux,
                                    assemble_elasticity_stiffness)
from elastweak.experiments import solve_compressible
from elastweak.incompressible import (_mixed_operator,
                                      assemble_pressure_stabilization)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.quadrature import triangle_rule
from elastweak.spaces import AnalyticField, FESpace, basis_values, interpolate

PARAMS = MaterialParams(1.3, 2.7)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=15)


@st.composite
def perturbed_squares(draw):
    """Moves of at most h/10 per coordinate keep every cell counterclockwise:
    twice the area of a cell with legs h changes by at most 0.68 h^2."""
    n = draw(st.integers(2, 4))
    mesh = build_unit_square_mesh(n)
    v = mesh.vertices.copy()
    inner = np.flatnonzero(np.all((v > 0.0) & (v < 1.0), axis=1))
    shift = draw(arrays(np.float64, (len(inner), 2),
                        elements=st.floats(-0.1, 0.1)))
    v[inner] += shift / n
    mesh = dataclasses.replace(mesh, vertices=v)
    assert mesh.triangle_areas().min() > 0.0
    return mesh


@st.composite
def perturbed_cooks(draw):
    """Cook membranes whose interior vertices move by at most a tenth of
    their shortest incident edge (at most 0.07 of it per coordinate)."""
    mesh = build_cook_mesh(draw(st.integers(2, 4)))
    v = mesh.vertices.copy()
    inner = np.setdiff1d(np.arange(len(v)), mesh.edge_vertices)
    edges = unique_edges(mesh)
    length = np.linalg.norm(v[edges[:, 0]] - v[edges[:, 1]], axis=1)
    shortest = np.full(len(v), np.inf)
    np.minimum.at(shortest, edges.ravel(), np.repeat(length, 2))
    shift = draw(arrays(np.float64, (len(inner), 2),
                        elements=st.floats(-0.07, 0.07)))
    v[inner] += shift * shortest[inner, None]
    mesh = dataclasses.replace(mesh, vertices=v)
    assert mesh.triangle_areas().min() > 0.0
    return mesh


# the Cook membrane's Dirichlet side; the tractions of the linear field
# load the other three
COOK_SIDES = ("CD",)
G = np.array([[0.7, -1.1], [0.4, 1.9]])


def _linear_field():

    def value(x, y):
        return np.stack([0.3 + G[0, 0] * x + G[0, 1] * y,
                         -0.5 + G[1, 0] * x + G[1, 1] * y], axis=-1)

    def gradient(x, y):
        return np.broadcast_to(G, np.shape(x) + (2, 2)).copy()

    return field_with_gradient(value, gradient)


def _neumann_tractions(mesh, sides):
    """{side: constant traction sigma(G) . n} of the linear field on the
    straight sides not in sides."""
    sigma = _stress(PARAMS, G)
    return {tag: AnalyticField.constant_vector(
                *(sigma @ mesh.edge_normal[mesh.edge_tag == i][0]))
            for i, tag in enumerate(mesh.side_tags) if tag not in sides}


def _check_flux_antisymmetry(order, mesh):
    V = FESpace(mesh, order, 2)
    S = (_weak_operator(V, PARAMS, None)
         - assemble_elasticity_stiffness(V, PARAMS)).toarray()
    assert np.abs(S + S.T).max() <= 1e-14 * np.abs(S).max()


def _check_rigid_motions(order, mesh):
    V = FESpace(mesh, order, 2)
    B = assemble_boundary_flux(V, PARAMS)
    scale = np.abs(B).max()
    for motion in rigid_motion_basis(mesh):
        r = interpolate(V, motion).coefficients
        assert np.abs(B @ r).max() <= 1e-14 * scale * np.abs(r).max()


def _check_galerkin_residual(order, mesh, sides=None):
    V = FESpace(mesh, order, 2)
    exact = _linear_field()
    assert galerkin_orthogonality_residual(
        mesh, V, PARAMS, exact, interpolate(V, exact), sides) <= 1e-14


def _check_patch_test(order, bc_mode, mesh, sides=None):
    # a linear displacement has zero body force, so both boundary treatments
    # must return its interpolant on any affine triangulation
    exact = _linear_field()
    zero = AnalyticField.constant_vector(0.0, 0.0)
    neumann = _neumann_tractions(mesh, sides) if sides else None
    u_h, _ = solve_compressible(mesh, order, PARAMS, zero, exact, bc_mode,
                                sides, neumann)
    ref = interpolate(u_h.space, exact).coefficients
    assert (np.linalg.norm(u_h.coefficients - ref)
            <= 1e-10 * np.linalg.norm(ref))


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_weak_operator_boundary_part_is_antisymmetric(order, mesh):
    _check_flux_antisymmetry(order, mesh)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_boundary_flux_annihilates_rigid_motions(order, mesh):
    _check_rigid_motions(order, mesh)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_galerkin_residual_vanishes_for_linear_fields(order, mesh):
    _check_galerkin_residual(order, mesh)


@pytest.mark.parametrize("bc_mode", ["weak", "strong"])
@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_patch_test_reproduces_linear_fields(order, bc_mode, mesh):
    _check_patch_test(order, bc_mode, mesh)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_cooks())
def test_weak_operator_boundary_part_is_antisymmetric_on_cook(order, mesh):
    _check_flux_antisymmetry(order, mesh)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_cooks())
def test_boundary_flux_annihilates_rigid_motions_on_cook(order, mesh):
    _check_rigid_motions(order, mesh)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_cooks())
def test_galerkin_residual_vanishes_for_linear_fields_on_cook(order, mesh):
    _check_galerkin_residual(order, mesh, COOK_SIDES)


@pytest.mark.parametrize("bc_mode", ["weak", "strong"])
@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_cooks())
def test_patch_test_reproduces_linear_fields_on_cook(order, bc_mode, mesh):
    # Dirichlet data on CD, the linear field's tractions on the other sides
    _check_patch_test(order, bc_mode, mesh, COOK_SIDES)


@pytest.mark.parametrize("family", ["square", "cook"])
@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(data=st.data())
def test_mixed_flux_part_is_antisymmetric(order, family, data):
    # what the flux on the Dirichlet sides adds to the mixed operator
    mesh = data.draw(perturbed_squares() if family == "square"
                     else perturbed_cooks())
    sides = mesh.side_tags if family == "square" else COOK_SIDES
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    pars = MaterialParams(1.3, gamma=0.7)
    S = (_mixed_operator(V, Q, pars, sides)
         - _mixed_operator(V, Q, pars, ())).toarray()
    assert np.abs(S + S.T).max() <= 1e-14 * np.abs(S).max()


# A quadratic velocity q and its constant Hessians, _HESS[c, a, b] =
# d_a d_b q_c.
_QUAD = np.array([[0.3, 1.0, -2.0, 1.5, -0.7, 0.4],
                  [-0.2, 0.5, 1.0, -0.6, 1.1, 0.9]])   # 1, x, y, x^2, xy, y^2
_HESS = np.array([[[2 * c[3], c[4]], [c[4], 2 * c[5]]] for c in _QUAD])


def _quadratic_field():
    def value(x, y):
        monomials = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y],
                             axis=-1)
        return monomials @ _QUAD.T

    return AnalyticField.vector(value)


def _velocity_residual_moments(mesh, Q, gamma, mu):
    """(gamma/mu) sum_K h_K^2 int_K (-2 mu div eps(q)) . grad psi_i from the
    analytic Hessians of q, by quadrature on each cell.

    -2 mu div eps(q) has component a equal to -mu sum_b (d_b d_b q_a
    + d_a d_b q_b)."""
    residual = -mu * (np.einsum("abb->a", _HESS) + np.einsum("bab->a", _HESS))
    rule = triangle_rule(2)
    _, dN = basis_values(Q.order, rule.points)
    p = mesh.triangle_corners()
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    Jinv = np.linalg.inv(J)
    # physical gradients grad psi_i = Jinv^T grad_ref psi_i at each point
    grads = np.einsum("qip,cpa->cqia", dN, Jinv)
    hK = mesh.triangle_diameters()
    weight = (gamma / mu) * hK ** 2 * np.abs(np.linalg.det(J))
    local = np.einsum("c,q,cqia,a->ci", weight, rule.weights, grads, residual)
    out = np.zeros(Q.dof_count)
    np.add.at(out, Q.cell_dofs.ravel(), local.ravel())
    return out


def _check_velocity_coupling(mesh):
    pars = MaterialParams(1.3, gamma=0.7)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    Squ, _ = assemble_pressure_stabilization(V, Q, pars)
    got = Squ @ interpolate(V, _quadratic_field()).coefficients
    ref = _velocity_residual_moments(mesh, Q, pars.gamma, pars.mu)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY
@given(mesh=perturbed_squares())
def test_p2_stabilization_velocity_coupling(mesh):
    _check_velocity_coupling(mesh)


def test_p2_stabilization_velocity_coupling_on_cook():
    _check_velocity_coupling(build_cook_mesh(3))
