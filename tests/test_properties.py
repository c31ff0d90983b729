"""Property tests on unit-square meshes whose interior vertices are randomly
perturbed, so that the cells are general affine triangles rather than the
builder's right-angled ones."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastweak.compressible import (MaterialParams, _weak_operator,
                                    assemble_boundary_flux,
                                    assemble_elasticity_stiffness)
from elastweak.mesh import build_unit_square_mesh
from elastweak.norms import galerkin_orthogonality_residual, rigid_motion_basis
from elastweak.spaces import AnalyticField, FESpace, interpolate

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


def _linear_field():
    G = np.array([[0.7, -1.1], [0.4, 1.9]])

    def value(x, y):
        return np.stack([0.3 + G[0, 0] * x + G[0, 1] * y,
                         -0.5 + G[1, 0] * x + G[1, 1] * y], axis=-1)

    def gradient(x, y):
        return np.broadcast_to(G, np.shape(x) + (2, 2)).copy()

    return AnalyticField.vector(value, gradient)


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_weak_operator_boundary_part_is_antisymmetric(order, mesh):
    V = FESpace(mesh, order, 2)
    S = (_weak_operator(V, PARAMS, None)
         - assemble_elasticity_stiffness(V, PARAMS)).toarray()
    assert np.abs(S + S.T).max() <= 1e-14 * np.abs(S).max()


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_boundary_flux_annihilates_rigid_motions(order, mesh):
    V = FESpace(mesh, order, 2)
    B = assemble_boundary_flux(V, PARAMS)
    scale = np.abs(B).max()
    for motion in rigid_motion_basis(mesh):
        r = interpolate(V, motion).coefficients
        assert np.abs(B @ r).max() <= 1e-14 * scale * np.abs(r).max()


@pytest.mark.parametrize("order", [1, 2])
@PROPERTY
@given(mesh=perturbed_squares())
def test_galerkin_residual_vanishes_for_linear_fields(order, mesh):
    V = FESpace(mesh, order, 2)
    exact = _linear_field()
    assert galerkin_orthogonality_residual(
        mesh, V, PARAMS, exact, interpolate(V, exact)) <= 1e-14
