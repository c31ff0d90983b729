"""Reference computations that only the tests need: the mesh's edge list,
point evaluation of a discrete field, integration of a pointwise function,
the mixed operator as a sum of zero-padded parts and analytic test fields
written as a value and a gradient."""

import numpy as np
import scipy.sparse as sp

from elastweak.compressible import (MaterialParams, assemble_boundary_flux,
                                    assemble_elasticity_stiffness)
from elastweak.incompressible import (assemble_divergence,
                                      assemble_mixed_boundary_flux,
                                      assemble_pressure_mass,
                                      assemble_pressure_stabilization)
from elastweak.spaces import AnalyticField, FESpace, basis_values, cell_chunks


def unique_edges(mesh):
    """All mesh edges as sorted vertex pairs, lexicographically ordered."""
    t = mesh.triangles
    pairs = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]),
                    axis=1)
    return np.unique(pairs, axis=0)


def field_with_gradient(value, gradient):
    """A vector AnalyticField whose jet joins a value and a gradient
    written as two functions."""
    return AnalyticField.vector(
        value, lambda x, y: (value(x, y), gradient(x, y)))


def eval_in_cells(field, cells, points):
    """Values of a DiscreteField at physical points known to lie in the
    given cells."""
    cells = np.asarray(cells, dtype=np.int64)
    space, mesh = field.space, field.space.mesh
    _, Jinv, _ = space.geometry()
    a = mesh.vertices[mesh.triangles[cells, 0]]
    ref = np.einsum("pab,pb->pa", Jinv[cells],
                    np.asarray(points, dtype=float) - a)
    N, _ = basis_values(space.order, ref)
    coef = field.cell_coefficients(cells)
    if space.components == 1:
        return np.einsum("pi,pi->p", N, coef)
    return np.einsum("pi,pic->pc", N, coef)


def integrate_field(mesh, fn, quadrature_degree=10):
    """Integral over the mesh of a pointwise function (x, y) -> scalar."""
    tab = FESpace(mesh, 1, 1).interior_tables(quadrature_degree)
    total = 0.0
    for cells in cell_chunks(mesh):
        x = tab.physical_points(cells)
        total += float(np.sum(tab.wdet[cells] * fn(x[..., 0], x[..., 1])))
    return total


def padded_mixed_operator(vspace, pspace, params, flux_sides,
                          nearly_lambda=None):
    """The mixed operator as a sum of full-size zero-padded parts, in the
    order volume, stabilization, boundary flux, then pressure mass: the
    reference that the one block matrix of incompressible._mixed_operator
    must equal bit for bit."""
    nU, nP = vspace.dof_count, pspace.dof_count
    mu_only = MaterialParams(params.mu)
    zero_vv = sp.csr_matrix((nU, nU))
    K = assemble_elasticity_stiffness(vspace, mu_only)
    D = assemble_divergence(vspace, pspace)
    Squ, Spp = assemble_pressure_stabilization(vspace, pspace, params)
    A = sp.bmat([[K, -D.T], [D, None]], format="csr")
    A = A + sp.bmat([[zero_vv, None], [Squ, Spp]], format="csr")
    if flux_sides:
        Bvv = assemble_boundary_flux(vspace, mu_only, flux_sides)
        Bvp = assemble_mixed_boundary_flux(vspace, pspace, flux_sides)
        A = A + sp.bmat([[-Bvv + Bvv.T, Bvp], [-Bvp.T, None]], format="csr")
    if nearly_lambda is not None:
        M = (1.0 / nearly_lambda) * assemble_pressure_mass(pspace)
        A = A + sp.bmat([[zero_vv, None], [None, M]], format="csr")
    A.sort_indices()
    return A


def assert_same_csr(A, B):
    """A and B store the same entries with the same bits, in the same
    order."""
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))
