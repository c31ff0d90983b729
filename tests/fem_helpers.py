"""Reference computations that only the tests need: the mesh's edge list,
point evaluation of a discrete field and integration of a pointwise
function."""

import numpy as np

from elastweak.spaces import FESpace, basis_values, cell_chunks


def unique_edges(mesh):
    """All mesh edges as sorted vertex pairs, lexicographically ordered."""
    t = mesh.triangles
    pairs = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]),
                    axis=1)
    return np.unique(pairs, axis=0)


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
