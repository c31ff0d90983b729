"""Reference checks of the discretisation that only the tests run: Galerkin
orthogonality residuals, pointwise triple norms, the side-mean boundary
seminorm and the rigid-motion Gram behind the Korn assumption.

The norms evaluate analytic fields (with an explicit mesh) as well as
discrete ones, at any quadrature degree, with their own pointwise
integration, so that they check `elastweak.norms` rather than repeat it.
"""

import numpy as np
import scipy.linalg as sla

from elastweak.compressible import (MaterialParams, _dirichlet_sides,
                                    _per_cell, _scatter_vector, _stress,
                                    _weak_operator, assemble_flux_load)
from elastweak.incompressible import (_mixed_load, _mixed_operator,
                                      _pressure_flux_load)
from elastweak.norms import ERROR_DEGREE, SIDE_MEAN_DEGREE
from elastweak.spaces import AnalyticField, DiscreteField, FESpace, cell_chunks

# -- pointwise field evaluation -----------------------------------------------


def _tabulation_space(field, mesh):
    """The field's own space, or a throwaway P1 space for analytic input."""
    if isinstance(field, DiscreteField):
        return field.space
    if mesh is None:
        raise ValueError("analytic fields need an explicit mesh")
    return FESpace(mesh, 1, 1)


def _discrete_tables(field, tab, cells):
    """Values (m, nq[, 2]) and gradients (m, nq[, 2], 2) at the cells'
    points, each one matrix product with the reference tables: the values
    from the cell coefficients, the gradients from the coefficients folded
    with Jinv, G[m, c, a, i, p] = coef[m, i, c] Jinv[m, p, a]."""
    coef = field.cell_coefficients(cells)
    vals = np.moveaxis(np.tensordot(coef, tab.N, axes=(1, 1)), -1, 1)
    c = np.swapaxes(coef.reshape(coef.shape[:2] + (-1,)), 1, 2)    # (m, c, i)
    Jt = np.swapaxes(tab.Jinv[cells], 1, 2)                         # (m, a, p)
    G = c[:, :, None, :, None] * Jt[:, None, :, None, :]      # (m, c, a, i, p)
    nq, nsb, _ = tab.dN_ref.shape
    grads = G.reshape(-1, 2 * nsb) @ tab.dN_ref.reshape(nq, -1).T
    return vals, np.moveaxis(grads.reshape(coef.shape[:1] + coef.shape[2:]
                                           + (2, nq)), -1, 1)


def _gradients(field, tab, cells):
    """Gradients of the field at the cells' quadrature points."""
    if isinstance(field, DiscreteField):
        return _discrete_tables(field, tab, cells)[1]
    x = tab.physical_points(cells)
    return field.jet(x[..., 0], x[..., 1])[1]


def _boundary_values(field, bt):
    """Values (e, q, 2) of a vector field at the boundary tables' points."""
    if isinstance(field, DiscreteField):
        coef = field.coefficients[bt.cell_dofs]
        return np.einsum("eqi,eic->eqc", bt.N,
                         coef.reshape(coef.shape[0], -1, 2))
    return field.value(bt.x[..., 0], bt.x[..., 1])


# -- triple norms -------------------------------------------------------------


def _vector_parts(field, degree, mesh):
    """Squared (gradient, divergence, h^-1/2 trace, h^-1/2 normal trace)
    norms of a vector field."""
    space = _tabulation_space(field, mesh)
    tab = space.interior_tables(degree)
    grad_sq = div_sq = 0.0
    for cells in cell_chunks(space.mesh):
        g = _gradients(field, tab, cells)
        w = tab.wdet[cells]
        grad_sq += float(np.einsum("cq,cqea->", w, g ** 2))
        div_sq += float(np.sum(w * (g[..., 0, 0] + g[..., 1, 1]) ** 2))
    bt = space.boundary_tables(degree)
    vals = _boundary_values(field, bt)
    winv = bt.w / bt.h_owner[:, None]
    trace_sq = float(np.einsum("eq,eqa->", winv, vals ** 2))
    vn = np.einsum("eqa,ea->eq", vals, bt.normal)
    return grad_sq, div_sq, trace_sq, float(np.sum(winv * vn ** 2))


def _pressure_h2_grad_sq(field, degree, mesh):
    """Squared h-weighted gradient norm of a scalar field."""
    space = _tabulation_space(field, mesh)
    tab = space.interior_tables(degree)
    hK = space.mesh.triangle_diameters()
    total = 0.0
    for cells in cell_chunks(space.mesh):
        g = _gradients(field, tab, cells)
        total += float(np.einsum(
            "cq,cqa->", tab.wdet[cells] * (hK[cells] ** 2)[:, None], g ** 2))
    return total


def triple_norm_compressible(field, params, degree=ERROR_DEGREE, mesh=None):
    """mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + lam(|div w|^2 + |h^-1/2 w.n|^2_bnd)."""
    g2, d2, t2, n2 = _vector_parts(field, degree, mesh)
    return float(np.sqrt(params.mu * (g2 + t2) + params.lam * (d2 + n2)))


def triple_norm_incompressible(vfield, pfield, params, degree=ERROR_DEGREE,
                               mesh=None):
    """mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + (1/mu)|h grad rho|^2."""
    g2, _, t2, _ = _vector_parts(vfield, degree, mesh)
    rho2 = _pressure_h2_grad_sq(pfield, degree, mesh)
    return float(np.sqrt(params.mu * (g2 + t2) + rho2 / params.mu))


# -- boundary seminorm and rigid motions --------------------------------------


def _side_means(mesh, field, degree=SIDE_MEAN_DEGREE):
    """Componentwise mean of a vector field over each whole polygon side."""
    bt = _tabulation_space(field, mesh).boundary_tables(degree)
    vals = _boundary_values(field, bt)
    tags = mesh.edge_tag[bt.edge_ids]
    means = np.zeros((len(mesh.side_tags), 2))
    lengths = np.zeros(len(mesh.side_tags))
    for t in range(len(mesh.side_tags)):
        sel = tags == t
        lengths[t] = bt.w[sel].sum()
        means[t] = np.einsum("eq,eqa->a", bt.w[sel], vals[sel]) / lengths[t]
    return means, lengths


def korn_boundary_seminorm(mesh, field, degree=SIDE_MEAN_DEGREE):
    """sqrt of sum over sides of |side mean of the field|^2 * side length."""
    means, lengths = _side_means(mesh, field, degree)
    return float(np.sqrt(np.sum(lengths * np.einsum("ia,ia->i", means, means))))


def rigid_motion_basis(mesh):
    """Two translations and the rotation about the domain centroid."""
    cx, cy = mesh.centroid()

    def rot(x, y):
        return np.stack([y - cy, -(x - cx)], axis=-1)

    return (AnalyticField.constant_vector(1.0, 0.0),
            AnalyticField.constant_vector(0.0, 1.0),
            AnalyticField.vector(rot))


def rigid_motion_gram(mesh, degree=SIDE_MEAN_DEGREE):
    """Gram of the rigid-motion basis in the side-mean inner product.

    Returns (3x3 Gram matrix, smallest eigenvalue); a positive eigenvalue
    certifies that the boundary seminorm is a norm on rigid motions.
    """
    parts = [_side_means(mesh, b, degree) for b in rigid_motion_basis(mesh)]
    lengths = parts[0][1]
    # M[a, t, c]: mean over side t of component c of rigid motion a
    M = np.stack([means for means, _ in parts])
    G = np.einsum("t,atc,btc->ab", lengths, M, M)
    return G, float(sla.eigvalsh(G)[0])


# -- Galerkin orthogonality ---------------------------------------------------


def _exact_value(field, x):
    """Values of an analytic field at points x, or 0.0 for no field."""
    return 0.0 if field is None else field.value(x[..., 0], x[..., 1])


def _exact_volume_rows(space, params, exact_u, degree, exact_p=None):
    """Rows of (sigma(u, p), grad v) for exact u and p (p = 0 if None)."""
    tab = space.interior_tables(degree)

    def local(cells):
        x = tab.physical_points(cells)
        _, ge = exact_u.jet(x[..., 0], x[..., 1])
        return tab.gradient_moments(
            cells, _stress(params, ge, _exact_value(exact_p, x)))

    return _scatter_vector(space.cell_dofs, _per_cell(space.mesh, local),
                           space.dof_count)


def _exact_flux_rows(space, params, exact_u, side_tags, degree, exact_p=None):
    """Rows of <sigma(u, p) . n, v> for exact u and p (p = 0 if None)."""
    bt = space.boundary_tables(degree, side_tags)
    _, ge = exact_u.jet(bt.x[..., 0], bt.x[..., 1])
    traction = np.einsum("eqca,ea->eqc",
                         _stress(params, ge, _exact_value(exact_p, bt.x)),
                         bt.normal)
    loc = np.einsum("eq,eqc,eqi->eic", bt.w, traction, bt.N)
    return _scatter_vector(bt.cell_dofs, loc, space.dof_count)


def _scaled_max(residual, matrix, x):
    row_norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = row_norms[:len(residual)] * max(np.linalg.norm(x), 1.0) + 1e-300
    return float(np.max(np.abs(residual) / scale))


def galerkin_orthogonality_residual(mesh, space, params, exact_u, u_h,
                                    dirichlet_sides=None, degree=ERROR_DEGREE):
    """max_i |A_h(u - u_h, v_i)| scaled by matrix row norms.

    A_h(u, v_i) is evaluated with high-order quadrature from the exact
    derivatives; A_h(u_h, v_i) from the assembled matrix.
    dirichlet_sides=None selects every side, () none.
    """
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    A = _weak_operator(space, params, sides)
    exact_rows = (_exact_volume_rows(space, params, exact_u, degree)
                  - _exact_flux_rows(space, params, exact_u, sides, degree)
                  + assemble_flux_load(space, params, exact_u, sides, degree))
    x = u_h.coefficients if isinstance(u_h, DiscreteField) else np.asarray(u_h)
    r = exact_rows - A @ x
    return _scaled_max(r, A, x)


def galerkin_orthogonality_residual_mixed(mesh, vspace, pspace, params,
                                          exact_u, exact_p, f, solution,
                                          dirichlet_sides=None,
                                          degree=ERROR_DEGREE):
    """Mixed-form orthogonality residual for the incompressible system.

    The exact rows insert (u, p) into the volume, boundary and stabilization
    terms; the element residual inside the stabilization reduces to f for
    the exact solution.  `solution` is the full solved vector, multiplier
    included.
    """
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    # the weak system's matrix: bordered by the pressure mean when the
    # Dirichlet data covers the whole boundary
    A = _mixed_operator(vspace, pspace, params, sides,
                        mean=set(sides) == set(mesh.side_tags))
    x = np.asarray(solution, dtype=float)
    if x.shape != (A.shape[0],):
        raise ValueError("solution length does not match the system")
    mu_only = MaterialParams(params.mu)

    # velocity-test rows: (sigma(u, p), grad v) - <sigma(u, p) . n, v>
    # + the flux of the test function against the exact trace
    vel = (_exact_volume_rows(vspace, mu_only, exact_u, degree, exact_p)
           - _exact_flux_rows(vspace, mu_only, exact_u, sides, degree,
                              exact_p)
           + assemble_flux_load(vspace, mu_only, exact_u, sides, degree))

    # pressure-test rows: (div u, q) - <q n, u> + stabilization with f
    ptab = pspace.interior_tables(degree)

    def velocity_div(cells):
        xq = ptab.physical_points(cells)
        _, ge = exact_u.jet(xq[..., 0], xq[..., 1])
        div = ge[..., 0, 0] + ge[..., 1, 1]
        return np.einsum("cq,qi->ci", ptab.wdet[cells] * div, ptab.N)

    prs = (_scatter_vector(pspace.cell_dofs,
                           _per_cell(pspace.mesh, velocity_div),
                           pspace.dof_count)
           + _pressure_flux_load(pspace, exact_u, sides, degree)
           + _mixed_load(vspace, pspace, params, f,
                         degree)[vspace.dof_count:])

    n = vspace.dof_count + pspace.dof_count
    r = np.concatenate([vel, prs]) - (A @ x)[:n]
    return _scaled_max(r, A, x)
