"""Reference checks of the discretisation that only the tests run: Galerkin
orthogonality residuals, pointwise triple norms, per-point error sums, the
side-mean boundary seminorm, the rigid-motion Gram behind the Korn
assumption, the compressible manufactured field as a product of
univariate factors, the point-blocked elimination order from the mesh
alone and the pressure-mean bordered solve of a mixed system.

The norms evaluate analytic fields (with an explicit mesh) as well as
discrete ones, at any quadrature degree, with their own pointwise
integration, so that they check `elastweak.norms` rather than repeat it.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from elastweak.compressible import (MaterialParams, _dirichlet_sides,
                                    _per_cell, _scatter_vector, _stress,
                                    _weak_operator, assemble_flux_load)
from elastweak.incompressible import (_mixed_load, _mixed_operator,
                                      _pressure_flux_load)
from elastweak.norms import ERROR_DEGREE, SIDE_MEAN_DEGREE
from elastweak.solvers import lu_solve
from elastweak.spaces import AnalyticField, DiscreteField, FESpace, cell_chunks

# -- the compressible manufactured field --------------------------------------


def compressible_field_reference(params):
    """(force, jet) of experiments.manufactured_compressible, each entry a
    product of univariate factors evaluated on its own: the force as
    -mu lap u - (mu + lam) grad div u, and the jet's value and gradient
    stacked component-last."""
    mu, lam = params.mu, params.lam
    A = lambda x: x * x * x * x * (x - 1)
    dA = lambda x: x * x * x * (5 * x - 4)
    d2A = lambda x: x * x * (20 * x - 12)
    B = lambda y: y * y * (y - 1)
    dB = lambda y: y * (3 * y - 2)
    d2B = lambda y: 6 * y - 2
    C = lambda x: x * x * x * (x - 1)
    dC = lambda x: x * x * (4 * x - 3)
    d2C = lambda x: x * (12 * x - 6)
    D = lambda y: y * y * y * y * y * (y - 1)
    dD = lambda y: y * y * y * y * (6 * y - 5)
    d2D = lambda y: y * y * y * (30 * y - 20)

    def force(x, y):
        lap1 = d2A(x) * B(y) + A(x) * d2B(y)
        lap2 = d2C(x) * D(y) + C(x) * d2D(y)
        ddiv_dx = d2A(x) * B(y) + dC(x) * dD(y)
        ddiv_dy = dA(x) * dB(y) + C(x) * d2D(y)
        f1 = -mu * lap1 - (mu + lam) * ddiv_dx
        f2 = -mu * lap2 - (mu + lam) * ddiv_dy
        return np.stack([f1, f2], axis=-1)

    def jet(x, y):
        value = np.stack([A(x) * B(y), C(x) * D(y)], axis=-1)
        gradient = np.stack([np.stack([dA(x) * B(y), A(x) * dB(y)], axis=-1),
                             np.stack([dC(x) * D(y), C(x) * dD(y)], axis=-1)],
                            axis=-2)
        return value, gradient

    return force, jet


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


# -- per-point error sums -----------------------------------------------------


def interior_error_parts(field, exact, degree=ERROR_DEGREE):
    """Squared (L2, gradient, divergence, h-weighted gradient) norms of
    field - exact over the field's mesh, one quadrature point at a time:
    the discrete values and gradients from the reference tables and Jinv of
    the cell, the exact ones from the analytic field's jet at the single
    point.  The divergence of a scalar field is 0."""
    space = field.space
    tab = space.interior_tables(degree)
    h2 = space.mesh.triangle_diameters() ** 2
    coef = field.cell_coefficients()
    x = tab.physical_points()
    parts = np.zeros(4)
    for c in range(space.mesh.num_triangles):
        for q in range(tab.rule.num_points):
            value = tab.N[q] @ coef[c]
            gradient = np.tensordot(coef[c], tab.dN_ref[q] @ tab.Jinv[c],
                                    axes=(0, 0))
            ev, eg = exact.jet(x[c, q, 0], x[c, q, 1])
            e, ge = value - ev, gradient - eg
            w = tab.wdet[c, q]
            parts[0] += w * np.sum(e * e)
            parts[1] += w * np.sum(ge * ge)
            if space.components == 2:
                parts[2] += w * (ge[0, 0] + ge[1, 1]) ** 2
            parts[3] += w * h2[c] * np.sum(ge * ge)
    return parts


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


# -- elimination order ---------------------------------------------------------


def mesh_point_order(space):
    """The points (scalar DOFs) of a space in minimum-degree order on the
    graph that joins two points when a cell holds both: the incidence
    product I^T I of cells and points, made strictly diagonally dominant,
    ordered by the column order of an incomplete LU that drops every
    entry, as SuperLU's MMD on A^T + A orders it."""
    cells = space.cell_dofs
    if space.components == 2:
        cells = cells[:, 0::2] // 2
    nt, nloc = cells.shape
    incidence = sp.csr_matrix(
        (np.ones(cells.size), cells.ravel(), np.arange(0, cells.size + 1, nloc)),
        shape=(nt, space.scalar_dof_count))
    graph = (incidence.T @ incidence).tocsc()
    graph += sp.diags(np.asarray(graph.sum(axis=1)).ravel())
    perm_c = spla.spilu(graph, drop_tol=np.inf, fill_factor=1,
                        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}).perm_c
    return np.argsort(perm_c)


def point_blocked_order(vspace, pressure=False):
    """Elimination order of a vector space's unknowns in mesh_point_order,
    point s numbered (2s, 2s + 1), or with pressure (2s, 2s + 1, n_u + s)
    for the equal-order pressure on the same points."""
    s = mesh_point_order(vspace)
    columns = [2 * s, 2 * s + 1] + [vspace.dof_count + s] * pressure
    return np.column_stack(columns).ravel()


# -- the pressure-mean bordered system -----------------------------------------


def bordered_mean_solve(mixed, mean, rhs):
    """(x, lam) solving [[C, m], [m^T, 0]] [x; lam] = [rhs; 0] by lu_solve,
    C the matrix of a MixedSystem and m = (0, mean) the pressure-mean
    functional: the mean-zero solution and the multiplier, which is the
    compatibility defect sum rhs_p / sum mean of the load."""
    m = sp.csr_matrix(np.concatenate([np.zeros(mixed.n_velocity), mean]))
    A = sp.bmat([[mixed.system.matrix, m.T], [m, None]], format="csr")
    y, _ = lu_solve(A, np.append(rhs, 0.0))
    return y[:-1], y[-1]


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
    scale = row_norms * max(np.linalg.norm(x), 1.0) + 1e-300
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
    the exact solution.  `solution` is the solved [u, p] vector.
    """
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    A = _mixed_operator(vspace, pspace, params, sides)
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

    r = np.concatenate([vel, prs]) - A @ x
    return _scaled_max(r, A, x)
