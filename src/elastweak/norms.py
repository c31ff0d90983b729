"""Mesh-dependent norms, error measures and numerical stability diagnostics.

The triple norms weight boundary traces by the owning element's diameter;
the boundary seminorm projects a field onto its componentwise mean over each
whole polygon side.  The stability diagnostics (inf-sup constant, discrete
Korn constant) are sparse shift-invert eigensolves on sparse Gram matrices;
only the 3x3 rigid-motion Gram is dense.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .compressible import (_I2, MaterialParams, _cell_matrix,
                           _dirichlet_sides, _per_cell, _scatter_matrix,
                           _scatter_vector, _stiffness_parts, _stress,
                           _weak_operator, assemble_elasticity_stiffness,
                           assemble_flux_load)
from .incompressible import (_mass_local, _mixed_operator,
                             _pressure_flux_load, _pressure_h2_gram,
                             _stab_h, _stabilized_load)
from .solvers import _smallest_eigenvalue, smallest_generalized_singular_value
from .spaces import AnalyticField, DiscreteField, FESpace, cell_chunks

ERROR_DEGREE = 16


@dataclass(frozen=True)
class ErrorReport:
    l2_error: float
    h1_semi_error: float
    triple_norm_error: float
    pressure_l2_error: float = None


# -- pointwise field evaluation helpers ---------------------------------------


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


def _boundary_values(field, bt):
    if isinstance(field, DiscreteField):
        coef = field.coefficients[bt.cell_dofs]
        if field.space.components == 2:
            coef = coef.reshape(coef.shape[0], -1, 2)
            return np.einsum("eqi,eic->eqc", bt.N, coef)
        return np.einsum("eqi,ei->eq", bt.N, coef)
    return field.value(bt.x[..., 0], bt.x[..., 1])


def _interior_eval(field, tab, cells, exact=None):
    """Values and gradients at the cells' quadrature points of field - exact,
    or of the field itself when exact is None."""
    if isinstance(field, DiscreteField):
        vals, grads = _discrete_tables(field, tab, cells)
    else:
        x = tab.physical_points(cells)
        vals, grads = field.jet(x[..., 0], x[..., 1])
    if exact is not None:
        x = tab.physical_points(cells)
        ev, eg = exact.jet(x[..., 0], x[..., 1])
        vals, grads = vals - ev, grads - eg
    return vals, grads


# -- norms ---------------------------------------------------------------------


def _tabulation_space(field, mesh):
    """The field's own space, or a throwaway P1 space for analytic input."""
    if isinstance(field, DiscreteField):
        return field.space
    if mesh is None:
        raise ValueError("analytic fields need an explicit mesh")
    return FESpace(mesh, 1, 1)


def _vector_parts(field, degree, mesh=None, exact=None):
    """Squared (L2, gradient, divergence, h^-1/2 trace, h^-1/2 normal trace)
    norms of field - exact, or of the field itself when exact is None.

    The error norms and the triple norms are both read from these parts."""
    space = _tabulation_space(field, mesh)
    tab = space.interior_tables(degree)
    l2 = grad_sq = div_sq = 0.0
    for cells in cell_chunks(space.mesh):
        v, g = _interior_eval(field, tab, cells, exact)
        w = tab.wdet[cells]
        l2 += float(np.einsum("cq,cqe->", w, v ** 2))
        grad_sq += float(np.einsum("cq,cqea->", w, g ** 2))
        div = g[..., 0, 0] + g[..., 1, 1]
        div_sq += float(np.sum(w * div ** 2))
    bt = space.boundary_tables(degree)
    vals = _boundary_values(field, bt)
    if exact is not None:
        vals = vals - exact.value(bt.x[..., 0], bt.x[..., 1])
    winv = bt.w / bt.h_owner[:, None]
    trace_sq = float(np.einsum("eq,eqa->", winv, vals ** 2))
    vn = np.einsum("eqa,ea->eq", vals, bt.normal)
    normal_sq = float(np.sum(winv * vn ** 2))
    return l2, grad_sq, div_sq, trace_sq, normal_sq


def _pressure_parts(field, degree, mesh=None, exact=None):
    """Squared (L2, h-weighted gradient) norms of field - exact, or of the
    field itself when exact is None."""
    space = _tabulation_space(field, mesh)
    tab = space.interior_tables(degree)
    hK = space.mesh.triangle_diameters()
    l2 = h2_grad_sq = 0.0
    for cells in cell_chunks(space.mesh):
        v, g = _interior_eval(field, tab, cells, exact)
        w = tab.wdet[cells]
        l2 += float(np.sum(w * v ** 2))
        h2_grad_sq += float(np.einsum("cq,cqa->", w * (hK[cells] ** 2)[:, None],
                                      g ** 2))
    return l2, h2_grad_sq


def _triple(params, vparts, pparts=None):
    """Compressible triple norm from the vector parts, or the incompressible
    one when the pressure parts are given."""
    _, g2, d2, t2, n2 = vparts
    if pparts is None:
        return float(np.sqrt(params.mu * (g2 + t2) + params.lam * (d2 + n2)))
    return float(np.sqrt(params.mu * (g2 + t2) + pparts[1] / params.mu))


def triple_norm_compressible(field, params, degree=ERROR_DEGREE, mesh=None):
    """mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + lam(|div w|^2 + |h^-1/2 w.n|^2_bnd)."""
    return _triple(params, _vector_parts(field, degree, mesh))


def triple_norm_incompressible(vfield, pfield, params, degree=ERROR_DEGREE,
                               mesh=None):
    """mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + (1/mu)|h grad rho|^2."""
    return _triple(params, _vector_parts(vfield, degree, mesh),
                   _pressure_parts(pfield, degree, mesh))


def error_norms(u_h, exact_u, params, p_h=None, exact_p=None,
                degree=ERROR_DEGREE):
    """L2/H1-seminorm/triple-norm errors (and pressure L2 when mixed)."""
    vparts = _vector_parts(u_h, degree, exact=exact_u)
    pparts = None if p_h is None else _pressure_parts(p_h, degree,
                                                      exact=exact_p)
    return ErrorReport(l2_error=float(np.sqrt(vparts[0])),
                       h1_semi_error=float(np.sqrt(vparts[1])),
                       triple_norm_error=_triple(params, vparts, pparts),
                       pressure_l2_error=(None if pparts is None
                                          else float(np.sqrt(pparts[0]))))


# -- boundary seminorm and rigid motions --------------------------------------


def _side_means(mesh, field, degree=8):
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


def korn_boundary_seminorm(mesh, field, degree=8):
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


def rigid_motion_gram(mesh, degree=8):
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


# -- Gram matrices for diagnostics ---------------------------------------------


def _vector_gram(space, kind):
    """Assemble (grad u, grad v), (u, v) or (div u, div v) for a vector space."""
    if kind not in ("mass", "grad", "div"):
        raise ValueError(kind)
    nloc = 2 * space.scalar_basis_size

    def local(cells):
        if kind == "mass":
            loc = np.einsum("cij,ab->ciajb", _mass_local(space, cells), _I2)
        else:
            gg, D = _stiffness_parts(space, cells)
            loc = np.einsum("cij,ab->ciajb", gg, _I2) if kind == "grad" else D
        return loc.reshape(-1, nloc, nloc)

    return _cell_matrix(space, space, local)


def _boundary_gram(space, normal_weighted):
    """h_K^-1-weighted boundary mass, full trace or normal component only."""
    bt = space.boundary_tables(space.form_degree)
    nloc = 2 * space.scalar_basis_size
    winv = bt.w / bt.h_owner[:, None]
    nn = np.einsum("eq,eqi,eqj->eij", winv, bt.N, bt.N)
    if normal_weighted:
        loc = np.einsum("eij,ec,ed->eicjd", nn, bt.normal, bt.normal)
    else:
        loc = np.einsum("eij,cd->eicjd", nn, _I2)
    return _scatter_matrix(bt.cell_dofs, bt.cell_dofs,
                           loc.reshape(-1, nloc, nloc), (space.dof_count,) * 2)


def triple_norm_gram_compressible(space, params):
    return (params.mu * (_vector_gram(space, "grad") + _boundary_gram(space, False))
            + params.lam * (_vector_gram(space, "div") + _boundary_gram(space, True)))


def triple_norm_gram_incompressible(vspace, pspace, params):
    Nv = params.mu * (_vector_gram(vspace, "grad") + _boundary_gram(vspace, False))
    Np = (1.0 / params.mu) * _pressure_h2_gram(
        pspace, pspace.mesh.triangle_diameters())
    return sp.bmat([[Nv, None], [None, Np]], format="csr")


def side_mean_gram(space, degree=8):
    """Gram of the boundary seminorm on a vector space's DOFs, R^T L R.

    Row 2 t + c of the sparse R takes the mean of component c over side t;
    L holds the side lengths."""
    mesh = space.mesh
    bt = space.boundary_tables(degree)
    tags = mesh.edge_tag[bt.edge_ids]
    lengths = np.bincount(tags, weights=bt.w.sum(axis=1),
                          minlength=len(mesh.side_tags))
    wN = np.einsum("eq,eqi->ei", bt.w, bt.N) / lengths[tags][:, None]
    # the edge's (component c, scalar basis i, component d) block is
    # wN[i] delta_cd; cell_dofs number the vector basis as 2 i + d
    local = np.einsum("ei,cd->ecid", wN, _I2).reshape(len(tags), 2, -1)
    R = _scatter_matrix(2 * tags[:, None] + np.arange(2), bt.cell_dofs, local,
                        (2 * len(lengths), space.dof_count))
    return (R.T @ sp.diags(np.repeat(lengths, 2)) @ R).tocsr()


# -- stability diagnostics ------------------------------------------------------


def discrete_korn_constant(mesh, vspace):
    """sqrt of the smallest eigenvalue of |eps(u)|^2 + |u|_bnd^2 vs |u|_H1^2."""
    eps_gram = assemble_elasticity_stiffness(vspace, MaterialParams(mu=0.5))
    A = eps_gram + side_mean_gram(vspace)
    H = _vector_gram(vspace, "mass") + _vector_gram(vspace, "grad")
    return float(np.sqrt(max(_smallest_eigenvalue(A, H), 0.0)))


def discrete_infsup_constant(system_matrix, norm_gram):
    """Inf-sup constant of a system in the norm induced by norm_gram."""
    return smallest_generalized_singular_value(system_matrix, norm_gram)


def compressible_infsup(mesh, space, params):
    A = _weak_operator(space, params, None)
    N = triple_norm_gram_compressible(space, params)
    return discrete_infsup_constant(A, N)


def incompressible_infsup(mesh, vspace, pspace, params):
    """Inf-sup constant over velocity x mean-zero pressure."""
    A = _mixed_operator(vspace, pspace, params, mesh.side_tags)
    N = triple_norm_gram_incompressible(vspace, pspace, params)
    # The constant pressure spans the kernels of A, of A^T and of N, so every
    # complement of it gives the same constant; pin the last pressure DOF
    # (as the pressure-mean solve does) instead of the mean-zero basis.
    return discrete_infsup_constant(A[:-1, :-1], N[:-1, :-1])


# -- Galerkin orthogonality -----------------------------------------------------


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


def _scaled_max(residual, matrix, x):
    row_norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = row_norms[:len(residual)] * max(np.linalg.norm(x), 1.0) + 1e-300
    return float(np.max(np.abs(residual) / scale))


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
           + _stabilized_load(pspace, params, f, _stab_h(mesh),
                              degree))

    n = vspace.dof_count + pspace.dof_count
    r = np.concatenate([vel, prs]) - (A @ x)[:n]
    return _scaled_max(r, A, x)
