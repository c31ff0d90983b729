"""Error measures and numerical stability diagnostics.

The triple norms weight boundary traces by the owning element's diameter;
the boundary seminorm of the Korn constant projects a field onto its
componentwise mean over each whole polygon side.  The stability diagnostics
(inf-sup constant, discrete Korn constant) are sparse shift-invert
eigensolves on sparse Gram matrices.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .compressible import _I2, _scatter_matrix, _vector_form, _weak_operator
from .incompressible import _mixed_operator, _pressure_h2_gram
from .solvers import _smallest_eigenvalue, smallest_generalized_singular_value
from .spaces import cell_chunks

ERROR_DEGREE = 16
SIDE_MEAN_DEGREE = 8


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


def _boundary_values(u_h, bt):
    """Values (e, q, 2) of a vector DiscreteField at the tables' points."""
    coef = u_h.coefficients[bt.cell_dofs]
    return np.einsum("eqi,eic->eqc", bt.N, coef.reshape(coef.shape[0], -1, 2))


def _interior_error(field, exact, tab, cells):
    """Values and gradients of field - exact at the cells' quadrature
    points."""
    vals, grads = _discrete_tables(field, tab, cells)
    x = tab.physical_points(cells)
    ev, eg = exact.jet(x[..., 0], x[..., 1])
    return vals - ev, grads - eg


# -- norms ---------------------------------------------------------------------


def _vector_parts(u_h, exact):
    """Squared (L2, gradient, divergence, h^-1/2 trace, h^-1/2 normal trace)
    norms of u_h - exact."""
    space = u_h.space
    tab = space.interior_tables(ERROR_DEGREE)
    l2 = grad_sq = div_sq = 0.0
    for cells in cell_chunks(space.mesh):
        v, g = _interior_error(u_h, exact, tab, cells)
        w = tab.wdet[cells]
        l2 += float(np.einsum("cq,cqe->", w, v ** 2))
        grad_sq += float(np.einsum("cq,cqea->", w, g ** 2))
        div = g[..., 0, 0] + g[..., 1, 1]
        div_sq += float(np.sum(w * div ** 2))
    bt = space.boundary_tables(ERROR_DEGREE)
    vals = _boundary_values(u_h, bt) - exact.value(bt.x[..., 0], bt.x[..., 1])
    winv = bt.w / bt.h_owner[:, None]
    trace_sq = float(np.einsum("eq,eqa->", winv, vals ** 2))
    vn = np.einsum("eqa,ea->eq", vals, bt.normal)
    normal_sq = float(np.sum(winv * vn ** 2))
    return l2, grad_sq, div_sq, trace_sq, normal_sq


def _pressure_parts(p_h, exact):
    """Squared (L2, h-weighted gradient) norms of p_h - exact."""
    space = p_h.space
    tab = space.interior_tables(ERROR_DEGREE)
    hK = space.mesh.triangle_diameters()
    l2 = h2_grad_sq = 0.0
    for cells in cell_chunks(space.mesh):
        v, g = _interior_error(p_h, exact, tab, cells)
        w = tab.wdet[cells]
        l2 += float(np.sum(w * v ** 2))
        h2_grad_sq += float(np.einsum("cq,cqa->", w * (hK[cells] ** 2)[:, None],
                                      g ** 2))
    return l2, h2_grad_sq


def _triple(params, vparts, pparts=None):
    """Compressible triple norm from the vector parts, or the incompressible
    one when the pressure parts are given:
    mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + lam(|div w|^2 + |h^-1/2 w.n|^2_bnd)
    or mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + (1/mu)|h grad rho|^2."""
    _, g2, d2, t2, n2 = vparts
    if pparts is None:
        return float(np.sqrt(params.mu * (g2 + t2) + params.lam * (d2 + n2)))
    return float(np.sqrt(params.mu * (g2 + t2) + pparts[1] / params.mu))


def error_norms(u_h, exact_u, params, p_h=None, exact_p=None):
    """L2/H1-seminorm/triple-norm errors of the DiscreteField u_h against
    the analytic exact_u (and the pressure L2 error of p_h against exact_p
    when mixed), all at quadrature degree ERROR_DEGREE."""
    vparts = _vector_parts(u_h, exact_u)
    pparts = None if p_h is None else _pressure_parts(p_h, exact_p)
    return ErrorReport(l2_error=float(np.sqrt(vparts[0])),
                       h1_semi_error=float(np.sqrt(vparts[1])),
                       triple_norm_error=_triple(params, vparts, pparts),
                       pressure_l2_error=(None if pparts is None
                                          else float(np.sqrt(pparts[0]))))


# -- Gram matrices for diagnostics ---------------------------------------------


def _boundary_gram(space, trace, normal):
    """h_K^-1-weighted boundary Gram of trace <u, v> + normal <u.n, v.n>."""
    bt = space.boundary_tables(space.form_degree)
    nloc = 2 * space.scalar_basis_size
    winv = bt.w / bt.h_owner[:, None]
    nn = np.einsum("eq,eqi,eqj->eij", winv, bt.N, bt.N)
    cd = trace * _I2 + normal * np.einsum("ec,ed->ecd", bt.normal, bt.normal)
    loc = np.einsum("eij,ecd->eicjd", nn, cd)
    return _scatter_matrix(bt.cell_dofs, bt.cell_dofs,
                           loc.reshape(-1, nloc, nloc), (space.dof_count,) * 2)


def triple_norm_gram_compressible(space, params):
    return (_vector_form(space, grad=params.mu, div=params.lam)
            + _boundary_gram(space, params.mu, params.lam))


def triple_norm_gram_incompressible(vspace, pspace, params):
    Nv = (_vector_form(vspace, grad=params.mu)
          + _boundary_gram(vspace, params.mu, 0.0))
    Np = (1.0 / params.mu) * _pressure_h2_gram(
        pspace, pspace.mesh.triangle_diameters())
    return sp.bmat([[Nv, None], [None, Np]], format="csr")


def side_mean_gram(space):
    """Gram of the boundary seminorm on a vector space's DOFs, R^T L R.

    Row 2 t + c of the sparse R takes the mean of component c over side t;
    L holds the side lengths."""
    mesh = space.mesh
    bt = space.boundary_tables(SIDE_MEAN_DEGREE)
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


def discrete_korn_constant(vspace):
    """sqrt of the smallest eigenvalue of |eps(u)|^2 + |u|_bnd^2 vs |u|_H1^2."""
    A = _vector_form(vspace, grad=0.5, sym=0.5) + side_mean_gram(vspace)
    H = _vector_form(vspace, grad=1.0, mass=1.0)
    return float(np.sqrt(max(_smallest_eigenvalue(A, H), 0.0)))


def discrete_infsup_constant(system_matrix, norm_gram):
    """Inf-sup constant of a system in the norm induced by norm_gram."""
    return smallest_generalized_singular_value(system_matrix, norm_gram)


def compressible_infsup(space, params):
    A = _weak_operator(space, params, None)
    N = triple_norm_gram_compressible(space, params)
    return discrete_infsup_constant(A, N)


def incompressible_infsup(vspace, pspace, params):
    """Inf-sup constant over velocity x mean-zero pressure."""
    A = _mixed_operator(vspace, pspace, params, vspace.mesh.side_tags)
    N = triple_norm_gram_incompressible(vspace, pspace, params)
    # The constant pressure spans the kernels of A, of A^T and of N, so every
    # complement of it gives the same constant; pin the last pressure DOF
    # (as the pressure-mean solve does) instead of the mean-zero basis.
    return discrete_infsup_constant(A[:-1, :-1], N[:-1, :-1])
