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
from .incompressible import (_mixed_operator, _mixed_points,
                             _pressure_h2_gram)
from .solvers import _smallest_eigenvalue, smallest_generalized_singular_value
from .spaces import basis_values, cell_chunks

ERROR_DEGREE = 16
SIDE_MEAN_DEGREE = 8


@dataclass(frozen=True)
class ErrorReport:
    l2_error: float
    h1_semi_error: float
    triple_norm_error: float
    pressure_l2_error: float = None


# -- pointwise field evaluation helpers ---------------------------------------


def _jet_tables(order, points):
    """The right factors of _jets' products: N^T, (nsb, nq), and the
    reference derivatives d_p N_i at row 2 i + p, (2 nsb, nq)."""
    N, dN = basis_values(order, points)
    return N.T.copy(), dN.reshape(len(points), -1).T.copy()


def _jets(field, tables, Jinv, cells, out):
    """Values and x- and y-derivatives of a field with c components at the
    cells' points, written as component-major planes into the first 3 c
    rows of out, (rows, m, nq): row i the values of component i, row
    c + 2 i + a the derivative of component i in x_a.  The values are one
    product of the cell coefficients with N^T, the derivatives one product
    of the coefficients folded with Jinv, G[i, a, m, j, p] = coef[i, m, j]
    Jinv[m, p, a], with the reference derivatives.  Returns out."""
    NT, dNT = tables
    coef = field.cell_coefficients(cells)
    m, nsb = coef.shape[:2]
    coef = np.moveaxis(coef.reshape(m, nsb, -1), 2, 0)      # (c, m, j)
    nc, nq = len(coef), NT.shape[1]
    Jt = np.transpose(Jinv[cells], (2, 0, 1))               # (a, m, p)
    G = coef[:, None, :, :, None] * Jt[None, :, :, None, :]
    np.matmul(coef.reshape(-1, nsb), NT, out=out[:nc].reshape(-1, nq))
    np.matmul(G.reshape(-1, 2 * nsb), dNT,
              out=out[nc:3 * nc].reshape(-1, nq))
    return out


def _exact_jets(exact, x):
    """Values (c, m, nq) and gradients (c, 2, m, nq) of an AnalyticField at
    the points x, (m, nq, 2): views of the jet's component planes, with no
    copy of a jet that returns component-last views of them."""
    ev, eg = exact.jet(x[..., 0], x[..., 1])
    m, nq = x.shape[:2]
    return (np.moveaxis(ev.reshape(m, nq, -1), 2, 0),
            np.moveaxis(eg.reshape(m, nq, -1, 2), (2, 3), (0, 1)))


def _boundary_values(u_h, bt):
    """Values (e, q, 2) of a vector DiscreteField at the tables' points."""
    coef = u_h.coefficients[bt.cell_dofs]
    return np.einsum("eqi,eic->eqc", bt.N, coef.reshape(coef.shape[0], -1, 2))


# -- norms ---------------------------------------------------------------------


def _interior_parts(tab, pairs):
    """Squared (L2, gradient, divergence, h-weighted gradient) norms of
    field - exact for each (field, exact) of pairs, rows in their order.

    The fields share one pass over the cell blocks, the tables' points, the
    points' physical coordinates and the weight columns [|det J| w,
    |det J| w h_K^2]; exact fields that are parts of one whole
    (AnalyticField.part) share one evaluation of its jet per block.  Per
    block and field the error values and derivatives are component planes
    (_jets' rows, plus the divergence of a vector field), squared in place
    and contracted with both weight columns in one product; each part is a
    sum of its rows.  The divergence of a scalar field is 0."""
    h2 = tab.mesh.triangle_diameters() ** 2
    nq = tab.rule.num_points
    tables = [_jet_tables(field.space.order, tab.rule.points)
              for field, _ in pairs]
    # the distinct fields to evaluate, and per pair (source index,
    # components); AnalyticField compares by identity
    wholes = [exact.whole or (exact, 0) for _, exact in pairs]
    sources = list(dict.fromkeys(whole for whole, _ in wholes))
    slots = [(sources.index(whole), slice(first, first + exact.components))
             for (whole, first), (_, exact) in zip(wholes, pairs)]
    parts = np.zeros((len(pairs), 4))
    for cells in cell_chunks(tab.mesh):
        x = tab.physical_points(cells)
        m = len(x)
        weights = np.empty((2, m, nq))
        weights[0] = tab.wdet[cells]
        np.multiply(weights[0], h2[cells][:, None], out=weights[1])
        exact_jets = [_exact_jets(source, x) for source in sources]
        for row, (field, _), jt, (k, comps) in zip(parts, pairs, tables,
                                                   slots):
            nc = field.space.components
            vector = nc == 2
            e = _jets(field, jt, tab.Jinv, cells,
                      np.empty((3 * nc + vector, m, nq)))
            ev, eg = exact_jets[k]
            np.subtract(e[:nc], ev[comps], out=e[:nc])
            grads = e[nc:3 * nc].reshape(nc, 2, m, nq)
            np.subtract(grads, eg[comps], out=grads)
            if vector:
                np.add(grads[0, 0], grads[1, 1], out=e[-1])
            np.square(e, out=e)
            sums = e.reshape(len(e), -1) @ weights.reshape(2, -1).T
            row[0] += sums[:nc, 0].sum()
            row[1] += sums[nc:3 * nc, 0].sum()
            row[3] += sums[nc:3 * nc, 1].sum()
            if vector:
                row[2] += sums[-1, 0]
    return parts


def _boundary_parts(u_h, exact):
    """Squared h^-1/2 trace and h^-1/2 normal-trace norms of u_h - exact."""
    bt = u_h.space.boundary_tables(ERROR_DEGREE)
    vals = _boundary_values(u_h, bt) - exact.value(bt.x[..., 0], bt.x[..., 1])
    winv = bt.w / bt.h_owner[:, None]
    trace_sq = float(np.einsum("eq,eqa->", winv, vals ** 2))
    vn = np.einsum("eqa,ea->eq", vals, bt.normal)
    return trace_sq, float(np.sum(winv * vn ** 2))


def error_norms(u_h, exact_u, params, p_h=None, exact_p=None):
    """L2/H1-seminorm/triple-norm errors of the DiscreteField u_h against
    the analytic exact_u (and the pressure L2 error of p_h against exact_p
    when mixed), all at quadrature degree ERROR_DEGREE.

    The triple norm is mu(|grad w|^2 + |h^-1/2 w|^2_bnd) + lam(|div w|^2 +
    |h^-1/2 w.n|^2_bnd), or mu(|grad w|^2 + |h^-1/2 w|^2_bnd)
    + (1/mu)|h grad rho|^2 with a pressure error rho.  A pressure on the
    velocity's mesh shares its error pass."""
    space = u_h.space
    pairs = [(u_h, exact_u)]
    if p_h is not None:
        if p_h.space.mesh is not space.mesh:
            raise ValueError("velocity and pressure use different meshes")
        pairs.append((p_h, exact_p))
    parts = _interior_parts(space.interior_tables(ERROR_DEGREE), pairs)
    l2, g2, d2, _ = parts[0]
    t2, n2 = _boundary_parts(u_h, exact_u)
    if p_h is None:
        triple = params.mu * (g2 + t2) + params.lam * (d2 + n2)
    else:
        triple = params.mu * (g2 + t2) + parts[1, 3] / params.mu
    return ErrorReport(l2_error=float(np.sqrt(l2)),
                       h1_semi_error=float(np.sqrt(g2)),
                       triple_norm_error=float(np.sqrt(triple)),
                       pressure_l2_error=(None if p_h is None
                                          else float(np.sqrt(parts[1, 0]))))


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


def discrete_infsup_constant(system_matrix, norm_gram, points=None):
    """Inf-sup constant of a system in the norm induced by norm_gram; points,
    the mesh point of each unknown, orders the operator's LU by point."""
    return smallest_generalized_singular_value(system_matrix, norm_gram,
                                               points)


def compressible_infsup(space, params):
    A = _weak_operator(space, params, None)
    N = triple_norm_gram_compressible(space, params)
    return discrete_infsup_constant(A, N, np.arange(space.dof_count) // 2)


def incompressible_infsup(vspace, pspace, params):
    """Inf-sup constant over velocity x mean-zero pressure."""
    A = _mixed_operator(vspace, pspace, params, vspace.mesh.side_tags)
    N = triple_norm_gram_incompressible(vspace, pspace, params)
    # The constant pressure spans the kernels of A, of A^T and of N, so every
    # complement of it gives the same constant; pin the last pressure DOF of
    # the square [u, p] matrices (as experiments._pinned_mean_solve does)
    # instead of the mean-zero basis.
    return discrete_infsup_constant(A[:-1, :-1], N[:-1, :-1],
                                    _mixed_points(vspace, pspace)[:-1])
