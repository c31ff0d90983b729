"""Assembly of the compressible elasticity system.

Dirichlet data can be imposed weakly (boundary-flux terms with the
consistency term subtracted and its transpose added, no penalty anywhere,
no eliminated DOFs) or strongly (nodal elimination), for comparison.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .spaces import cell_chunks, reference_tensors


@dataclass(frozen=True)
class MaterialParams:
    """Shear modulus, first Lame parameter and pressure-stabilization weight."""

    mu: float
    lam: float = 0.0
    gamma: float = None

    def __post_init__(self):
        for name in ("mu", "lam", "gamma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu <= 0.0:
            raise ValueError("shear modulus mu must be positive")
        if self.lam < 0.0:
            raise ValueError("Lame parameter lambda must be nonnegative")

    @classmethod
    def from_young_poisson(cls, young, poisson, gamma=None):
        if young is None or poisson is None:
            raise ValueError("Young's modulus and Poisson's ratio are both "
                             "required")
        if not (math.isfinite(young) and -1.0 < poisson < 0.5):
            raise ValueError(f"need a finite E and nu in (-1, 0.5), "
                             f"got E={young!r}, nu={poisson!r}")
        mu = young / (2.0 * (1.0 + poisson))
        lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
        return cls(mu=mu, lam=lam, gamma=gamma)


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_count: int


def _require_vector(space):
    if space.components != 2:
        raise ValueError("a 2-vector finite element space is required")


def _dirichlet_sides(mesh, dirichlet_sides):
    """Side tags carrying Dirichlet data: None means every side, () none."""
    if dirichlet_sides is None:
        return tuple(mesh.side_tags)
    return tuple(dirichlet_sides)


def _per_cell(mesh, kernel):
    """Concatenate kernel(cells) over the chunks, which cover the cells in
    order, so that row c of the result belongs to cell c."""
    return np.concatenate([kernel(cells) for cells in cell_chunks(mesh)])


def _scatter_matrix(row_dofs, col_dofs, local, shape):
    """Accumulate dense blocks local[c, i, j] at (row_dofs[c, i],
    col_dofs[c, j]) into a CSR matrix."""
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape).ravel()
    out = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    out.sort_indices()
    return out


def _cell_matrix(row_space, col_space, kernel):
    """Matrix accumulated from the per-cell blocks kernel(cells)."""
    return _scatter_matrix(row_space.cell_dofs, col_space.cell_dofs,
                           _per_cell(row_space.mesh, kernel),
                           (row_space.dof_count, col_space.dof_count))


def _scatter_vector(dofs, local, size):
    """Accumulate local values at dofs, both flattened, in their order."""
    vec = np.zeros(size)
    np.add.at(vec, dofs.ravel(), local.ravel())
    return vec


_I2 = np.eye(2)

# d_a phi_i d_b phi_j = sum_pr Jinv[p, a] Jinv[r, b] d_p N_i d_r N_j
_STIFFNESS_SUBSCRIPTS = "c,ipjr,cpa,crb->ciajb"


@lru_cache(maxsize=16)
def _stiffness_path(order, n_cells):
    """Contraction path of the stiffness einsum for a block of n_cells.

    The path depends only on the operand shapes, so it is searched once per
    order and block size instead of on every block (with 512-cell blocks
    the search cost half as much as a P1 block's contraction).  A mesh has
    at most two block sizes, the full block and the last one."""
    grad_grad = reference_tensors(order).grad_grad
    jinv = np.empty((n_cells, 2, 2))
    return np.einsum_path(_STIFFNESS_SUBSCRIPTS, np.empty(n_cells), grad_grad,
                          jinv, jinv, optimize="greedy")[0]


def _stiffness_parts(space, cells):
    """Per-cell integrals of grad phi_i . grad phi_j, shape (m, i, j), and of
    d_a phi_i d_b phi_j, shape (m, i, a, j, b), of the scalar basis."""
    _, Jinv, detJ = space.geometry()
    weights = np.abs(detJ[cells])
    path = _stiffness_path(space.order, len(weights))
    D = np.einsum(_STIFFNESS_SUBSCRIPTS, weights,
                  reference_tensors(space.order).grad_grad, Jinv[cells],
                  Jinv[cells], optimize=path)
    return np.einsum("ciaja->cij", D), D


def assemble_elasticity_stiffness(space, params):
    """Volume matrix of 2 mu (eps(u), eps(v)) + lambda (div u, div v)."""
    _require_vector(space)
    nloc = 2 * space.scalar_basis_size

    def local(cells):
        gg, D = _stiffness_parts(space, cells)
        loc = (params.mu * np.einsum("cij,ab->ciajb", gg, _I2)
               + params.mu * D.transpose(0, 1, 4, 3, 2)
               + params.lam * D)
        return loc.reshape(-1, nloc, nloc)

    return _cell_matrix(space, space, local)


def _flux_tables(space, side_tags, degree=None):
    """Boundary tables for a data integral, by default at the data degree."""
    return space.boundary_tables(
        space.data_degree if degree is None else degree, side_tags)


def _stress(params, grad, pressure=0.0):
    """Stress 2 mu eps(w) + (lambda div w - p) I from grad[..., c, a] =
    d_a w_c: the one constitutive law of every flux and residual term."""
    div = grad[..., 0, 0] + grad[..., 1, 1]
    return (params.mu * (grad + np.swapaxes(grad, -1, -2))
            + (params.lam * div - pressure)[..., None, None] * _I2)


def _basis_tractions(params, bt):
    """Tractions sigma(phi_j e_d) . n at the edge points, shape
    (e, q, j, d, c) with c the traction component."""
    grad = np.einsum("dc,eqja->eqjdca", _I2, bt.dN)
    return np.einsum("eqjdca,ea->eqjdc", _stress(params, grad), bt.normal)


def assemble_boundary_flux(space, params, side_tags=None):
    """Matrix of the boundary flux pairing <sigma(u) . n, v>.

    Entry (test (i,c), trial (j,d)) integrates, over the selected sides,
    the traction of the trial function against the trace of the test
    function.
    """
    _require_vector(space)
    bt = space.boundary_tables(space.form_degree, side_tags)
    nloc = 2 * space.scalar_basis_size
    loc = np.einsum("eq,eqi,eqjdc->eicjd", bt.w, bt.N,
                    _basis_tractions(params, bt))
    return _scatter_matrix(bt.cell_dofs, bt.cell_dofs,
                           loc.reshape(-1, nloc, nloc), (space.dof_count,) * 2)


def assemble_load(space, f, degree=10):
    """Right-hand side (f, v) over the domain."""
    _require_vector(space)
    tab = space.interior_tables(degree)

    def local(cells):
        x = tab.physical_points(cells)
        fv = f.value(x[..., 0], x[..., 1])
        return np.einsum("cq,cqd,qi->cid", tab.wdet[cells], fv, tab.N)

    return _scatter_vector(space.cell_dofs, _per_cell(space.mesh, local),
                           space.dof_count)


def assemble_flux_load(space, params, g, side_tags=None, degree=None):
    """Boundary data term <sigma(v) . n, g>."""
    _require_vector(space)
    bt = _flux_tables(space, side_tags, degree)
    gv = g.value(bt.x[..., 0], bt.x[..., 1])
    loc = np.einsum("eq,eqicb,eqb->eic", bt.w, _basis_tractions(params, bt),
                    gv)
    return _scatter_vector(bt.cell_dofs, loc, space.dof_count)


def assemble_neumann_load(space, side_tag, traction, degree=None):
    """Surface load integral of traction . v over one polygon side."""
    _require_vector(space)
    space.mesh.tag_index(side_tag)
    bt = _flux_tables(space, (side_tag,), degree)
    tv = traction.value(bt.x[..., 0], bt.x[..., 1])
    loc = np.einsum("eq,eqi,eqc->eic", bt.w, bt.N, tv)
    return _scatter_vector(bt.cell_dofs, loc, space.dof_count)


def _add_neumann_loads(rhs, space, neumann):
    """Add the Neumann load of each {side tag: traction} item to rhs, whose
    leading entries are the DOFs of the vector space."""
    for side_tag, traction in (neumann or {}).items():
        rhs[:space.dof_count] += assemble_neumann_load(space, side_tag,
                                                       traction)


def _weak_operator(space, params, side_tags):
    """Volume stiffness minus the flux pairing on side_tags plus its
    transpose: the penalty-free weak-Dirichlet operator."""
    K = assemble_elasticity_stiffness(space, params)
    B = assemble_boundary_flux(space, params, side_tags)
    A = (K - B + B.T).tocsr()
    A.sort_indices()
    return A


def assemble_weak_system(mesh, space, params, f, g, dirichlet_sides=None,
                         rhs_degree=10, flux_degree=None, neumann=None):
    """Full system with weakly imposed Dirichlet data.

    The matrix is the volume stiffness minus the flux pairing plus its
    transpose; no DOFs are eliminated and no penalty term appears.
    dirichlet_sides=None selects every side, () none.  rhs_degree and
    flux_degree set the quadrature of the load and flux-load data terms.
    neumann maps side tags to tractions, whose loads are added last.
    """
    _require_vector(space)
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    A = _weak_operator(space, params, sides)
    rhs = assemble_load(space, f, rhs_degree)
    rhs += assemble_flux_load(space, params, g, sides, flux_degree)
    _add_neumann_loads(rhs, space, neumann)
    return AssembledSystem(matrix=A, rhs=rhs, dof_count=space.dof_count)


def dirichlet_dofs_and_values(space, g, dirichlet_sides=None):
    """Vector DOF indices on the Dirichlet sides and nodal values of g."""
    scalar = space.boundary_scalar_dofs(
        _dirichlet_sides(space.mesh, dirichlet_sides))
    pts = space.dof_points[scalar]
    gv = g.value(pts[:, 0], pts[:, 1])
    dofs = np.empty(2 * len(scalar), dtype=np.int64)
    vals = np.empty(2 * len(scalar))
    dofs[0::2] = 2 * scalar
    dofs[1::2] = 2 * scalar + 1
    vals[0::2] = gv[..., 0]
    vals[1::2] = gv[..., 1]
    return dofs, vals


def eliminate_dofs(matrix, rhs, dofs, values):
    """Impose x[dofs] = values by symmetric row/column elimination."""
    x0 = np.zeros(matrix.shape[0])
    x0[dofs] = values
    rhs = rhs - matrix @ x0
    keep = np.ones(matrix.shape[0])
    keep[dofs] = 0.0
    Dk = sp.diags(keep)
    out = (Dk @ matrix @ Dk + sp.diags(1.0 - keep)).tocsr()
    out.sort_indices()
    rhs *= keep
    rhs[dofs] = values
    return out, rhs


def assemble_strong_system(mesh, space, params, f, g, dirichlet_sides=None,
                           rhs_degree=10, neumann=None):
    """Volume system with Dirichlet DOFs eliminated by nodal interpolation.

    neumann maps side tags to tractions; their loads enter before the
    elimination, which sets the Dirichlet rows to the nodal data.
    """
    _require_vector(space)
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    K = assemble_elasticity_stiffness(space, params)
    rhs = assemble_load(space, f, rhs_degree)
    _add_neumann_loads(rhs, space, neumann)
    dofs, vals = dirichlet_dofs_and_values(space, g, sides)
    A, rhs = eliminate_dofs(K, rhs, dofs, vals)
    return AssembledSystem(matrix=A, rhs=rhs, dof_count=space.dof_count)
