"""Assembly of the compressible elasticity system.

Dirichlet data can be imposed weakly (boundary-flux terms with the
consistency term subtracted and its transpose added, no penalty anywhere,
no eliminated DOFs) or strongly (nodal elimination), for comparison.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    constraint_meta: dict = field(default_factory=dict)


def _require_vector(space):
    if space.components != 2:
        raise ValueError("a 2-vector finite element space is required")


def _dirichlet_sides(mesh, dirichlet_sides):
    """Side tags carrying Dirichlet data: None means every side, () none."""
    if dirichlet_sides is None:
        return tuple(mesh.side_tags)
    return tuple(dirichlet_sides)


def _per_cell(tab, kernel):
    """Concatenate kernel(cells) over the chunks, which cover the cells in
    order, so that row c of the result belongs to cell c."""
    return np.concatenate([kernel(cells) for cells in tab.cell_chunks()])


def _scatter_matrix(row_dofs, col_dofs, local, shape):
    """Accumulate dense blocks local[c, i, j] at (row_dofs[c, i],
    col_dofs[c, j]) into a CSR matrix."""
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape).ravel()
    out = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    out.sort_indices()
    return out


def _scatter_vector(dofs, local, size):
    """Accumulate local values at dofs, both flattened, in their order."""
    vec = np.zeros(size)
    np.add.at(vec, dofs.ravel(), local.ravel())
    return vec


_I2 = np.eye(2)


def _stiffness_parts(tab, cells):
    """Per-cell integrals of grad phi_i . grad phi_j, shape (m, i, j), and of
    d_a phi_i d_b phi_j, shape (m, i, a, j, b)."""
    g = tab.physical_gradients(cells)
    wd = tab.wdet[cells]
    return (np.einsum("cqia,cqja,cq->cij", g, g, wd),
            np.einsum("cqia,cqjb,cq->ciajb", g, g, wd))


def assemble_elasticity_stiffness(space, params):
    """Volume matrix of 2 mu (eps(u), eps(v)) + lambda (div u, div v)."""
    _require_vector(space)
    tab = space.interior_tables(space.form_degree)
    nloc = 2 * space.scalar_basis_size

    def local(cells):
        gg, D = _stiffness_parts(tab, cells)
        loc = (params.mu * np.einsum("cij,ab->ciajb", gg, _I2)
               + params.mu * D.transpose(0, 1, 4, 3, 2)
               + params.lam * D)
        return loc.reshape(-1, nloc, nloc)

    return _scatter_matrix(space.cell_dofs, space.cell_dofs,
                           _per_cell(tab, local), (space.dof_count,) * 2)


def _flux_tables(space, side_tags, degree=None):
    """Boundary tables for a data integral, by default at the form degree."""
    return space.boundary_tables(
        space.form_degree if degree is None else degree, side_tags)


def assemble_boundary_flux(space, params, side_tags=None):
    """Matrix of the boundary flux pairing.

    Entry (test (i,c), trial (j,d)) integrates, over the selected sides,
    the normal elastic flux of the trial function against the trace of the
    test function:
        <2 mu eps(u) . n, v> + <lambda div u, v . n>.
    """
    _require_vector(space)
    bt = space.boundary_tables(space.form_degree, side_tags)
    nloc = 2 * space.scalar_basis_size
    gn = np.einsum("eqja,ea->eqj", bt.dN, bt.normal)
    T1 = np.einsum("eqi,eqj,eq->eij", bt.N, gn, bt.w)
    W = np.einsum("eqi,eqja,eq->eija", bt.N, bt.dN, bt.w)
    loc = (params.mu * np.einsum("eij,cd->eicjd", T1, _I2)
           + params.mu * np.einsum("eijc,ed->eicjd", W, bt.normal)
           + params.lam * np.einsum("ec,eijd->eicjd", bt.normal, W))
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

    return _scatter_vector(space.cell_dofs, _per_cell(tab, local),
                           space.dof_count)


def assemble_flux_load(space, params, g, side_tags=None, degree=None):
    """Boundary data term <2 mu eps(v) . n, g> + <lambda div v, g . n>."""
    _require_vector(space)
    bt = _flux_tables(space, side_tags, degree)
    gv = g.value(bt.x[..., 0], bt.x[..., 1])
    gn_test = np.einsum("eqia,ea->eqi", bt.dN, bt.normal)
    gdotg = np.einsum("eqia,eqa->eqi", bt.dN, gv)
    gvn = np.einsum("eqa,ea->eq", gv, bt.normal)
    loc = (params.mu * np.einsum("eq,eqc,eqi->eic", bt.w, gv, gn_test)
           + params.mu * np.einsum("eq,ec,eqi->eic", bt.w, bt.normal, gdotg)
           + params.lam * np.einsum("eq,eqic->eic", bt.w * gvn, bt.dN))
    return _scatter_vector(bt.cell_dofs, loc, space.dof_count)


def assemble_neumann_load(space, side_tag, traction, degree=None):
    """Surface load integral of traction . v over one polygon side."""
    _require_vector(space)
    space.mesh.tag_index(side_tag)
    bt = _flux_tables(space, (side_tag,), degree)
    tv = traction.value(bt.x[..., 0], bt.x[..., 1])
    loc = np.einsum("eq,eqi,eqc->eic", bt.w, bt.N, tv)
    return _scatter_vector(bt.cell_dofs, loc, space.dof_count)


def _weak_operator(space, params, side_tags):
    """Volume stiffness minus the flux pairing on side_tags plus its
    transpose: the penalty-free weak-Dirichlet operator."""
    K = assemble_elasticity_stiffness(space, params)
    B = assemble_boundary_flux(space, params, side_tags)
    A = (K - B + B.T).tocsr()
    A.sort_indices()
    return A


def assemble_weak_system(mesh, space, params, f, g, dirichlet_sides=None,
                         rhs_degree=10, flux_degree=None):
    """Full system with weakly imposed Dirichlet data.

    The matrix is the volume stiffness minus the flux pairing plus its
    transpose; no DOFs are eliminated and no penalty term appears.
    dirichlet_sides=None selects every side, () none.  rhs_degree and
    flux_degree set the quadrature of the load and flux-load data terms.
    """
    _require_vector(space)
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    A = _weak_operator(space, params, sides)
    rhs = assemble_load(space, f, rhs_degree)
    rhs += assemble_flux_load(space, params, g, sides, flux_degree)
    meta = {"bc": "weak", "dirichlet_sides": sides}
    return AssembledSystem(matrix=A, rhs=rhs, dof_count=space.dof_count,
                           constraint_meta=meta)


def dirichlet_dofs_and_values(space, g, dirichlet_sides=None):
    """Vector DOF indices on the Dirichlet sides and nodal values of g."""
    sides = _dirichlet_sides(space.mesh, dirichlet_sides)
    scalar = sorted(set(
        int(d) for tag in sides for d in space.scalar_side_dofs(tag)))
    scalar = np.asarray(scalar, dtype=np.int64)
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
                           rhs_degree=10):
    """Volume system with Dirichlet DOFs eliminated by nodal interpolation."""
    _require_vector(space)
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    K = assemble_elasticity_stiffness(space, params)
    rhs = assemble_load(space, f, rhs_degree)
    dofs, vals = dirichlet_dofs_and_values(space, g, sides)
    A, rhs = eliminate_dofs(K, rhs, dofs, vals)
    meta = {"bc": "strong", "dirichlet_sides": sides,
            "fixed_dofs": int(len(dofs))}
    return AssembledSystem(matrix=A, rhs=rhs, dof_count=space.dof_count,
                           constraint_meta=meta)
