"""Assembly of the compressible elasticity system.

Dirichlet data can be imposed weakly (boundary-flux terms with the
consistency term subtracted and its transpose added, no penalty anywhere,
no eliminated DOFs) or strongly (nodal elimination), for comparison.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .spaces import cell_chunks, reference_tensors

# Degree of the volume and stabilized loads: the symmetric 25-point rule.
LOAD_DEGREE = 10


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
    points: np.ndarray   # mesh point of each unknown

    @property
    def dof_count(self):
        return self.matrix.shape[0]


def _require_vector(space):
    if space.components != 2:
        raise ValueError("a 2-vector finite element space is required")


def _dirichlet_sides(mesh, dirichlet_sides):
    """Side tags carrying Dirichlet data: None means every side, () none."""
    return tuple(mesh.side_tags if dirichlet_sides is None else dirichlet_sides)


def _per_cell(mesh, kernel):
    """Concatenate kernel(cells) over the chunks, which cover the cells in
    order, so that row c of the result belongs to cell c."""
    return np.concatenate([kernel(cells) for cells in cell_chunks(mesh)])


def _scatter_matrix(row_dofs, col_dofs, local, shape):
    """Canonical CSR matrix accumulating the dense blocks local[c, i, j] at
    (row_dofs[c, i], col_dofs[c, j]), exact zeros not stored, whose arrays
    own exactly its entries.  The triplet indices are int32, the index type
    of CSR with fewer than 2^31 rows."""
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape)
    out = sp.coo_matrix((local.ravel(), (rows.astype(np.int32).ravel(),
                                         cols.astype(np.int32).ravel())),
                        shape=shape).tocsr()
    out.eliminate_zeros()
    # tocsr() sums the duplicates in place and trims the arrays by slicing,
    # so they would still hold a slot per triplet: copy the nnz entries
    out.data, out.indices = out.data.copy(), out.indices.copy()
    return out


# Cell chunks scattered to CSR at a time: 4096 cells.  A scattered part has
# an index-pointer entry per row whatever its size, so a group spans several
# chunks; a larger group holds more triplets at once (4096 P1 vector cells
# give 147,456, 2.4 MB with their indices).
GROUP_CHUNKS = 8


def _cell_matrix(row_space, col_space, kernel):
    """Matrix accumulated from the per-cell blocks kernel(cells).  The
    blocks of GROUP_CHUNKS cell chunks are scattered to CSR before the next
    group is computed, and the parts are summed pairwise as they come, so
    no array holds an entry per cell and block entry."""
    shape = (row_space.dof_count, col_space.dof_count)
    chunks = cell_chunks(row_space.mesh)
    sums = []   # (sum of 2^k consecutive parts, 2^k), k decreasing
    while group := list(islice(chunks, GROUP_CHUNKS)):
        cells = slice(group[0].start, group[-1].stop)
        part = _scatter_matrix(row_space.cell_dofs[cells],
                               col_space.cell_dofs[cells],
                               np.concatenate([kernel(c) for c in group]),
                               shape)
        count = 1
        while sums and sums[-1][1] == count:
            part, count = sums.pop()[0] + part, 2 * count
        sums.append((part, count))
    return sum((part for part, _ in sums[1:]), sums[0][0])


def _scatter_vector(dofs, local, size):
    """Accumulate local values at dofs, both flattened, in their order."""
    vec = np.zeros(size)
    np.add.at(vec, dofs.ravel(), local.ravel())
    return vec


_I2 = np.eye(2)


def _stiffness_parts(space, cells):
    """Per-cell integrals of grad phi_i . grad phi_j, shape (m, i, j), and of
    d_a phi_i d_b phi_j, shape (m, i, a, j, b), of the scalar basis: the
    cell factors W[c, a, b, p, r] = |detJ| Jinv[p, a] Jinv[r, b] times the
    reference tensor grad_grad[i, p, j, r], one matrix product."""
    _, Jinv, detJ = space.mesh.affine_maps()
    Jt = np.swapaxes(Jinv[cells], 1, 2)                      # (m, a, p)
    W = ((np.abs(detJ[cells])[:, None, None] * Jt)[:, :, None, :, None]
         * Jt[:, None, :, None, :])                          # (m, a, b, p, r)
    G = reference_tensors(space.order).grad_grad            # (i, p, j, r)
    D = W.reshape(-1, 4) @ G.transpose(1, 3, 0, 2).reshape(4, -1)
    D = D.reshape(W.shape[:3] + G.shape[::2]).transpose(0, 3, 1, 4, 2)
    return np.einsum("ciaja->cij", D), D


def _mass_local(space, cells):
    """Per-cell integrals of phi_i phi_j (scalar basis)."""
    _, _, detJ = space.mesh.affine_maps()
    return (np.abs(detJ[cells])[:, None, None]
            * reference_tensors(space.order).mass)


def _vector_form(space, grad=0.0, sym=0.0, div=0.0, mass=0.0):
    """Matrix of grad (grad u, grad v) + sym (grad u^T, grad v) + div (div u,
    div v) + mass (u, v) on a vector space, summed in this order without the
    terms of weight 0: the stiffness and every vector norm Gram."""
    _require_vector(space)
    nloc = 2 * space.scalar_basis_size

    def local(cells):
        gg, D = _stiffness_parts(space, cells)
        terms = []
        if grad:
            terms.append(grad * np.einsum("cij,ab->ciajb", gg, _I2))
        if sym:
            terms.append(sym * D.transpose(0, 1, 4, 3, 2))
        if div:
            terms.append(div * D)
        if mass:
            terms.append(mass * np.einsum("cij,ab->ciajb",
                                          _mass_local(space, cells), _I2))
        return sum(terms[1:], terms[0]).reshape(-1, nloc, nloc)

    return _cell_matrix(space, space, local)


def assemble_elasticity_stiffness(space, params):
    """Volume matrix of 2 mu (eps(u), eps(v)) + lambda (div u, div v)."""
    return _vector_form(space, grad=params.mu, sym=params.mu, div=params.lam)


def _flux_tables(space, side_tags, degree=None):
    """Boundary tables for a data integral, by default at the form degree."""
    return space.boundary_tables(
        space.form_degree if degree is None else degree, side_tags)


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


def _load_moments(tab, cells, fv):
    """Per-cell integrals (f, phi_i e_d), shape (m, nsb, 2), of the force
    values fv (m, nq, 2) at the cells' points: the weighted force, component
    by component, times N in one matrix product."""
    wf = np.swapaxes(fv * tab.wdet[cells][..., None], 1, 2)   # (m, 2, nq)
    out = wf.reshape(-1, wf.shape[2]) @ tab.N                 # (m 2, nsb)
    return np.swapaxes(out.reshape(len(wf), 2, -1), 1, 2)


def assemble_load(space, f, degree=LOAD_DEGREE):
    """Right-hand side (f, v) over the domain."""
    _require_vector(space)
    tab = space.interior_tables(degree)

    def local(cells):
        x = tab.physical_points(cells)
        return _load_moments(tab, cells, f.value(x[..., 0], x[..., 1]))

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
    """Volume stiffness plus the antisymmetric flux part B^T - B on
    side_tags: the penalty-free weak-Dirichlet operator, also the velocity
    block of the mixed operator."""
    K = assemble_elasticity_stiffness(space, params)
    B = assemble_boundary_flux(space, params, side_tags)
    A = (K + (B.T - B)).tocsr()
    A.sort_indices()
    return A


def assemble_weak_system(space, params, f, g, dirichlet_sides=None,
                         neumann=None):
    """Full system with weakly imposed Dirichlet data.

    The matrix is the volume stiffness minus the flux pairing plus its
    transpose; no DOFs are eliminated and no penalty term appears.
    dirichlet_sides=None selects every side, () none.  neumann maps side
    tags to tractions, whose loads are added last.
    """
    _require_vector(space)
    sides = _dirichlet_sides(space.mesh, dirichlet_sides)
    A = _weak_operator(space, params, sides)
    rhs = assemble_load(space, f)
    rhs += assemble_flux_load(space, params, g, sides)
    _add_neumann_loads(rhs, space, neumann)
    return AssembledSystem(matrix=A, rhs=rhs,
                           points=np.arange(space.dof_count) // 2)


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


def assemble_strong_system(space, params, f, g, dirichlet_sides=None,
                           neumann=None):
    """Volume system with Dirichlet DOFs eliminated by nodal interpolation.

    neumann maps side tags to tractions; their loads enter before the
    elimination, which sets the Dirichlet rows to the nodal data.
    """
    _require_vector(space)
    sides = _dirichlet_sides(space.mesh, dirichlet_sides)
    K = assemble_elasticity_stiffness(space, params)
    rhs = assemble_load(space, f)
    _add_neumann_loads(rhs, space, neumann)
    dofs, vals = dirichlet_dofs_and_values(space, g, sides)
    A, rhs = eliminate_dofs(K, rhs, dofs, vals)
    return AssembledSystem(matrix=A, rhs=rhs,
                           points=np.arange(space.dof_count) // 2)
