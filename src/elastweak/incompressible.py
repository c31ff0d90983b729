"""Assembly of the stabilized mixed system for incompressible elasticity.

Equal-order P_k/P_k velocity-pressure pairs with a Galerkin least-squares
pressure stabilization; Dirichlet data imposed weakly through boundary-flux
terms (no penalty) or strongly by nodal elimination.  The unknown vector is
[velocity DOFs, pressure DOFs].
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .compressible import (_I2, LOAD_DEGREE, AssembledSystem,
                           MaterialParams, _add_neumann_loads, _cell_matrix,
                           _dirichlet_sides, _flux_tables, _load_moments,
                           _mass_local, _per_cell, _require_vector,
                           _scatter_matrix, _scatter_vector,
                           _stiffness_parts, _weak_operator,
                           assemble_flux_load, dirichlet_dofs_and_values,
                           eliminate_dofs)
from .spaces import basis_hessians, reference_tensors


@dataclass
class MixedSystem:
    system: AssembledSystem
    n_velocity: int
    # the unknown count when the constant pressure spans both kernels of the
    # matrix and the solve fixes the pressure mean, else None: the index a
    # mean multiplier would take; perfbench/tracer.py counts systems by it
    constraint_index: int = None

    def split(self, solution):
        """(velocity coeffs, pressure coeffs) from a solution."""
        return solution[:self.n_velocity], solution[self.n_velocity:]


def _check_pair(vspace, pspace):
    _require_vector(vspace)
    if pspace.components != 1:
        raise ValueError("pressure space must be scalar")
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces use different meshes")
    if vspace.order != pspace.order:
        raise ValueError("equal-order interpolation required")


def _stab_h(mesh):
    """Element length h_K of the stabilization: the triangle diameters."""
    return mesh.triangle_diameters()


def assemble_divergence(vspace, pspace):
    """Matrix D with D[q-test i, v-trial (j,d)] = (d_d phi_j, psi_i): the
    cell factors |detJ| Jinv[p, e] times the reference tensor
    value_grad[i, j, p] delta_ed, one matrix product."""
    _check_pair(vspace, pspace)
    _, Jinv, detJ = vspace.mesh.affine_maps()
    T = reference_tensors(vspace.order).value_grad          # (i, j, p)
    K = np.einsum("ijp,ed->peijd", T, _I2).reshape(4, -1)
    nloc_p, nloc_v = pspace.cell_dofs.shape[1], vspace.cell_dofs.shape[1]

    def local(cells):
        W = np.abs(detJ[cells])[:, None, None] * Jinv[cells]     # (m, p, e)
        return (W.reshape(-1, 4) @ K).reshape(-1, nloc_p, nloc_v)

    return _cell_matrix(pspace, vspace, local)


def assemble_mixed_boundary_flux(vspace, pspace, side_tags=None):
    """Pressure part Bvp[(i,c), j] = <psi_j n_c, phi_i> of the boundary
    pairing <(2 mu eps(u) - p I) . n, v>; its velocity part is the flux of
    the compressible weak operator."""
    _check_pair(vspace, pspace)
    vb = vspace.boundary_tables(vspace.form_degree, side_tags)
    pb = pspace.boundary_tables(pspace.form_degree, side_tags)
    loc = np.einsum("eq,eqi,eqj,ec->eicj", vb.w, vb.N, pb.N, vb.normal)
    loc = loc.reshape(len(vb.edge_ids), vb.cell_dofs.shape[1],
                      pb.cell_dofs.shape[1])
    return _scatter_matrix(vb.cell_dofs, pb.cell_dofs, loc,
                           (vspace.dof_count, pspace.dof_count))


def _pressure_h2_gram(pspace, hK):
    """Matrix of sum_K h_K^2 (grad psi_j, grad psi_i)_K."""
    return _cell_matrix(pspace, pspace, lambda cells: (
        (hK[cells] ** 2)[:, None, None] * _stiffness_parts(pspace, cells)[0]))


def assemble_pressure_stabilization(vspace, pspace, params):
    """Element-residual stabilization coupling into the mass-balance rows.

    (gamma/mu) sum_K int_K h_K^2 (-2 mu div eps(u_h) + grad p_h) . grad q_h
    as the blocks (Squ, Spp) of the velocity and pressure trials.  The
    velocity coupling Squ vanishes identically for P1.
    """
    _check_pair(vspace, pspace)
    if params.gamma is None or params.gamma <= 0.0:
        raise ValueError("stabilization parameter gamma must be positive")
    hK = _stab_h(vspace.mesh)
    gamma, mu = params.gamma, params.mu

    Spp = (gamma / mu) * _pressure_h2_gram(pspace, hK)

    if vspace.order == 1:
        Squ = sp.csr_matrix((pspace.dof_count, vspace.dof_count))
    else:
        _, Jinv, detJ = vspace.mesh.affine_maps()
        Hhat = basis_hessians(vspace.order)
        grad_ref = reference_tensors(pspace.order).grad
        nloc_p, nloc_v = pspace.cell_dofs.shape[1], vspace.cell_dofs.shape[1]

        def local(cells):
            M = Jinv[cells]
            # ip[c, i, a] = int_K d_a psi_i
            ip = np.einsum("c,ip,cpa->cia", np.abs(detJ[cells]), grad_ref, M)
            H = np.einsum("mca,jcd,mdb->mjab", M, Hhat, M)
            # -2 mu div eps(phi_j e_d) = -mu (lap phi_j e_d + grad d_d phi_j)
            # has component a -mu R[m, j, a, d]; the weight is (gamma/mu) h^2
            R = H + np.einsum("mjaa->mj", H)[..., None, None] * _I2
            loc = -gamma * (hK[cells] ** 2)[:, None, None, None] * np.einsum(
                "mjad,mia->mijd", R, ip)
            return loc.reshape(-1, nloc_p, nloc_v)

        Squ = _cell_matrix(pspace, vspace, local)
    return Squ, Spp


def assemble_pressure_mass(pspace):
    return _cell_matrix(pspace, pspace, lambda c: _mass_local(pspace, c))


def pressure_integral_vector(pspace):
    """Vector of int_Omega psi_i dx (the pressure-mean functional)."""
    _, _, detJ = pspace.mesh.affine_maps()
    local = np.abs(detJ)[:, None] * reference_tensors(pspace.order).value
    return _scatter_vector(pspace.cell_dofs, local, pspace.dof_count)


def _mixed_load(vspace, pspace, params, f, degree=LOAD_DEGREE):
    """Body-force rows of the mixed system: (f, v) for the velocity and
    (f, (gamma/mu) h^2 grad q) for the mass balance, from one evaluation of
    f per cell block on the velocity's tables, which serve the equal-order
    pressure as well."""
    tab = vspace.interior_tables(degree)
    scale = (params.gamma / params.mu) * _stab_h(vspace.mesh) ** 2

    def local(cells):
        x = tab.physical_points(cells)
        fv = f.value(x[..., 0], x[..., 1])
        return np.hstack([
            _load_moments(tab, cells, fv).reshape(len(fv), -1),
            scale[cells][:, None] * tab.gradient_moments(cells, fv)])

    dofs = np.hstack([vspace.cell_dofs, vspace.dof_count + pspace.cell_dofs])
    return _scatter_vector(dofs, _per_cell(vspace.mesh, local),
                           vspace.dof_count + pspace.dof_count)


def _pressure_flux_load(pspace, g, side_tags, degree=None):
    """Entries of -<psi_i n, g> on the selected sides."""
    pb = _flux_tables(pspace, side_tags, degree)
    gv = g.value(pb.x[..., 0], pb.x[..., 1])
    gvn = np.einsum("eqa,ea->eq", gv, pb.normal)
    loc = -np.einsum("eq,eqi->ei", pb.w * gvn, pb.N)
    return _scatter_vector(pb.cell_dofs, loc, pspace.dof_count)


def _mixed_operator(vspace, pspace, params, flux_sides, nearly_lambda=None):
    """The mixed operator as one block matrix, with the antisymmetric flux
    on flux_sides (() adds none):

        [[A_mu,              -D^T + Bvp],
         [D + Squ - Bvp^T,   Spp + M/lambda]]

    A_mu is the compressible weak operator with lambda = 0.  The pressure
    mass M/lambda of div u = -p/lambda comes with nearly_lambda.  Exact
    zeros are not stored."""
    D = assemble_divergence(vspace, pspace)
    Squ, Spp = assemble_pressure_stabilization(vspace, pspace, params)
    Avv = _weak_operator(vspace, MaterialParams(params.mu), flux_sides)
    Bvp = assemble_mixed_boundary_flux(vspace, pspace, flux_sides)
    if nearly_lambda is not None:
        Spp = Spp + (1.0 / nearly_lambda) * assemble_pressure_mass(pspace)
    A = sp.bmat([[Avv, -D.T + Bvp], [D + Squ - Bvp.T, Spp]], format="csr")
    A.eliminate_zeros()
    A.sort_indices()
    return A


def _mixed_points(vspace, pspace):
    """Mesh point of each [u, p] unknown: velocity pairs and pressures share
    the scalar DOFs' points."""
    return np.concatenate([np.arange(vspace.dof_count) // 2,
                           np.arange(pspace.dof_count)])


def assemble_incompressible_system(vspace, pspace, params, f, g,
                                   nearly_lambda=None, dirichlet_sides=None,
                                   bc_mode="weak", neumann=None):
    """Full mixed system, optionally nearly incompressible.

    With nearly_lambda set, the mass balance becomes div u = -p/lambda (the
    pressure convention matching the momentum residual -2 mu div eps(u)
    + grad p = f), which recovers compressible elasticity as lambda -> inf.
    When the Dirichlet data covers the whole boundary and no nearly_lambda
    is given, the constant pressure spans the left and right kernels of the
    square [u, p] matrix, and constraint_index marks the system for the
    mean-zero solve.  dirichlet_sides=None selects every side, () none.
    neumann maps side tags to tractions; their loads enter the velocity
    rows after the flux loads and before any strong elimination.
    """
    _check_pair(vspace, pspace)
    if params.gamma is None or params.gamma <= 0.0:
        raise ValueError("stabilization parameter gamma must be positive")
    if nearly_lambda is not None and not nearly_lambda > 0.0:
        raise ValueError("nearly_lambda must be positive")
    if bc_mode not in ("weak", "strong"):
        raise ValueError("bc_mode must be 'weak' or 'strong'")
    sides = _dirichlet_sides(vspace.mesh, dirichlet_sides)
    nU, nP = vspace.dof_count, pspace.dof_count
    mean = set(sides) == set(vspace.mesh.side_tags) and nearly_lambda is None

    matrix = _mixed_operator(vspace, pspace, params,
                             sides if bc_mode == "weak" else (), nearly_lambda)

    rhs = _mixed_load(vspace, pspace, params, f)
    if bc_mode == "weak":
        rhs[:nU] += assemble_flux_load(vspace, MaterialParams(params.mu), g,
                                       sides)
        rhs[nU:] += _pressure_flux_load(pspace, g, sides)
    _add_neumann_loads(rhs, vspace, neumann)

    if bc_mode == "strong":
        dofs, vals = dirichlet_dofs_and_values(vspace, g, sides)
        matrix, rhs = eliminate_dofs(matrix, rhs, dofs, vals)

    system = AssembledSystem(matrix=matrix, rhs=rhs,
                             points=_mixed_points(vspace, pspace))
    return MixedSystem(system=system, n_velocity=nU,
                       constraint_index=nU + nP if mean else None)
