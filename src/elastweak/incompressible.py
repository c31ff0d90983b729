"""Assembly of the stabilized mixed system for incompressible elasticity.

Equal-order P_k/P_k velocity-pressure pairs with a Galerkin least-squares
pressure stabilization; Dirichlet data imposed weakly through boundary-flux
terms (no penalty) or strongly by nodal elimination.  The unknown vector is
[velocity DOFs, pressure DOFs, optional pressure-mean multiplier].
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .compressible import (AssembledSystem, MaterialParams, _dirichlet_sides,
                           _flux_tables, _per_cell, _require_vector,
                           _scatter_matrix, _scatter_vector,
                           assemble_boundary_flux,
                           assemble_elasticity_stiffness, assemble_flux_load,
                           assemble_load, dirichlet_dofs_and_values,
                           eliminate_dofs)
from .spaces import basis_hessians


@dataclass
class MixedSystem:
    system: AssembledSystem
    n_velocity: int
    n_pressure: int
    constraint_index: int = None

    def split(self, solution):
        """(velocity coeffs, pressure coeffs, multiplier) from a solution."""
        nu, npr = self.n_velocity, self.n_pressure
        mult = solution[nu + npr] if self.constraint_index is not None else 0.0
        return solution[:nu], solution[nu:nu + npr], float(mult)


def _check_pair(vspace, pspace):
    _require_vector(vspace)
    if pspace.components != 1:
        raise ValueError("pressure space must be scalar")
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces use different meshes")
    if vspace.order != pspace.order:
        raise ValueError("equal-order interpolation required")


def _stab_h(mesh, stab_h):
    if stab_h == "element":
        return mesh.triangle_diameters()
    if stab_h == "global":
        return np.full(mesh.num_triangles, mesh.triangle_diameters().max())
    raise ValueError("stab_h must be 'element' or 'global'")


def assemble_divergence(vspace, pspace):
    """Matrix D with D[q-test i, v-trial (j,d)] = (d_d phi_j, psi_i)."""
    _check_pair(vspace, pspace)
    vt = vspace.interior_tables(vspace.form_degree)
    pt = pspace.interior_tables(pspace.form_degree)
    nloc_p, nloc_v = pspace.cell_dofs.shape[1], vspace.cell_dofs.shape[1]

    def local(cells):
        g = vt.physical_gradients(cells)
        loc = np.einsum("cq,qi,cqjd->cijd", vt.wdet[cells], pt.N, g)
        return loc.reshape(-1, nloc_p, nloc_v)

    return _scatter_matrix(pspace.cell_dofs, vspace.cell_dofs,
                           _per_cell(vt, local),
                           (pspace.dof_count, vspace.dof_count))


def assemble_mixed_volume(vspace, pspace, params):
    """Volume part: [[2 mu (eps, eps), -(p, div v)], [(div u, q), 0]]."""
    _check_pair(vspace, pspace)
    Avv = assemble_elasticity_stiffness(vspace, MaterialParams(params.mu))
    D = assemble_divergence(vspace, pspace)
    return sp.bmat([[Avv, -D.T], [D, None]], format="csr")


def assemble_mixed_boundary_flux(vspace, pspace, params, side_tags=None):
    """Antisymmetric boundary pairing built from <(2 mu eps(u) - p I) . n, v>.

    Returns the combined contribution entering the system matrix, i.e. the
    pairing with trial/test roles swapped minus the consistency term.
    """
    _check_pair(vspace, pspace)
    Bvv = assemble_boundary_flux(vspace, MaterialParams(params.mu), side_tags)
    vb = vspace.boundary_tables(vspace.form_degree, side_tags)
    pb = pspace.boundary_tables(pspace.form_degree, side_tags)
    nU, nP = vspace.dof_count, pspace.dof_count
    # Bvp[(i,c), j] = <psi_j n_c, phi_i>
    loc = np.einsum("eq,eqi,eqj,ec->eicj", vb.w, vb.N, pb.N, vb.normal)
    loc = loc.reshape(len(vb.edge_ids), vb.cell_dofs.shape[1],
                      pb.cell_dofs.shape[1])
    Bvp = _scatter_matrix(vb.cell_dofs, pb.cell_dofs, loc, (nU, nP))
    return sp.bmat([[-Bvv + Bvv.T, Bvp], [-Bvp.T, None]], format="csr")


def _pressure_gradient_local(pt, cells, hK):
    """Per-cell integrals of h_K^2 grad psi_i . grad psi_j."""
    gp = pt.physical_gradients(cells)
    w = pt.wdet[cells] * (hK[cells] ** 2)[:, None]
    return np.einsum("cq,cqia,cqja->cij", w, gp, gp)


def _mass_local(tab, cells):
    """Per-cell integrals of phi_i phi_j (scalar basis)."""
    return np.einsum("cq,qi,qj->cij", tab.wdet[cells], tab.N, tab.N)


def assemble_pressure_stabilization(vspace, pspace, params, stab_h="element"):
    """Element-residual stabilization coupling into the mass-balance rows.

    (gamma/mu) sum_K int_K h_K^2 (-2 mu div eps(u_h) + grad p_h) . grad q_h.
    The velocity coupling vanishes identically for P1.
    """
    _check_pair(vspace, pspace)
    if params.gamma is None or params.gamma <= 0.0:
        raise ValueError("stabilization parameter gamma must be positive")
    pt = pspace.interior_tables(pspace.form_degree)
    hK = _stab_h(vspace.mesh, stab_h)
    nU, nP = vspace.dof_count, pspace.dof_count
    gamma, mu = params.gamma, params.mu

    Spp = _scatter_matrix(
        pspace.cell_dofs, pspace.cell_dofs,
        _per_cell(pt, lambda cells: (gamma / mu)
                  * _pressure_gradient_local(pt, cells, hK)),
        (nP, nP))

    if vspace.order == 1:
        Squ = sp.csr_matrix((nP, nU))
    else:
        _, Jinv, _ = vspace.geometry()
        Hhat = basis_hessians(vspace.order)
        nloc_p, nloc_v = pspace.cell_dofs.shape[1], vspace.cell_dofs.shape[1]

        def local(cells):
            gp = pt.physical_gradients(cells)
            ip = np.einsum("cq,cqia->cia", pt.wdet[cells], gp)
            M = Jinv[cells]
            H = np.einsum("mca,jcd,mdb->mjab", M, Hhat, M)
            lap = np.einsum("mjaa->mj", H)
            # -2 mu div eps(phi_{j,d}) . grad psi_i, scaled by (gamma/mu) h^2
            loc = -gamma * (hK[cells] ** 2)[:, None, None, None] * (
                np.einsum("mj,mid->mijd", lap, ip)
                + np.einsum("mjad,mia->mijd", H, ip))
            return loc.reshape(-1, nloc_p, nloc_v)

        Squ = _scatter_matrix(pspace.cell_dofs, vspace.cell_dofs,
                              _per_cell(pt, local), (nP, nU))
    zero_vv = sp.csr_matrix((nU, nU))
    return sp.bmat([[zero_vv, None], [Squ, Spp]], format="csr")


def assemble_pressure_mass(pspace):
    pt = pspace.interior_tables(pspace.form_degree)
    return _scatter_matrix(pspace.cell_dofs, pspace.cell_dofs,
                           _per_cell(pt, lambda cells: _mass_local(pt, cells)),
                           (pspace.dof_count,) * 2)


def pressure_integral_vector(pspace):
    """Vector of int_Omega psi_i dx (the pressure-mean functional)."""
    pt = pspace.interior_tables(pspace.form_degree)
    local = _per_cell(pt, lambda cells: np.einsum("cq,qi->ci", pt.wdet[cells],
                                                  pt.N))
    return _scatter_vector(pspace.cell_dofs, local, pspace.dof_count)


def _stabilized_load(pspace, params, f, hK, rhs_degree):
    """(f, (gamma/mu) h^2 grad q) entries for the mass-balance rows."""
    pt = pspace.interior_tables(rhs_degree)

    def local(cells):
        x = pt.physical_points(cells)
        fv = f.value(x[..., 0], x[..., 1])
        gp = pt.physical_gradients(cells)
        w = pt.wdet[cells] * (hK[cells] ** 2)[:, None]
        return (params.gamma / params.mu) * np.einsum("cq,cqa,cqia->ci",
                                                      w, fv, gp)

    return _scatter_vector(pspace.cell_dofs, _per_cell(pt, local),
                           pspace.dof_count)


def _pressure_flux_load(pspace, g, side_tags, degree=None):
    """Entries of -<psi_i n, g> on the selected sides."""
    pb = _flux_tables(pspace, side_tags, degree)
    gv = g.value(pb.x[..., 0], pb.x[..., 1])
    gvn = np.einsum("eqa,ea->eq", gv, pb.normal)
    loc = -np.einsum("eq,eqi->ei", pb.w * gvn, pb.N)
    return _scatter_vector(pb.cell_dofs, loc, pspace.dof_count)


def _mixed_operator(vspace, pspace, params, flux_sides, stab_h="element"):
    """Volume part plus stabilization plus the antisymmetric flux on
    flux_sides (() adds none): the mixed analogue of the compressible
    weak operator."""
    A = assemble_mixed_volume(vspace, pspace, params)
    A = A + assemble_pressure_stabilization(vspace, pspace, params, stab_h)
    if flux_sides:
        A = A + assemble_mixed_boundary_flux(vspace, pspace, params,
                                             flux_sides)
    return A


def assemble_incompressible_system(mesh, vspace, pspace, params, f, g,
                                   nearly_lambda=None, dirichlet_sides=None,
                                   bc_mode="weak", enforce_pressure_mean=None,
                                   rhs_degree=10, stab_h="element",
                                   flux_degree=None):
    """Full mixed system, optionally nearly incompressible.

    With nearly_lambda set, the mass balance becomes div u = -p/lambda (the
    pressure convention matching the momentum residual -2 mu div eps(u)
    + grad p = f), which recovers compressible elasticity as lambda -> inf.
    The pressure mean-zero constraint is appended automatically when the
    Dirichlet data covers the whole boundary and no nearly_lambda is given.
    dirichlet_sides=None selects every side, () none.  rhs_degree and
    flux_degree set the quadrature of the load and flux-load data terms.
    """
    _check_pair(vspace, pspace)
    if params.gamma is None or params.gamma <= 0.0:
        raise ValueError("stabilization parameter gamma must be positive")
    if nearly_lambda is not None and nearly_lambda <= 0.0:
        raise ValueError("nearly_lambda must be positive")
    if bc_mode not in ("weak", "strong"):
        raise ValueError("bc_mode must be 'weak' or 'strong'")
    sides = _dirichlet_sides(mesh, dirichlet_sides)
    nU, nP = vspace.dof_count, pspace.dof_count
    hK = _stab_h(mesh, stab_h)

    core = _mixed_operator(vspace, pspace, params,
                           sides if bc_mode == "weak" else (), stab_h)
    if nearly_lambda is not None:
        Mpp = assemble_pressure_mass(pspace)
        core = core + sp.bmat(
            [[sp.csr_matrix((nU, nU)), None],
             [None, (1.0 / nearly_lambda) * Mpp]], format="csr")

    rhs = np.concatenate([
        assemble_load(vspace, f, rhs_degree),
        _stabilized_load(pspace, params, f, hK, rhs_degree),
    ])
    if bc_mode == "weak":
        rhs[:nU] += assemble_flux_load(vspace, MaterialParams(params.mu), g,
                                       sides, flux_degree)
        rhs[nU:] += _pressure_flux_load(pspace, g, sides, flux_degree)

    if enforce_pressure_mean is None:
        enforce_pressure_mean = (set(sides) == set(mesh.side_tags)
                                 and nearly_lambda is None)

    constraint_index = None
    if enforce_pressure_mean:
        mvec = np.concatenate([np.zeros(nU), pressure_integral_vector(pspace)])
        core = sp.bmat([[core, mvec[:, None]], [mvec[None, :], None]],
                       format="csr")
        rhs = np.concatenate([rhs, [0.0]])
        constraint_index = nU + nP

    if bc_mode == "strong":
        dofs, vals = dirichlet_dofs_and_values(vspace, g, sides)
        core, rhs = eliminate_dofs(core.tocsr(), rhs, dofs, vals)

    core = core.tocsr()
    core.sort_indices()
    meta = {"bc": bc_mode, "dirichlet_sides": sides,
            "pressure_mean": bool(enforce_pressure_mean),
            "nearly_lambda": nearly_lambda}
    system = AssembledSystem(matrix=core, rhs=rhs, dof_count=core.shape[0],
                             constraint_meta=meta)
    return MixedSystem(system=system, n_velocity=nU, n_pressure=nP,
                       constraint_index=constraint_index)
