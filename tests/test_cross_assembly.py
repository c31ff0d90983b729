"""Entry-wise comparison of the vectorized assembly against a naive
loop-based reference implementation on small meshes.

The P1 references use constant gradients on the unit square; the others
loop over cells and quadrature points of the Cook membrane, whose cells are
not right-angled, so that the element matrices see general affine maps."""

import numpy as np
import pytest

from elastweak.compressible import (MaterialParams, assemble_boundary_flux,
                                    assemble_elasticity_stiffness,
                                    assemble_flux_load)
from elastweak.incompressible import (assemble_divergence,
                                      assemble_mixed_boundary_flux,
                                      assemble_pressure_mass,
                                      assemble_pressure_stabilization)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.quadrature import edge_rule, triangle_rule
from elastweak.spaces import (AnalyticField, FESpace, basis_hessians,
                              basis_values)

P1_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _cell_geometry(mesh, c):
    p = mesh.vertices[mesh.triangles[c]]
    J = np.column_stack([p[1] - p[0], p[2] - p[0]])
    return p, J, np.linalg.inv(J), 0.5 * abs(np.linalg.det(J))


def test_stiffness_matches_naive_reference():
    mu, lam = 1.3, 2.7
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    n = V.dof_count
    ref = np.zeros((n, n))
    for c in range(mesh.num_triangles):
        vs = mesh.triangles[c]
        _, _, Jinv, area = _cell_geometry(mesh, c)
        g = P1_GRADS @ Jinv
        for i in range(3):
            for a in range(2):
                for j in range(3):
                    for b in range(2):
                        val = (mu * ((a == b) * (g[i] @ g[j]) + g[i][b] * g[j][a])
                               + lam * g[i][a] * g[j][b])
                        ref[2 * vs[i] + a, 2 * vs[j] + b] += val * area
    K = assemble_elasticity_stiffness(V, MaterialParams(mu, lam)).toarray()
    assert np.abs(K - ref).max() < 1e-13


def test_boundary_flux_matches_naive_reference():
    mu, lam = 1.3, 2.7
    mesh = build_unit_square_mesh(3)
    V = FESpace(mesh, 1, 2)
    n = V.dof_count
    ref = np.zeros((n, n))
    gauss = (0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3))
    for e in range(mesh.num_boundary_edges):
        v0, v1 = mesh.edge_vertices[e]
        nrm = mesh.edge_normal[e]
        own = mesh.edge_owner[e]
        vs = mesh.triangles[own]
        p, _, Jinv, _ = _cell_geometry(mesh, own)
        g = P1_GRADS @ Jinv
        P0, P1 = mesh.vertices[v0], mesh.vertices[v1]
        w = 0.5 * np.linalg.norm(P1 - P0)
        for s in gauss:
            x = P0 + s * (P1 - P0)
            lam1, lam2 = Jinv @ (x - p[0])
            N = np.array([1 - lam1 - lam2, lam1, lam2])
            for i in range(3):
                for c in range(2):
                    for j in range(3):
                        for d in range(2):
                            flux = mu * ((c == d) * (g[j] @ nrm)
                                         + nrm[d] * g[j][c])
                            val = N[i] * (flux + lam * nrm[c] * g[j][d])
                            ref[2 * vs[i] + c, 2 * vs[j] + d] += w * val
    B = assemble_boundary_flux(V, MaterialParams(mu, lam)).toarray()
    assert np.abs(B - ref).max() < 1e-13


def test_divergence_matrix_matches_naive_reference():
    mesh = build_unit_square_mesh(2)
    V = FESpace(mesh, 1, 2)
    Q = FESpace(mesh, 1, 1)
    ref = np.zeros((Q.dof_count, V.dof_count))
    # (d_d phi_j, psi_i): psi linear, grad phi constant -> one-point rule at
    # the centroid is exact
    for c in range(mesh.num_triangles):
        vs = mesh.triangles[c]
        _, _, Jinv, area = _cell_geometry(mesh, c)
        g = P1_GRADS @ Jinv
        for i in range(3):
            for j in range(3):
                for d in range(2):
                    ref[vs[i], 2 * vs[j] + d] += area * (1.0 / 3.0) * g[j][d]
    D = assemble_divergence(V, Q).toarray()
    assert np.abs(D - ref).max() < 1e-13


# -- per-point loops on the Cook membrane -------------------------------------


def _cell_points(mesh, order, c):
    """Basis values (q, i), physical gradients (q, i, a) and weights times
    |det J| at the points of a rule exact for products of two basis
    functions in cell c."""
    _, _, Jinv, area = _cell_geometry(mesh, c)
    rule = triangle_rule(2 * order)
    N, dN = basis_values(order, rule.points)
    return N, dN @ Jinv, 2.0 * area * rule.weights


def _assert_matches(A, ref):
    assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()


def test_p2_stiffness_matches_naive_reference():
    mu, lam = 1.3, 2.7
    mesh = build_cook_mesh(2)
    V = FESpace(mesh, 2, 2)
    ref = np.zeros((V.dof_count, V.dof_count))
    for c in range(mesh.num_triangles):
        dofs = V.cell_dofs[c]
        _, g, w = _cell_points(mesh, 2, c)
        for q in range(len(w)):
            for i in range(6):
                for a in range(2):
                    for j in range(6):
                        for b in range(2):
                            val = (mu * ((a == b) * (g[q, i] @ g[q, j])
                                         + g[q, i, b] * g[q, j, a])
                                   + lam * g[q, i, a] * g[q, j, b])
                            ref[dofs[2 * i + a], dofs[2 * j + b]] += w[q] * val
    K = assemble_elasticity_stiffness(V, MaterialParams(mu, lam)).toarray()
    _assert_matches(K, ref)


@pytest.mark.parametrize("order", [1, 2])
def test_pressure_mass_matches_naive_reference(order):
    mesh = build_cook_mesh(2)
    Q = FESpace(mesh, order, 1)
    ref = np.zeros((Q.dof_count, Q.dof_count))
    for c in range(mesh.num_triangles):
        dofs = Q.cell_dofs[c]
        N, _, w = _cell_points(mesh, order, c)
        for q in range(len(w)):
            ref[np.ix_(dofs, dofs)] += w[q] * np.outer(N[q], N[q])
    _assert_matches(assemble_pressure_mass(Q).toarray(), ref)


def _stabilization_blocks(order, gamma, mu):
    mesh = build_cook_mesh(2)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    S = assemble_pressure_stabilization(
        V, Q, MaterialParams(mu, gamma=gamma)).toarray()
    nU = V.dof_count
    return mesh, V, Q, S[nU:, :nU], S[nU:, nU:]


@pytest.mark.parametrize("order", [1, 2])
def test_pressure_stabilization_spp_matches_naive_reference(order):
    gamma, mu = 0.3, 1.7
    mesh, _, Q, _, Spp = _stabilization_blocks(order, gamma, mu)
    hK = mesh.triangle_diameters()
    ref = np.zeros((Q.dof_count, Q.dof_count))
    for c in range(mesh.num_triangles):
        dofs = Q.cell_dofs[c]
        _, g, w = _cell_points(mesh, order, c)
        for q in range(len(w)):
            ref[np.ix_(dofs, dofs)] += ((gamma / mu) * hK[c] ** 2 * w[q]
                                        * g[q] @ g[q].T)
    _assert_matches(Spp, ref)


def test_p2_pressure_stabilization_squ_matches_naive_reference():
    # (gamma/mu) h_K^2 (-2 mu div eps(phi_j e_d), grad psi_i)_K with
    # -2 div eps(phi e_d) = -(lap phi e_d + grad d_d phi)
    gamma, mu = 0.3, 1.7
    mesh, V, Q, Squ, _ = _stabilization_blocks(2, gamma, mu)
    hK = mesh.triangle_diameters()
    Hhat = basis_hessians(2)
    ref = np.zeros((Q.dof_count, V.dof_count))
    for c in range(mesh.num_triangles):
        pdofs, vdofs = Q.cell_dofs[c], V.cell_dofs[c]
        _, _, Jinv, _ = _cell_geometry(mesh, c)
        _, g, w = _cell_points(mesh, 2, c)
        for j in range(6):
            H = Jinv.T @ Hhat[j] @ Jinv
            for d in range(2):
                residual = -mu * (np.trace(H) * np.eye(2)[d] + H[:, d])
                for q in range(len(w)):
                    for i in range(6):
                        ref[pdofs[i], vdofs[2 * j + d]] += (
                            (gamma / mu) * hK[c] ** 2 * w[q]
                            * residual @ g[q, i])
    _assert_matches(Squ, ref)


def test_p2_divergence_matrix_matches_naive_reference():
    mesh = build_cook_mesh(2)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    ref = np.zeros((Q.dof_count, V.dof_count))
    for c in range(mesh.num_triangles):
        pdofs, vdofs = Q.cell_dofs[c], V.cell_dofs[c]
        N, g, w = _cell_points(mesh, 2, c)
        for q in range(len(w)):
            for i in range(6):
                for j in range(6):
                    for d in range(2):
                        ref[pdofs[i], vdofs[2 * j + d]] += (w[q] * N[q, i]
                                                            * g[q, j, d])
    _assert_matches(assemble_divergence(V, Q).toarray(), ref)


# -- per-point loops over the Cook membrane's boundary edges -------------------


def _edge_points(mesh, order, e, degree):
    """Points x, basis values N (i,), physical gradients g (i, a) and
    weights w along boundary edge e, evaluated in its owner cell."""
    p, _, Jinv, _ = _cell_geometry(mesh, mesh.edge_owner[e])
    P0, P1 = mesh.vertices[mesh.edge_vertices[e]]
    rule = edge_rule(degree)
    for s, w in zip(rule.points[:, 0], rule.weights):
        x = P0 + s * (P1 - P0)
        N, dN = basis_values(order, (Jinv @ (x - p[0]))[None, :])
        yield x, N[0], dN[0] @ Jinv, w * np.linalg.norm(P1 - P0)


def _naive_boundary_flux(mesh, V, mu, lam):
    """<2 mu eps(u) . n + lam div u n, v> entry by entry."""
    nsb = V.scalar_basis_size
    ref = np.zeros((V.dof_count, V.dof_count))
    for e in range(mesh.num_boundary_edges):
        nrm = mesh.edge_normal[e]
        dofs = V.cell_dofs[mesh.edge_owner[e]]
        for _, N, g, w in _edge_points(mesh, V.order, e, V.form_degree):
            for i in range(nsb):
                for c in range(2):
                    for j in range(nsb):
                        for d in range(2):
                            flux = (mu * ((c == d) * (g[j] @ nrm)
                                          + nrm[d] * g[j][c])
                                    + lam * nrm[c] * g[j][d])
                            ref[dofs[2 * i + c], dofs[2 * j + d]] += (
                                w * N[i] * flux)
    return ref


def test_p2_boundary_flux_matches_naive_reference():
    mu, lam = 1.3, 2.7
    mesh = build_cook_mesh(2)
    V = FESpace(mesh, 2, 2)
    _assert_matches(assemble_boundary_flux(V, MaterialParams(mu, lam))
                    .toarray(), _naive_boundary_flux(mesh, V, mu, lam))


TRIG = AnalyticField.vector(lambda x, y: np.stack(
    [np.sin(x / 7.0) * np.cos(y / 5.0), np.cos(x / 3.0) + np.sin(y / 11.0)],
    axis=-1))


@pytest.mark.parametrize("order", [1, 2])
def test_flux_load_matches_naive_reference(order):
    # <2 mu eps(v) . n + lam div v n, g>, on the same edge rule
    mu, lam = 1.3, 2.7
    mesh = build_cook_mesh(2)
    V = FESpace(mesh, order, 2)
    ref = np.zeros(V.dof_count)
    for e in range(mesh.num_boundary_edges):
        nrm = mesh.edge_normal[e]
        dofs = V.cell_dofs[mesh.edge_owner[e]]
        for x, _, g, w in _edge_points(mesh, order, e, V.data_degree):
            gv = TRIG.value(x[0], x[1])
            for i in range(V.scalar_basis_size):
                for c in range(2):
                    val = (mu * (gv[c] * (g[i] @ nrm) + nrm[c] * (g[i] @ gv))
                           + lam * (gv @ nrm) * g[i][c])
                    ref[dofs[2 * i + c]] += w * val
    _assert_matches(assemble_flux_load(V, MaterialParams(mu, lam), TRIG), ref)


def test_mixed_boundary_flux_matches_naive_reference():
    # [[-Bvv + Bvv^T, Bvp], [-Bvp^T, 0]] with Bvv the mu-only flux and
    # Bvp[(i,c), j] = <psi_j n_c, phi_i>
    mu = 1.3
    mesh = build_cook_mesh(2)
    V, Q = FESpace(mesh, 2, 2), FESpace(mesh, 2, 1)
    Bvp = np.zeros((V.dof_count, Q.dof_count))
    for e in range(mesh.num_boundary_edges):
        nrm = mesh.edge_normal[e]
        own = mesh.edge_owner[e]
        vdofs, pdofs = V.cell_dofs[own], Q.cell_dofs[own]
        for _, N, _, w in _edge_points(mesh, 2, e, V.form_degree):
            for i in range(6):
                for c in range(2):
                    for j in range(6):
                        Bvp[vdofs[2 * i + c], pdofs[j]] += (w * N[j] * nrm[c]
                                                           * N[i])
    Bvv = _naive_boundary_flux(mesh, V, mu, 0.0)
    ref = np.block([[-Bvv + Bvv.T, Bvp],
                    [-Bvp.T, np.zeros((Q.dof_count, Q.dof_count))]])
    M = assemble_mixed_boundary_flux(V, Q, MaterialParams(mu, 2.7, gamma=0.1))
    _assert_matches(M.toarray(), ref)
