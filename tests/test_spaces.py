import inspect

import numpy as np
import pytest

from elastweak.compressible import MaterialParams, assemble_weak_system
from elastweak.incompressible import assemble_pressure_mass
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.solvers import _point_blocked_order
from elastweak.spaces import (AnalyticField, FESpace, basis_hessians,
                              basis_values, cell_chunks, interpolate)
from fem_helpers import eval_in_cells, integrate_field, relabeled, unique_edges
from oracles import mesh_point_order


def test_dof_counts_minimal_mesh():
    mesh = build_unit_square_mesh(1)
    assert FESpace(mesh, 1, 1).dof_count == 4
    assert FESpace(mesh, 2, 1).dof_count == 9    # 4 vertices + 5 edges
    assert FESpace(mesh, 1, 2).dof_count == 8


@pytest.mark.parametrize("build", [build_unit_square_mesh, build_cook_mesh])
@pytest.mark.parametrize("order", [1, 2])
def test_point_order_is_a_repeatable_permutation(build, order):
    # the order in which a sparse LU eliminates a space's points, derived
    # from a system on the space and the point of each unknown
    V = FESpace(build(6), order, 2)

    def points_in_order(V):
        zero = AnalyticField.constant_vector(0.0, 0.0)
        system = assemble_weak_system(V, MaterialParams(1.0, 1.0), zero, zero)
        return _point_blocked_order(system.matrix, system.points)[0::2] // 2

    points = points_in_order(V)
    assert np.array_equal(np.sort(points), np.arange(V.scalar_dof_count))
    assert np.array_equal(points, mesh_point_order(V))
    # the scalar space on the mesh has the same points, and a new mesh and
    # space give the same order
    Q = FESpace(V.mesh, order, 1)
    mass = assemble_pressure_mass(Q)
    assert np.array_equal(
        _point_blocked_order(mass, np.arange(Q.dof_count)), points)
    again = points_in_order(FESpace(build(6), order, 2))
    assert again.tobytes() == points.tobytes()


def test_dof_count_formula():
    mesh = build_unit_square_mesh(4)
    V, E = mesh.num_vertices, len(unique_edges(mesh))
    assert FESpace(mesh, 1, 1).dof_count == V
    assert FESpace(mesh, 2, 1).dof_count == V + E
    assert FESpace(mesh, 2, 2).dof_count == 2 * (V + E)


def test_cell_dof_lengths():
    mesh = build_unit_square_mesh(3)
    for order, comps in ((1, 1), (1, 2), (2, 1), (2, 2)):
        space = FESpace(mesh, order, comps)
        nloc = comps * (order + 1) * (order + 2) // 2
        assert space.cell_dofs.shape == (mesh.num_triangles, nloc)


def test_invalid_order_rejected():
    mesh = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        FESpace(mesh, 3, 1)
    with pytest.raises(ValueError):
        FESpace(mesh, 1, 3)


def test_basis_kronecker_and_partition_of_unity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    N, _ = basis_values(1, pts)
    assert np.allclose(N, np.eye(3))
    rng = np.random.default_rng(3)
    rand = rng.dirichlet((1, 1, 1), size=20)[:, :2]
    for order in (1, 2):
        N, dN = basis_values(order, rand)
        assert np.abs(N.sum(axis=1) - 1.0).max() < 1e-13
        assert np.abs(dN.sum(axis=1)).max() < 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_basis_hessians_match_differenced_gradients(order):
    # central differences are exact for the (at most linear) gradients
    pts = np.array([[0.2, 0.3], [0.6, 0.1], [0.05, 0.85]])
    step = 1e-3
    for b, shift in enumerate(np.eye(2) * step):
        _, up = basis_values(order, pts + shift)
        _, down = basis_values(order, pts - shift)
        diff = (up - down) / (2.0 * step)          # (np, nsb, a)
        expected = np.broadcast_to(basis_hessians(order)[:, :, b], diff.shape)
        assert np.abs(diff - expected).max() < 1e-10


def test_p2_edge_midpoint_values():
    N, _ = basis_values(2, np.array([[0.5, 0.0]]))
    assert np.allclose(N[0, :3], 0.0, atol=1e-15)
    assert N[0, 3] == pytest.approx(1.0)
    assert np.allclose(N[0, 4:], 0.0, atol=1e-15)


def test_c0_continuity_across_shared_edges():
    mesh = build_unit_square_mesh(4)
    tris = np.sort(np.vstack([mesh.triangles[:, [0, 1]],
                              mesh.triangles[:, [1, 2]],
                              mesh.triangles[:, [0, 2]]]), axis=1)
    owner = np.concatenate([np.arange(mesh.num_triangles)] * 3)
    by_edge = {}
    for edge, cell in zip(map(tuple, tris.tolist()), owner):
        by_edge.setdefault(edge, []).append(int(cell))
    shared = [(e, c) for e, c in by_edge.items() if len(c) == 2]
    rng = np.random.default_rng(7)
    from elastweak.spaces import DiscreteField
    for order in (1, 2):
        space = FESpace(mesh, order, 1)
        coeffs = rng.standard_normal(space.dof_count)
        field = DiscreteField(space, coeffs)
        for edge, (c1, c2) in shared[:6]:
            p0, p1 = mesh.vertices[list(edge)]
            s = rng.uniform(0.1, 0.9, size=4)
            pts = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
            v1 = eval_in_cells(field, np.full(4, c1), pts)
            v2 = eval_in_cells(field, np.full(4, c2), pts)
            assert np.abs(v1 - v2).max() < 1e-12


def test_interpolation_reproduces_polynomials():
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(40, 2))

    const = AnalyticField.scalar(lambda x, y: 2.5 + 0 * x)
    f1 = interpolate(FESpace(mesh, 1, 1), const)
    assert np.abs(f1.coefficients - 2.5).max() < 1e-15

    lin = AnalyticField.scalar(lambda x, y: x + y)
    f2 = interpolate(FESpace(mesh, 1, 1), lin)
    cells = _locate_cells(mesh, pts)
    vals = eval_in_cells(f2, cells, pts)
    assert np.abs(vals - (pts[:, 0] + pts[:, 1])).max() < 1e-13

    quad = AnalyticField.scalar(lambda x, y: x ** 2)
    f3 = interpolate(FESpace(mesh, 2, 1), quad)
    vals = eval_in_cells(f3, cells, pts)
    assert np.abs(vals - pts[:, 0] ** 2).max() < 1e-13


def test_interpolation_random_degree_k(seed=5):
    rng = np.random.default_rng(seed)
    mesh = build_unit_square_mesh(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    cells = _locate_cells(mesh, pts)
    for order in (1, 2):
        c = rng.uniform(-1, 1, size=6)

        def poly(x, y):
            val = c[0] + c[1] * x + c[2] * y
            if order == 2:
                val = val + c[3] * x * x + c[4] * x * y + c[5] * y * y
            return val

        field = interpolate(FESpace(mesh, order, 1),
                            AnalyticField.scalar(poly))
        vals = eval_in_cells(field, cells, pts)
        assert np.abs(vals - poly(pts[:, 0], pts[:, 1])).max() <= 1e-11


def _locate_cells(mesh, pts):
    corners = mesh.triangle_corners()
    cells = np.empty(len(pts), dtype=np.int64)
    for k, p in enumerate(pts):
        for c in range(mesh.num_triangles):
            a, b, d = corners[c]
            M = np.column_stack([b - a, d - a])
            lam = np.linalg.solve(M, p - a)
            if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                cells[k] = c
                break
    return cells


def test_integrate_field_examples():
    mesh = build_unit_square_mesh(4)
    assert integrate_field(mesh, lambda x, y: 1.0 + 0 * x) == pytest.approx(1.0)
    assert integrate_field(mesh, lambda x, y: x * y) == pytest.approx(0.25)
    assert integrate_field(mesh, lambda x, y: x ** 8,
                           quadrature_degree=10) == pytest.approx(
        1.0 / 9.0, abs=1e-12)


def test_vector_interpolation_interleaving():
    mesh = build_unit_square_mesh(2)
    space = FESpace(mesh, 1, 2)
    field = interpolate(space, AnalyticField.vector(
        lambda x, y: np.stack([x, -y], axis=-1)))
    xs = space.dof_points[:, 0]
    ys = space.dof_points[:, 1]
    assert np.allclose(field.coefficients[0::2], xs)
    assert np.allclose(field.coefficients[1::2], -ys)


def test_boundary_dofs_on_sides():
    mesh = build_unit_square_mesh(2)
    space = FESpace(mesh, 2, 1)
    bottom = space.boundary_scalar_dofs(("bottom",))
    pts = space.dof_points[bottom]
    assert np.abs(pts[:, 1]).max() < 1e-15
    assert len(bottom) == 5  # 3 vertices + 2 edge midpoints


@pytest.mark.parametrize("n", [1, 3])
def test_p2_edge_dofs_follow_lexicographic_rule(n):
    # edge DOFs come after the vertices, in lexicographic order of their
    # sorted endpoint pairs; a Cook mesh is not numbered row by row, and a
    # relabeled one in no order at all
    for mesh in (build_cook_mesh(n), relabeled(build_cook_mesh(n), n)[0]):
        np.testing.assert_array_equal(mesh.edges, unique_edges(mesh))
        _check_p2_numbering(mesh)


def _check_p2_numbering(mesh):
    space = FESpace(mesh, 2, 1)
    nv = mesh.num_vertices
    edges = sorted({tuple(sorted((int(t[a]), int(t[b]))))
                    for t in mesh.triangles for a, b in ((0, 1), (1, 2), (0, 2))})
    assert space.dof_count == nv + len(edges)
    rank = {e: nv + i for i, e in enumerate(edges)}
    for c, t in enumerate(mesh.triangles):
        for loc, (a, b) in enumerate(((0, 1), (1, 2), (0, 2))):
            edge = tuple(sorted((int(t[a]), int(t[b]))))
            assert space.cell_dofs[c, 3 + loc] == rank[edge]
    for (a, b), dof in rank.items():
        assert np.array_equal(space.dof_points[dof], 0.5 * (
            mesh.vertices[a] + mesh.vertices[b]))
    for tag in mesh.side_tags:
        ends = mesh.edge_vertices[mesh.edges_of_side(tag)]
        expected = {int(v) for v in ends.ravel()} | {
            rank[tuple(sorted((int(a), int(b))))] for a, b in ends}
        assert space.boundary_scalar_dofs((tag,)).tolist() == sorted(expected)


def test_space_and_tables_freed_without_garbage_collection():
    # the boundary tables a space caches hold no reference back to it, so a
    # space's tabulation is freed when the space is unused, not at the next
    # cyclic garbage collection
    import gc
    import weakref
    mesh = build_unit_square_mesh(2)
    space = FESpace(mesh, 2, 2)
    tables = weakref.ref(space.boundary_tables(4))
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert ref() is None and tables() is None
    finally:
        gc.enable()


# n = 15, 16 and 23 give 450, 512 and 1058 cells: fewer than one block of the
# default 512, exactly one, and two blocks plus a remainder
@pytest.mark.parametrize("n", [15, 16, 23])
def test_cell_chunks_cover_every_cell_once_in_order(n):
    mesh = build_unit_square_mesh(n)
    block = inspect.signature(cell_chunks).parameters["chunk"].default
    chunks = list(cell_chunks(mesh))
    covered = np.concatenate([np.arange(mesh.num_triangles)[c] for c in chunks])
    np.testing.assert_array_equal(covered, np.arange(mesh.num_triangles))
    assert all(0 < c.stop - c.start <= block for c in chunks)
    assert len(chunks) == -(-mesh.num_triangles // block)


def _naive_gradient_moments(tab, cells, flux):
    """Sum over points of wdet flux[..., a] d_a phi_i, cell by cell, with
    d_a phi_i from dN_ref[q] and the cell's Jinv."""
    out = np.zeros((len(cells), tab.N.shape[1]) + flux.shape[2:-1])
    for k, c in enumerate(cells):
        for q in range(tab.rule.num_points):
            grad = tab.dN_ref[q] @ tab.Jinv[c]           # (nsb, a)
            out[k] += tab.wdet[c, q] * np.tensordot(grad, flux[k, q],
                                                    axes=([1], [-1]))
    return out


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("extra", [(), (2,)])
def test_gradient_moments_match_per_point_reference(order, extra):
    # the Cook mesh's Jinv is not symmetric, so a transposed map shows
    space = FESpace(build_cook_mesh(2), order, 1)
    tab = space.interior_tables(10)
    cells = range(1, space.mesh.num_triangles)
    flux = np.random.default_rng(order).standard_normal(
        (len(cells), tab.rule.num_points) + extra + (2,))
    got = tab.gradient_moments(slice(1, None), flux)
    want = _naive_gradient_moments(tab, cells, flux)
    assert got.shape == want.shape == ((len(cells), space.scalar_basis_size)
                                       + extra)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
