import numpy as np
import pytest

from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.spaces import (AnalyticField, basis_values, build_space,
                              integrate_field, interpolate)


def test_dof_counts_minimal_mesh():
    mesh = build_unit_square_mesh(1)
    assert build_space(mesh, 1, 1).dof_count == 4
    assert build_space(mesh, 2, 1).dof_count == 9    # 4 vertices + 5 edges
    assert build_space(mesh, 1, 2).dof_count == 8


def test_dof_count_formula():
    mesh = build_unit_square_mesh(4)
    V, E = mesh.num_vertices, len(mesh.unique_edges())
    assert build_space(mesh, 1, 1).dof_count == V
    assert build_space(mesh, 2, 1).dof_count == V + E
    assert build_space(mesh, 2, 2).dof_count == 2 * (V + E)


def test_cell_dof_lengths():
    mesh = build_unit_square_mesh(3)
    for order, comps in ((1, 1), (1, 2), (2, 1), (2, 2)):
        space = build_space(mesh, order, comps)
        nloc = comps * (order + 1) * (order + 2) // 2
        assert space.cell_dofs.shape == (mesh.num_triangles, nloc)


def test_invalid_order_rejected():
    mesh = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        build_space(mesh, 3, 1)
    with pytest.raises(ValueError):
        build_space(mesh, 1, 3)


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
        space = build_space(mesh, order, 1)
        coeffs = rng.standard_normal(space.dof_count)
        field = DiscreteField(space, coeffs)
        for edge, (c1, c2) in shared[:6]:
            p0, p1 = mesh.vertices[list(edge)]
            s = rng.uniform(0.1, 0.9, size=4)
            pts = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
            v1 = field.eval_in_cells(np.full(4, c1), pts)
            v2 = field.eval_in_cells(np.full(4, c2), pts)
            assert np.abs(v1 - v2).max() < 1e-12


def test_interpolation_reproduces_polynomials():
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(40, 2))

    const = AnalyticField.scalar(lambda x, y: 2.5 + 0 * x)
    f1 = interpolate(build_space(mesh, 1, 1), const)
    assert np.abs(f1.coefficients - 2.5).max() < 1e-15

    lin = AnalyticField.scalar(lambda x, y: x + y)
    f2 = interpolate(build_space(mesh, 1, 1), lin)
    cells = _locate_cells(mesh, pts)
    vals = f2.eval_in_cells(cells, pts)
    assert np.abs(vals - (pts[:, 0] + pts[:, 1])).max() < 1e-13

    quad = AnalyticField.scalar(lambda x, y: x ** 2)
    f3 = interpolate(build_space(mesh, 2, 1), quad)
    vals = f3.eval_in_cells(cells, pts)
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

        field = interpolate(build_space(mesh, order, 1),
                            AnalyticField.scalar(poly))
        vals = field.eval_in_cells(cells, pts)
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
    space = build_space(mesh, 1, 2)
    field = interpolate(space, AnalyticField.vector(
        lambda x, y: np.stack([x, -y], axis=-1)))
    xs = space.dof_points[:, 0]
    ys = space.dof_points[:, 1]
    assert np.allclose(field.coefficients[0::2], xs)
    assert np.allclose(field.coefficients[1::2], -ys)


def test_boundary_dofs_on_sides():
    mesh = build_unit_square_mesh(2)
    space = build_space(mesh, 2, 1)
    bottom = space.scalar_side_dofs("bottom")
    pts = space.dof_points[bottom]
    assert np.abs(pts[:, 1]).max() < 1e-15
    assert len(bottom) == 5  # 3 vertices + 2 edge midpoints


@pytest.mark.parametrize("n", [1, 3])
def test_p2_edge_dofs_follow_lexicographic_rule(n):
    # edge DOFs come after the vertices, in lexicographic order of their
    # sorted endpoint pairs; a Cook mesh is not numbered row by row
    mesh = build_cook_mesh(n)
    space = build_space(mesh, 2, 1)
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
        assert space.scalar_side_dofs(tag).tolist() == sorted(expected)


def test_p2_side_dofs_reject_edge_outside_triangulation():
    import dataclasses
    mesh = build_unit_square_mesh(2)
    edge_vertices = mesh.edge_vertices.copy()
    edge_vertices[0] = (0, 8)    # opposite corners: not a triangle edge
    bad = dataclasses.replace(mesh, edge_vertices=edge_vertices)
    tag = mesh.side_tags[int(mesh.edge_tag[0])]
    with pytest.raises(ValueError, match="no triangle"):
        build_space(bad, 2, 1).scalar_side_dofs(tag)


def test_space_and_tables_freed_without_garbage_collection():
    # the tables a space caches hold no reference back to it, so a space's
    # tabulation is freed when the space is unused, not at the next cyclic
    # garbage collection
    import gc
    import weakref
    mesh = build_unit_square_mesh(2)
    space = build_space(mesh, 2, 2)
    tables = weakref.ref(space.interior_tables(4))
    space.boundary_tables(4)
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert ref() is None and tables() is None
    finally:
        gc.enable()
