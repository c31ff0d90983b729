import dataclasses
import math

import numpy as np
import pytest

from elastweak.mesh import (COOK_SIDES, SQUARE_SIDES, _finish_mesh,
                            build_cook_mesh, build_unit_square_mesh, cook_map,
                            mesh_quality)
from fem_helpers import unique_edges


def test_minimal_square_split():
    mesh = build_unit_square_mesh(1)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4
    assert mesh.num_boundary_edges == 4


def test_counting_formulas():
    mesh = build_unit_square_mesh(4)
    assert mesh.num_triangles == 32
    assert mesh.num_vertices == 25
    assert mesh.num_boundary_edges == 16
    assert mesh_quality(mesh).h_max == pytest.approx(math.sqrt(2) / 4)


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)
    with pytest.raises(ValueError):
        build_cook_mesh(0)


@pytest.mark.parametrize("builder,area", [(build_unit_square_mesh, 1.0),
                                          (build_cook_mesh, 1440.0)])
def test_positive_areas_summing_to_domain(builder, area):
    mesh = builder(5)
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(area, rel=1e-10)


def test_refinement_halves_hmax():
    for n in (2, 8):
        h1 = mesh_quality(build_unit_square_mesh(n)).h_max
        h2 = mesh_quality(build_unit_square_mesh(2 * n)).h_max
        assert h2 == pytest.approx(0.5 * h1, rel=1e-14)
    assert mesh_quality(build_unit_square_mesh(1)).h_max == pytest.approx(
        math.sqrt(2))
    assert mesh_quality(build_unit_square_mesh(8)).h_max == pytest.approx(
        math.sqrt(2) / 8)


def test_euler_relation_and_conformity():
    for mesh in (build_unit_square_mesh(4), build_cook_mesh(3)):
        edges = unique_edges(mesh)
        V, E, F = mesh.num_vertices, len(edges), mesh.num_triangles
        assert V - E + F == 1
        # every edge is shared by exactly two triangles or lies on the boundary
        t = mesh.triangles
        pairs = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]),
                        axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        boundary = {tuple(sorted(e)) for e in mesh.edge_vertices.tolist()}
        for edge, cnt in zip(map(tuple, uniq.tolist()), counts):
            assert cnt == (1 if edge in boundary else 2)


def test_boundary_normals_tangents_orthonormal():
    for mesh in (build_unit_square_mesh(3), build_cook_mesh(3)):
        n, t = mesh.edge_normal, mesh.edge_tangent
        assert np.abs(np.einsum("ea,ea->e", n, t)).max() < 1e-12
        assert np.abs(np.linalg.norm(n, axis=1) - 1).max() < 1e-12
        assert np.abs(np.linalg.norm(t, axis=1) - 1).max() < 1e-12


def test_square_normals_point_outward():
    mesh = build_unit_square_mesh(2)
    expected = {"bottom": (0, -1), "right": (1, 0), "top": (0, 1),
                "left": (-1, 0)}
    for tag, nvec in expected.items():
        for e in mesh.edges_of_side(tag):
            assert mesh.edge_normal[e] == pytest.approx(nvec)


def test_sides_concatenate_to_polygon_edges():
    mesh = build_cook_mesh(4)
    corners = {"CB": ((0, 0), (48, 44)), "AB": ((48, 44), (48, 60)),
               "DA": ((48, 60), (0, 44)), "CD": ((0, 44), (0, 0))}
    for tag, (start, end) in corners.items():
        ids = mesh.edges_of_side(tag)
        chain = mesh.edge_vertices[ids]
        assert (chain[1:, 0] == chain[:-1, 1]).all()
        assert mesh.vertices[chain[0, 0]] == pytest.approx(start)
        assert mesh.vertices[chain[-1, 1]] == pytest.approx(end)


def test_boundary_edges_cover_boundary_once():
    mesh = build_unit_square_mesh(3)
    # closed loop: every boundary vertex appears once as head, once as tail
    heads = mesh.edge_vertices[:, 0]
    tails = mesh.edge_vertices[:, 1]
    assert sorted(heads.tolist()) == sorted(tails.tolist())
    assert len(set(heads.tolist())) == len(heads)


def test_cook_corner_mapping():
    mesh = build_cook_mesh(2)
    assert mesh.vertices[0] == pytest.approx((0.0, 0.0))       # C
    assert mesh.vertices[-1] == pytest.approx((48.0, 60.0))    # A
    q = mesh_quality(mesh)
    assert q.h_min > 0


def test_cook_minimal_area():
    mesh = build_cook_mesh(1)
    assert mesh.num_triangles == 2
    assert mesh.triangle_areas().sum() == pytest.approx(1440.0)


def test_shape_regularity_bounds():
    # diameter/inradius is minimised by the equilateral triangle at 2*sqrt(3)
    q = mesh_quality(build_unit_square_mesh(4))
    assert q.shape_regularity >= 2 * math.sqrt(3) - 1e-12
    assert q.shape_regularity == pytest.approx(2 + 2 * math.sqrt(2))
    assert q.h_min <= q.h_max


def test_triangle_diameters_are_computed_once_and_read_only():
    mesh = build_cook_mesh(3)
    h = mesh.triangle_diameters()
    assert mesh.triangle_diameters() is h
    assert not h.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        h[0] = 1.0
    p = mesh.vertices[mesh.triangles]
    longest = np.max([np.hypot(*(p[:, (i + 1) % 3] - p[:, i]).T)
                      for i in range(3)], axis=0)
    np.testing.assert_allclose(h, longest, rtol=1e-15, atol=0.0)


def test_equilateral_triangle_regularity():
    from elastweak.mesh import Mesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    mesh = Mesh(vertices=verts, triangles=tris, edge_vertices=edges,
                edge_tag=np.array([0, 1, 2]),
                edge_normal=np.zeros((3, 2)), edge_tangent=np.zeros((3, 2)),
                edge_owner=np.array([0, 0, 0]), side_tags=("a", "b", "c"))
    assert mesh_quality(mesh).shape_regularity == pytest.approx(
        2 * math.sqrt(3))


def test_unknown_side_tag_rejected():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(KeyError):
        mesh.edges_of_side("north")


def _with(name, index, value):
    """The n=2 square with one entry of its array `name` replaced; building
    the copy runs the Mesh checks."""
    mesh = build_unit_square_mesh(2)
    array = getattr(mesh, name).copy()
    array[index] = value
    return dataclasses.replace(mesh, **{name: array})


@pytest.mark.parametrize("value", [99, -1])
@pytest.mark.parametrize("name,index,what", [
    ("triangles", (0, 2), "triangle vertex"),
    ("edge_vertices", (0, 1), "boundary edge vertex"),
    ("edge_owner", 0, "boundary edge owner"),
    ("edge_tag", 0, "boundary edge tag"),
], ids=["triangles", "edge_vertices", "edge_owner", "edge_tag"])
def test_mesh_rejects_out_of_range_index(name, index, what, value):
    with pytest.raises(ValueError, match=f"{what} index out of range"):
        _with(name, index, value)


@pytest.mark.parametrize("name,value", [
    ("edge_owner", 5),                  # triangle (3, 7, 6)
    ("edge_vertices", (0, 8)),          # opposite corners: no triangle's
    ("edge_normal", (0.0, 1.0)),        # toward vertex 4 of triangle 0
], ids=["owner", "edge-outside-triangulation", "inward-normal"])
def test_mesh_rejects_edge_its_owner_does_not_bound(name, value):
    # boundary edge 0 of the n=2 square is (0, 1), owned by (0, 1, 4); an
    # edge outside its owner would be tabulated in a cell that does not
    # contain it, and it would have no P2 edge DOF
    with pytest.raises(ValueError, match="boundary edge 0 is not an outward "
                       "edge of its owner triangle"):
        _with(name, 0, value)


def test_mesh_rejects_clockwise_triangle():
    a, b, c = build_unit_square_mesh(2).triangles[1]
    with pytest.raises(ValueError, match="triangle 1 is not counterclockwise"):
        _with("triangles", 1, (a, c, b))


@pytest.mark.parametrize("name,index,value,what", [
    ("vertices", (0, 0), np.nan, "vertex coordinate"),
    ("vertices", (0, 1), np.inf, "vertex coordinate"),
    ("edge_normal", (0, 0), np.nan, "boundary edge normal"),
    ("edge_tangent", (0, 1), -np.inf, "boundary edge tangent"),
], ids=["vertex-nan", "vertex-inf", "normal-nan", "tangent-inf"])
def test_mesh_rejects_non_finite_coordinates(name, index, value, what):
    # a non-finite coordinate gives a NaN area, which is not <= 0, so the
    # numbers themselves are checked
    with pytest.raises(ValueError, match=f"non-finite {what}"):
        _with(name, index, value)


def _loop_square_connectivity(n):
    """Reference: the split square built cell by cell and edge by edge."""
    idx = lambda i, j: j * (n + 1) + i
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    for j in range(n):
        for i in range(n):
            c = j * n + i
            v00, v10 = idx(i, j), idx(i + 1, j)
            v11, v01 = idx(i + 1, j + 1), idx(i, j + 1)
            tris[2 * c] = (v00, v10, v11)
            tris[2 * c + 1] = (v00, v11, v01)

    edges, tags, owners = [], [], []
    for i in range(n):                       # bottom, left to right
        edges.append((idx(i, 0), idx(i + 1, 0)))
        tags.append(0)
        owners.append(2 * i)
    for j in range(n):                       # right, upwards
        edges.append((idx(n, j), idx(n, j + 1)))
        tags.append(1)
        owners.append(2 * (j * n + n - 1))
    for i in range(n - 1, -1, -1):           # top, right to left
        edges.append((idx(i + 1, n), idx(i, n)))
        tags.append(2)
        owners.append(2 * ((n - 1) * n + i) + 1)
    for j in range(n - 1, -1, -1):           # left, downwards
        edges.append((idx(0, j + 1), idx(0, j)))
        tags.append(3)
        owners.append(2 * (j * n) + 1)
    return (vertices, tris, np.asarray(edges, dtype=np.int64),
            np.asarray(tags, dtype=np.int64), np.asarray(owners, dtype=np.int64))


def _loop_cook_mesh(n):
    vertices, tris, edges, tags, owners = _loop_square_connectivity(n)
    mapped = cook_map(vertices[:, 0], vertices[:, 1])
    return _finish_mesh(mapped, tris, edges, tags, owners, COOK_SIDES)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("builder,reference", [
    (build_unit_square_mesh,
     lambda n: _finish_mesh(*_loop_square_connectivity(n), SQUARE_SIDES)),
    (build_cook_mesh, _loop_cook_mesh)])
def test_builders_match_cell_by_cell_reference(builder, reference, n):
    mesh, want = builder(n), reference(n)
    for name in ("vertices", "triangles", "edge_vertices", "edge_tag",
                 "edge_normal", "edge_tangent", "edge_owner"):
        got, ref = getattr(mesh, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert mesh.side_tags == want.side_tags
