"""Structured triangulations of the unit square and the Cook membrane.

Meshes are immutable after construction.  Boundary edges are stored with
the domain on their left (counterclockwise traversal), a tag naming the
polygon side they belong to, the outward unit normal and the unit tangent,
and the index of the owning triangle.
"""

from dataclasses import dataclass, field

import numpy as np

SQUARE_SIDES = ("bottom", "right", "top", "left")
COOK_SIDES = ("CB", "AB", "DA", "CD")

# Cook membrane corners: clamped side CD at x=0, loaded side AB at x=48.
_COOK_C = (0.0, 0.0)
_COOK_B = (48.0, 44.0)
_COOK_A = (48.0, 60.0)
_COOK_D = (0.0, 44.0)


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3), counterclockwise
    edge_vertices: np.ndarray   # (ne, 2) boundary edges, domain on the left
    edge_tag: np.ndarray        # (ne,) index into side_tags
    edge_normal: np.ndarray     # (ne, 2) outward unit normal
    edge_tangent: np.ndarray    # (ne, 2) unit tangent
    edge_owner: np.ndarray      # (ne,) owning triangle index
    side_tags: tuple = field(default=SQUARE_SIDES)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self):
        return self.edge_vertices.shape[0]

    def tag_index(self, side_tag):
        try:
            return self.side_tags.index(side_tag)
        except ValueError:
            raise KeyError(f"unknown side tag {side_tag!r}; "
                           f"known tags: {self.side_tags}") from None

    def edges_of_side(self, side_tag):
        """Indices of the boundary edges carrying `side_tag`."""
        return np.flatnonzero(self.edge_tag == self.tag_index(side_tag))

    def triangle_corners(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    def triangle_areas(self):
        p = self.triangle_corners()
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def _triangle_edge_lengths(self):
        """Lengths of the edges p0p1, p1p2 and p2p0 per triangle, (nt, 3)."""
        p = self.triangle_corners()
        return np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)

    def triangle_diameters(self):
        """Longest edge per triangle (the element size h_K)."""
        return self._triangle_edge_lengths().max(axis=1)

    def triangle_inradii(self):
        e0, e1, e2 = self._triangle_edge_lengths().T
        return 2.0 * self.triangle_areas() / (e0 + e1 + e2)

    def edge_lengths(self):
        p0 = self.vertices[self.edge_vertices[:, 0]]
        p1 = self.vertices[self.edge_vertices[:, 1]]
        return np.linalg.norm(p1 - p0, axis=1)

    def centroid(self):
        """Area centroid of the meshed domain."""
        areas = self.triangle_areas()
        mids = self.triangle_corners().mean(axis=1)
        return (areas[:, None] * mids).sum(axis=0) / areas.sum()


@dataclass(frozen=True)
class MeshQuality:
    h_max: float
    h_min: float
    shape_regularity: float  # max over triangles of diameter / inradius


def mesh_quality(mesh):
    h = mesh.triangle_diameters()
    rho = mesh.triangle_inradii()
    return MeshQuality(h_max=float(h.max()), h_min=float(h.min()),
                       shape_regularity=float((h / rho).max()))


def _square_connectivity(n):
    """Vertices, triangles and tagged boundary edges of the n x n split square.

    Vertex (i, j) of the grid has index j (n + 1) + i, and cell (i, j) is
    number j n + i.  Each cell is split along its bottom-left to top-right
    diagonal into triangles 2 c (lower) and 2 c + 1 (upper); the lower
    triangle owns the cell's bottom and right edges, the upper one the top
    and left edges.  The boundary runs counterclockwise from (0, 0): bottom,
    right, top, left.
    """
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])
    tris[1::2] = np.column_stack([v00, v11, v01])

    k = np.arange(n, dtype=np.int64)
    down = k[::-1]
    top = n * (n + 1)
    # bottom rightward, right upward, top leftward, left downward
    edges = np.concatenate([
        np.column_stack([k, k + 1]),
        np.column_stack([k * (n + 1) + n, (k + 1) * (n + 1) + n]),
        np.column_stack([top + down + 1, top + down]),
        np.column_stack([(down + 1) * (n + 1), down * (n + 1)]),
    ])
    tags = np.repeat(np.arange(4, dtype=np.int64), n)
    owners = np.concatenate([2 * k, 2 * (k * n + n - 1),
                             2 * ((n - 1) * n + down) + 1, 2 * down * n + 1])
    return vertices, tris, edges, tags, owners


def _finish_mesh(vertices, tris, edges, tags, owners, side_tags):
    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    tau = p1 - p0
    tau /= np.linalg.norm(tau, axis=1)[:, None]
    # Domain on the left of the edge direction: outward normal is tau rotated
    # clockwise by 90 degrees.
    normal = np.column_stack([tau[:, 1], -tau[:, 0]])
    return Mesh(vertices=vertices, triangles=tris, edge_vertices=edges,
                edge_tag=tags, edge_normal=normal, edge_tangent=tau,
                edge_owner=owners, side_tags=tuple(side_tags))


def build_unit_square_mesh(n):
    """Structured triangulation of [0,1]^2 with n subdivisions per side."""
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    return _finish_mesh(*_square_connectivity(n), SQUARE_SIDES)


def cook_map(xi, eta):
    """Bilinear map of the unit square onto the Cook membrane quadrilateral."""
    corners = np.array([_COOK_C, _COOK_B, _COOK_A, _COOK_D])
    w = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta,
                  (1 - xi) * eta], axis=-1)
    return w @ corners


def build_cook_mesh(n):
    """Mapped structured triangulation of the Cook membrane.

    Corners: C=(0,0), B=(48,44), A=(48,60), D=(0,44).  Side tags: CD is the
    clamped side x=0, AB the loaded side x=48, CB the bottom, DA the top.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    vertices, tris, edges, tags, owners = _square_connectivity(n)
    mapped = cook_map(vertices[:, 0], vertices[:, 1])
    return _finish_mesh(mapped, tris, edges, tags, owners, COOK_SIDES)


def dump_mesh(mesh, path):
    """Write a mesh as plain text (17 significant digits, round-trip safe)."""
    lines = [f"VERTICES {mesh.num_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"TRIANGLES {mesh.num_triangles}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"BOUNDARY_EDGES {mesh.num_boundary_edges}")
    for k in range(mesh.num_boundary_edges):
        v0, v1 = mesh.edge_vertices[k]
        nx, ny = mesh.edge_normal[k]
        tx, ty = mesh.edge_tangent[k]
        lines.append(f"{v0} {v1} {mesh.side_tags[mesh.edge_tag[k]]} "
                     f"{mesh.edge_owner[k]} "
                     f"{nx:.17g} {ny:.17g} {tx:.17g} {ty:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh written by dump_mesh.

    Raises ValueError on a truncated or malformed section, on a non-finite
    vertex coordinate, normal or tangent, on a vertex or owner index out of
    range and on a triangle that is not counterclockwise.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    pos = 0

    def section(name, width):
        """The rows of the next section, each split into `width` fields."""
        nonlocal pos
        head = lines[pos].split() if pos < len(lines) else []
        if len(head) != 2 or head[0] != name:
            raise ValueError(f"expected section {name}, found "
                             f"{' '.join(head) or 'end of file'!r}")
        count = int(head[1])
        rows = [line.split() for line in lines[pos + 1:pos + 1 + count]]
        if count < 0 or len(rows) < count or any(len(r) != width for r in rows):
            raise ValueError(f"section {name} is truncated or malformed: "
                             f"expected {count} rows of {width} fields")
        pos += 1 + count
        return rows

    vertices = np.array(section("VERTICES", 2), dtype=float).reshape(-1, 2)
    tris = np.array(section("TRIANGLES", 3), dtype=np.int64).reshape(-1, 3)
    rows = section("BOUNDARY_EDGES", 8)
    edges = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2)
    owners = np.array([r[3] for r in rows], dtype=np.int64)
    frames = np.array([r[4:] for r in rows], dtype=float).reshape(-1, 4)
    normals, tangents = frames[:, :2], frames[:, 2:]
    names = [r[2] for r in rows]
    tag_names = tuple(dict.fromkeys(names))
    tag_of = {name: i for i, name in enumerate(tag_names)}
    tags = np.array([tag_of[name] for name in names], dtype=np.int64)

    for what, values in (("vertex coordinate", vertices),
                         ("boundary edge normal", normals),
                         ("boundary edge tangent", tangents)):
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite {what}")
    for what, index, size in (("triangle vertex", tris, len(vertices)),
                              ("boundary edge vertex", edges, len(vertices)),
                              ("boundary edge owner", owners, len(tris))):
        if index.size and (index.min() < 0 or index.max() >= size):
            raise ValueError(f"{what} index out of range [0, {size})")
    mesh = Mesh(vertices=vertices, triangles=tris, edge_vertices=edges,
                edge_tag=tags, edge_normal=normals, edge_tangent=tangents,
                edge_owner=owners, side_tags=tag_names)
    bad = np.flatnonzero(mesh.triangle_areas() <= 0.0)
    if bad.size:
        raise ValueError(f"triangle {bad[0]} is not counterclockwise "
                         f"({bad.size} such triangles)")
    return mesh
