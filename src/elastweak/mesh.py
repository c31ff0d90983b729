"""Triangle meshes, and structured ones of the unit square and the Cook
membrane.

A mesh is checked and immutable after construction.  Boundary edges are
stored with the domain on their left (counterclockwise traversal), a tag
naming their polygon side and the index of the owning triangle.  The
outward normals, affine maps and diameters are derived from these data
once per mesh and returned read-only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQUARE_SIDES = ("bottom", "right", "top", "left")
COOK_SIDES = ("CB", "AB", "DA", "CD")

# Cook membrane corners: clamped side CD at x=0, loaded side AB at x=48.
_COOK_C = (0.0, 0.0)
_COOK_B = (48.0, 44.0)
_COOK_A = (48.0, 60.0)
_COOK_D = (0.0, 44.0)


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3), counterclockwise
    edge_vertices: np.ndarray   # (ne, 2) boundary edges, domain on the left
    edge_tag: np.ndarray        # (ne,) index into side_tags
    edge_owner: np.ndarray      # (ne,) owning triangle index
    side_tags: tuple

    def __post_init__(self):
        """Raise ValueError on a non-finite vertex coordinate, on a vertex,
        owner or tag index out of range, on a triangle that is not
        counterclockwise, on a boundary edge that is not a counterclockwise
        edge of its owner and on a boundary edge listed twice."""
        if not np.isfinite(self.vertices).all():
            raise ValueError("non-finite vertex coordinate")
        nv, nt = self.num_vertices, self.num_triangles
        for what, index, size in (("triangle vertex", self.triangles, nv),
                                  ("boundary edge vertex", self.edge_vertices, nv),
                                  ("boundary edge owner", self.edge_owner, nt),
                                  ("boundary edge tag", self.edge_tag,
                                   len(self.side_tags))):
            if index.size and (index.min() < 0 or index.max() >= size):
                raise ValueError(f"{what} index out of range [0, {size})")
        self.affine_maps()      # rejects a clockwise or flat triangle
        # the domain lies on the left of (a, b) exactly when it is one of
        # the owner's edges (t0, t1), (t1, t2), (t2, t0)
        owner = self.triangles[self.edge_owner]
        a, b = self.edge_vertices.T
        ccw = (owner == a[:, None]) & (np.roll(owner, -1, axis=1) == b[:, None])
        bad = np.flatnonzero(~ccw.any(axis=1))
        if bad.size:
            raise ValueError(f"boundary edge {bad[0]} is not an outward edge "
                             f"of its owner triangle {self.edge_owner[bad[0]]}")
        _, first = np.unique(a * nv + b, return_index=True)
        repeat = np.setdiff1d(np.arange(len(a)), first)
        if repeat.size:
            e = repeat[0]
            raise ValueError(f"boundary edge {e} ({a[e]}, {b[e]}) is listed "
                             "twice")

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

    @cached_property
    def _affine(self):
        # cached_property writes the instance dict, which a frozen dataclass
        # leaves open
        p = self.triangle_corners()
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        bad = np.flatnonzero(detJ <= 0.0)      # before the division below
        if bad.size:
            raise ValueError(f"triangle {bad[0]} is not counterclockwise "
                             f"({bad.size} such triangles)")
        Jinv = np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]],
                        axis=1).reshape(-1, 2, 2) / detJ[:, None, None]
        return _read_only(J), _read_only(Jinv), _read_only(detJ)

    def affine_maps(self):
        """Per-triangle affine map x = p0 + J xi of the reference triangle:
        (J, Jinv, detJ) of shapes (nt, 2, 2), (nt, 2, 2) and (nt,),
        computed once per mesh and returned read-only."""
        return self._affine

    def triangle_areas(self):
        return 0.5 * self.affine_maps()[2]

    @cached_property
    def edge_normal(self):
        """Outward unit normal per boundary edge, (ne, 2), read-only: the
        edge direction turned clockwise, the domain being on its left."""
        ends = self.vertices[self.edge_vertices]
        tau = ends[:, 1] - ends[:, 0]
        tau /= np.linalg.norm(tau, axis=1)[:, None]
        return _read_only(np.column_stack([tau[:, 1], -tau[:, 0]]))

    def _triangle_edge_lengths(self):
        """Lengths of the edges p0p1, p1p2 and p2p0 per triangle, (nt, 3)."""
        p = self.triangle_corners()
        return np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)

    @cached_property
    def _diameters(self):
        return _read_only(self._triangle_edge_lengths().max(axis=1))

    def triangle_diameters(self):
        """Longest edge per triangle (the element size h_K), computed once
        per mesh and returned read-only: a caller that writes into it
        fails."""
        return self._diameters

    def triangle_inradii(self):
        e0, e1, e2 = self._triangle_edge_lengths().T
        return 2.0 * self.triangle_areas() / (e0 + e1 + e2)

    def edge_lengths(self):
        ends = self.vertices[self.edge_vertices]
        return np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)

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


def build_unit_square_mesh(n):
    """Structured triangulation of [0,1]^2 with n subdivisions per side."""
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    return Mesh(*_square_connectivity(n), SQUARE_SIDES)


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
    return Mesh(mapped, tris, edges, tags, owners, COOK_SIDES)
