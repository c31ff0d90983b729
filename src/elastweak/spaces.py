"""Continuous Lagrange P1/P2 spaces on triangle meshes.

Degrees of freedom are nodal: vertex values for P1, vertex plus edge-midpoint
values for P2.  Scalar DOFs are numbered vertices first (mesh order), then
edges in lexicographic order of their sorted endpoint indices.  Vector spaces
interleave components per node: scalar DOF d becomes (2d, 2d+1).  A point
is a scalar DOF's location, the point d of the unknowns 2d and 2d+1.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .quadrature import edge_rule, triangle_rule


def basis_values(order, points):
    """Values and reference gradients of the Lagrange basis.

    points: (np, 2) reference coordinates.  Returns (N, dN) with shapes
    (np, nsb) and (np, nsb, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    if order == 1:
        N = np.stack([1.0 - x - y, x, y], axis=1)
        dN = np.stack([
            np.stack([-one, -one], axis=1),
            np.stack([one, zero], axis=1),
            np.stack([zero, one], axis=1),
        ], axis=1)
        return N, dN
    if order == 2:
        lam0 = 1.0 - x - y
        N = np.stack([
            lam0 * (2.0 * lam0 - 1.0),
            x * (2.0 * x - 1.0),
            y * (2.0 * y - 1.0),
            4.0 * x * lam0,
            4.0 * x * y,
            4.0 * y * lam0,
        ], axis=1)
        g0 = -3.0 + 4.0 * x + 4.0 * y
        dN = np.stack([
            np.stack([g0, g0], axis=1),
            np.stack([4.0 * x - 1.0, zero], axis=1),
            np.stack([zero, 4.0 * y - 1.0], axis=1),
            np.stack([4.0 - 8.0 * x - 4.0 * y, -4.0 * x], axis=1),
            np.stack([4.0 * y, 4.0 * x], axis=1),
            np.stack([-4.0 * y, 4.0 - 4.0 * x - 8.0 * y], axis=1),
        ], axis=1)
        return N, dN
    raise ValueError(f"unsupported polynomial order {order}")


def basis_hessians(order):
    """Constant reference Hessians of the basis, shape (nsb, 2, 2)."""
    if order == 1:
        return np.zeros((3, 2, 2))
    if order == 2:
        return np.array([
            [[4.0, 4.0], [4.0, 4.0]],
            [[4.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 4.0]],
            [[-8.0, -4.0], [-4.0, 0.0]],
            [[0.0, 4.0], [4.0, 0.0]],
            [[0.0, -4.0], [-4.0, -8.0]],
        ])
    raise ValueError(f"unsupported polynomial order {order}")


@lru_cache(maxsize=None)
def reference_tensors(order):
    """Reference-triangle integrals value[i] = int N_i, grad[i, p] =
    int d_p N_i, mass[i, j] = int N_i N_j, value_grad[i, j, p] = int N_i d_p N_j
    and grad_grad[i, p, j, r] = int d_p N_i d_r N_j.  An element matrix of a
    bilinear form is one of them contracted with Jinv and |detJ| (Kirby &
    Logg, "A compiler for variational forms", ACM TOMS 2006)."""
    rule = triangle_rule(2 * order)
    N, dN = basis_values(order, rule.points)
    w = rule.weights
    return SimpleNamespace(
        value=w @ N,
        grad=np.einsum("q,qip->ip", w, dN),
        mass=np.einsum("q,qi,qj->ij", w, N, N),
        value_grad=np.einsum("q,qi,qjp->ijp", w, N, dN),
        grad_grad=np.einsum("q,qip,qjr->ipjr", w, dN, dN))


def cell_chunks(mesh, chunk=512):
    """Consecutive slices of at most `chunk` cells that cover the mesh.

    The per-point temporaries of a block stay in a core's L2 cache: on the
    81-point collapsed degree-16 rule the error norms then used, a vector
    field's gradient over 512 cells was 1.3 MB (0.9 MB on the 55-point
    rule).  At 4096 cells each such array was 10.6 MB, a fresh mmap
    faulted in on first touch.  Of 256, 512 and 1024 cells, 512 gave the
    fastest cold n=128 P1 `error_norms` call (2-core Xeon, 2 MiB L2 per
    core: 0.55 s against 0.74 s at 4096).
    """
    nt = mesh.num_triangles
    for start in range(0, nt, chunk):
        yield slice(start, min(start + chunk, nt))


# Local edges of the triangle in the order matching the P2 bubble functions.
_LOCAL_EDGES = ((0, 1), (1, 2), (0, 2))


class FESpace:
    """A P1 or P2 Lagrange space (scalar or 2-vector) on a Mesh."""

    def __init__(self, mesh, order, components=1):
        if order not in (1, 2):
            raise ValueError(f"unsupported polynomial order {order}")
        if components not in (1, 2):
            raise ValueError(f"components must be 1 or 2, got {components}")
        self.mesh = mesh
        self.order = order
        self.components = components
        self.scalar_basis_size = (order + 1) * (order + 2) // 2

        # edge quadrature degree of the boundary bilinear forms and the
        # default degree of the boundary data integrals
        self.form_degree = 2 * order + 2

        nv = mesh.num_vertices
        tris = mesh.triangles
        if order == 1:
            scalar_cell = tris.copy()
            self.scalar_dof_count = nv
            self.dof_points = mesh.vertices.copy()
        else:
            # an edge (a, b), a < b, has key a * nv + b, so sorted keys are
            # the lexicographic edge order
            ends = np.sort(tris[:, _LOCAL_EDGES], axis=2)
            self._edge_keys, local = np.unique(
                (ends[..., 0] * nv + ends[..., 1]).ravel(), return_inverse=True)
            scalar_cell = np.hstack([tris, nv + local.reshape(-1, 3)])
            self.scalar_dof_count = nv + len(self._edge_keys)
            a, b = np.divmod(self._edge_keys, nv)
            self.dof_points = np.vstack([mesh.vertices, 0.5 * (
                mesh.vertices[a] + mesh.vertices[b])])

        if components == 1:
            self.cell_dofs = scalar_cell
        else:
            nloc = scalar_cell.shape[1]
            cd = np.empty((mesh.num_triangles, 2 * nloc), dtype=np.int64)
            cd[:, 0::2] = 2 * scalar_cell
            cd[:, 1::2] = 2 * scalar_cell + 1
            self.cell_dofs = cd
        self.dof_count = components * self.scalar_dof_count

        self._geometry = None
        self._boundary_cache = {}

    # -- geometry -----------------------------------------------------------

    def geometry(self):
        """Per-triangle affine map data (J, Jinv, detJ), cached."""
        if self._geometry is None:
            p = self.mesh.triangle_corners()
            J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
            detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            Jinv = np.empty_like(J)
            Jinv[:, 0, 0] = J[:, 1, 1] / detJ
            Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
            Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
            Jinv[:, 1, 1] = J[:, 0, 0] / detJ
            self._geometry = (J, Jinv, detJ)
        return self._geometry

    def scalar_side_dofs(self, side_tag):
        """Scalar DOFs supported on the boundary side `side_tag`."""
        mesh = self.mesh
        ends = np.sort(mesh.edge_vertices[mesh.edges_of_side(side_tag)],
                       axis=1)
        dofs = [ends.ravel()]
        if self.order == 2:
            keys = ends[:, 0] * mesh.num_vertices + ends[:, 1]
            dofs.append(mesh.num_vertices
                        + np.searchsorted(self._edge_keys, keys))
        return np.unique(np.concatenate(dofs))

    def boundary_scalar_dofs(self, side_tags=None):
        """Sorted scalar DOFs on the given sides (None: every side)."""
        tags = self.mesh.side_tags if side_tags is None else side_tags
        return np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + [
            self.scalar_side_dofs(tag) for tag in tags]))

    # -- tabulation ---------------------------------------------------------

    def interior_tables(self, degree):
        """Volume tables at a quadrature degree, built on each call; not
        cached.  A solve asks the velocity space once, at the load degree
        (`compressible.assemble_load`, or `incompressible._mixed_load` for
        both load rows of a mixed system), and its error norms ask it once
        more, at the error degree (`norms.error_norms`, shared by a
        pressure)."""
        rule = triangle_rule(degree)
        N, dN = basis_values(self.order, rule.points)
        return InteriorTables(self, rule, N, dN)

    def boundary_tables(self, degree, side_tags=None):
        """Tables on the given sides (None: every side), each side taken
        once however often its tag is repeated; cached per degree."""
        tags = tuple(dict.fromkeys(self.mesh.side_tags if side_tags is None
                                   else side_tags))
        key = (degree, tags)
        if key not in self._boundary_cache:
            self._boundary_cache[key] = BoundaryTables(self, degree, tags)
        return self._boundary_cache[key]


class InteriorTables:
    """Shared reference tables plus per-cell geometry for volume integrals."""

    def __init__(self, space, rule, N, dN):
        self.mesh = space.mesh
        self.rule = rule
        self.N = N            # (nq, nsb)
        self.dN_ref = dN      # (nq, nsb, 2)
        # dN_ref[q, i, p] at row q * 2 + p: the right factor of
        # gradient_moments' one matrix product
        self._dN_qp = np.swapaxes(dN, 1, 2).reshape(-1, dN.shape[1])
        self._affine_ref = np.vstack([np.ones(rule.num_points),
                                      rule.points.T])        # (3, nq)
        self.J, self.Jinv, detJ = space.geometry()
        self.wdet = np.abs(detJ)[:, None] * rule.weights[None, :]  # (nt, nq)

    def physical_points(self, cells=slice(None)):
        """(m, nq, 2) points p0 + J xi: the rows [p0_a, J_a0, J_a1] of the
        cells times the columns [1, xi_0, xi_1] of the rule, one product."""
        p0 = self.mesh.vertices[self.mesh.triangles[cells, 0]]
        rows = np.concatenate([p0[:, :, None], self.J[cells]], axis=2)
        x = rows.reshape(-1, 3) @ self._affine_ref
        return np.swapaxes(x.reshape(len(p0), 2, -1), 1, 2)

    def gradient_moments(self, cells, flux):
        """Per-cell integrals of flux[..., a] d_a phi_i, shape (m, nsb, ...),
        for a flux of shape (m, nq, ..., 2) at the cells' points.

        The weighted flux is mapped to reference derivatives,
        ref[..., q, p] = sum_a Jinv[p, a] wdet[q] flux[q, ..., a], and then
        contracted over (q, p) with dN_ref in one matrix product."""
        m, nq = flux.shape[:2]
        # (m, e, nq, 2) with the trailing dimensions of the flux as e
        f = (np.moveaxis(flux.reshape(m, nq, -1, 2), 2, 1)
             * self.wdet[cells][:, None, :, None])
        J = self.Jinv[cells][:, None, None]              # (m, 1, 1, 2, 2)
        ref = f[..., :1] * J[..., :, 0] + f[..., 1:] * J[..., :, 1]
        out = ref.reshape(-1, 2 * nq) @ self._dN_qp      # (m e, nsb)
        return np.moveaxis(out.reshape(flux.shape[:1] + flux.shape[2:-1]
                                       + (-1,)), -1, 1)


class BoundaryTables:
    """Basis traces and fluxes on selected boundary edges.

    The tables keep the mesh's data but not the space that caches them:
    without that reference cycle a space and its tables are freed as soon
    as the space is unused, not at a later garbage collection.
    """

    def __init__(self, space, degree, side_tags):
        mesh = space.mesh
        rule = edge_rule(degree)
        ids = np.concatenate([mesh.edges_of_side(t) for t in side_tags]) \
            if side_tags else np.array([], dtype=np.int64)
        ids = np.sort(ids)
        self.rule = rule
        self.edge_ids = ids
        self.owner = mesh.edge_owner[ids]
        self.normal = mesh.edge_normal[ids]
        self.length = mesh.edge_lengths()[ids]
        self.h_owner = mesh.triangle_diameters()[self.owner]
        self.cell_dofs = space.cell_dofs[self.owner]

        s = rule.points[:, 0]
        p0 = mesh.vertices[mesh.edge_vertices[ids, 0]]
        p1 = mesh.vertices[mesh.edge_vertices[ids, 1]]
        # (ne, nq, 2) physical quadrature points along each edge
        self.x = p0[:, None, :] + s[None, :, None] * (p1 - p0)[:, None, :]
        self.w = self.length[:, None] * rule.weights[None, :]   # (ne, nq)

        _, Jinv, _ = space.geometry()
        a = mesh.vertices[mesh.triangles[self.owner, 0]]
        # Reference coordinates of the edge points inside the owner triangle.
        ref = np.einsum("eab,eqb->eqa", Jinv[self.owner],
                        self.x - a[:, None, :])
        flat = ref.reshape(-1, 2)
        N, dN = basis_values(space.order, flat)
        nq = rule.num_points
        nsb = space.scalar_basis_size
        self.N = N.reshape(len(ids), nq, nsb)
        dN = dN.reshape(len(ids), nq, nsb, 2)
        self.dN = np.einsum("eqib,eba->eqia", dN, Jinv[self.owner])


# -- fields ------------------------------------------------------------------


class AnalyticField:
    """A closed-form scalar or vector field with an optional derivative.

    value(x, y) is vectorized: scalar fields return an array shaped like x,
    fields of c > 1 components return shape x.shape + (c,).  jet(x, y), the
    only derivative, returns (value(x, y), gradient) in one call, the
    gradient of shape x.shape + (2,) for scalars and x.shape + (c, 2)
    otherwise, with entry [i, j] = d u_i / d x_j; the two may share work,
    such as common powers or sines.  A field built without a jet raises
    ValueError where a derivative is needed.  A field made by part() keeps
    in `whole` the field and first component it was taken from, so that a
    caller that needs several parts at one set of points can evaluate the
    whole once.
    """

    def __init__(self, value, jet=None, components=1):
        self.value = value
        self.components = components
        self.jet = _no_jet if jet is None else jet
        self.whole = None

    def part(self, first, components, value=None):
        """Components first to first + components - 1 as a field of their
        own, whose jet slices this field's jet; value defaults to a slice of
        this field's value."""
        index = first if components == 1 else slice(first, first + components)

        def jet(x, y):
            v, g = self.jet(x, y)
            return v[..., index], g[..., index, :]

        if value is None:
            value = lambda x, y: self.value(x, y)[..., index]
        out = AnalyticField(value, jet, components)
        out.whole = (self, first)
        return out

    @classmethod
    def scalar(cls, value, jet=None):
        return cls(value, jet, components=1)

    @classmethod
    def vector(cls, value, jet=None):
        return cls(value, jet, components=2)

    @classmethod
    def constant_vector(cls, vx, vy):
        def val(x, y):
            z = np.zeros(np.shape(x) + (2,))
            z[..., 0] = vx
            z[..., 1] = vy
            return z

        def jet(x, y):
            return val(x, y), np.zeros(np.shape(x) + (2, 2))

        return cls.vector(val, jet)


def _no_jet(x, y):
    raise ValueError("analytic field lacks a derivative contract")


class DiscreteField:
    """Coefficient vector over an FESpace."""

    def __init__(self, space, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (space.dof_count,):
            raise ValueError("coefficient length does not match the space")
        self.space = space
        self.coefficients = coefficients

    def cell_coefficients(self, cells=slice(None)):
        """Coefficients gathered per cell: (m, nsb) or (m, nsb, 2)."""
        gathered = self.coefficients[self.space.cell_dofs[cells]]
        if self.space.components == 2:
            m, nloc = gathered.shape
            gathered = gathered.reshape(m, nloc // 2, 2)
        return gathered


def interpolate(space, analytic):
    """Nodal interpolation of an analytic field onto the space."""
    if analytic.components != space.components:
        raise ValueError("component mismatch between field and space")
    x, y = space.dof_points[:, 0], space.dof_points[:, 1]
    vals = analytic.value(x, y)
    if space.components == 1:
        return DiscreteField(space, np.asarray(vals, dtype=float))
    coeffs = np.empty(space.dof_count)
    coeffs[0::2] = vals[..., 0]
    coeffs[1::2] = vals[..., 1]
    return DiscreteField(space, coeffs)
