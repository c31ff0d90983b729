"""Quadrature rules on the reference triangle and the reference edge.

Degree 10, the degree of every load integral, has a fully symmetric
25-point rule (Dunavant, IJNME 1985): the centroid, two orbits of
barycentric points (a, a, 1 - 2a) and three orbits (a, b, 1 - a - b), all
weights positive and all points inside.  Its parameters come from
``tools/derive_triangle_rule.py``.  Every other degree d collapses a
Gauss-Legendre product rule from the unit square onto the triangle (Duffy
map), which gives positive weights and interior points for any degree:
ceil((d+1)/2) * ceil((d+2)/2) points, e.g. 81 at degree 16.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference element.

    points has shape (nq, 2) for the triangle {x,y >= 0, x+y <= 1} or
    (nq, 1) for the edge [0, 1].  Weights sum to the reference measure
    (1/2 for the triangle, 1 for the edge).
    """

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int

    @property
    def num_points(self):
        return self.points.shape[0]


def _gauss01(m):
    """m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


# Weight and barycentric generator of each orbit of the symmetric degree-10
# rule: () is the centroid, (a,) the orbit of (a, a, 1 - 2a) and (a, b) that
# of (a, b, 1 - a - b).  The weights sum to 1/2, the reference area.
_DEGREE10_ORBITS = (
    (0.045408995191376790, ()),
    (0.022660529717763967, (0.10948157548503705,)),
    (0.018362978878233352, (0.48557763338365738,)),
    (0.0047108334818664117, (0.0095408154002994576, 0.066803251012200266)),
    (0.014163621265528742, (0.025003534762686386, 0.24667256063990269)),
    (0.036378958422710054, (0.14170721941487995, 0.30793983876412095)),
)


def _symmetric_rule(orbits, degree):
    """Rule from (weight, generator) orbits; a point (l0, l1, l2) in
    barycentric coordinates sits at (x, y) = (l1, l2)."""
    points, weights = [], []
    for w, gen in orbits:
        if not gen:
            bary = [(1.0 / 3.0,) * 3]
        else:       # (a,) gives b = a: the three points of (a, a, 1 - 2a)
            a, b = gen[0], gen[-1]
            bary = sorted(set(permutations((a, b, 1.0 - a - b))))
        points += [(l1, l2) for _, l1, l2 in bary]
        weights += [w] * len(bary)
    return QuadratureRule(points=np.array(points), weights=np.array(weights),
                          exact_degree=degree)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule on the reference triangle exact for polynomials up to `degree`:
    the symmetric 25-point rule at degree 10, else the collapsed rule."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if degree == 10:
        return _symmetric_rule(_DEGREE10_ORBITS, degree)
    return _collapsed_rule(degree)


def _collapsed_rule(degree):
    """Gauss-Legendre product rule collapsed onto the triangle."""
    # Collapsed coordinates: x = u (1 - v), y = v, Jacobian (1 - v).
    # A total degree d integrand has u-degree <= d and v-degree <= d + 1.
    mu = max(1, (degree + 2) // 2)
    mv = max(1, (degree + 3) // 2)
    u, wu = _gauss01(mu)
    v, wv = _gauss01(mv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (uu * (1.0 - vv)).ravel()
    y = vv.ravel()
    w = (np.outer(wu, wv) * (1.0 - vv)).ravel()
    return QuadratureRule(points=np.column_stack([x, y]), weights=w,
                          exact_degree=degree)


@lru_cache(maxsize=None)
def edge_rule(degree):
    """Gauss rule on the reference edge [0, 1] exact up to `degree`."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    m = max(1, (degree + 2) // 2)
    s, w = _gauss01(m)
    return QuadratureRule(points=s.reshape(-1, 1), weights=w,
                          exact_degree=2 * m - 1)
