"""Quadrature rules on the reference triangle and the reference edge.

Triangle rules are built by collapsing a Gauss-Legendre product rule from
the unit square onto the triangle (Duffy map), which gives positive weights
and interior points for any requested degree: ceil((d+1)/2) * ceil((d+2)/2)
points for degree d, e.g. 36 at degree 10 and 81 at degree 16.
"""

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule on the reference triangle exact for polynomials up to `degree`."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
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
