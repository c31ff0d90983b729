"""A mesh built by hand from relabeled data gives the builder mesh's results:
the geometry it derives is the builder's, row for row, and the solutions,
error norms and inf-sup constants agree to roundoff."""

import numpy as np
import pytest

from elastweak.compressible import MaterialParams
from elastweak.experiments import (manufactured_compressible,
                                   manufactured_incompressible,
                                   solve_compressible, solve_incompressible)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (compressible_infsup, error_norms,
                             incompressible_infsup)
from elastweak.spaces import FESpace
from fem_helpers import relabeled

PARAMS = MaterialParams(1.0, 1.0, gamma=0.1)

CASES = [(build_unit_square_mesh, 8, 1), (build_unit_square_mesh, 4, 2),
         (build_cook_mesh, 4, 1)]
IDS = ["square-n8-P1", "square-n4-P2", "cook-n4-P1"]


@pytest.mark.parametrize("builder,n,order", CASES, ids=IDS)
def test_relabeled_mesh_derives_the_permuted_geometry(builder, n, order):
    mesh = builder(n)
    new, (_, triangle_order, edge_order) = relabeled(mesh, seed=n)
    assert new.edge_normal.tobytes() == mesh.edge_normal[edge_order].tobytes()
    for got, want in zip(new.affine_maps(), mesh.affine_maps()):
        assert got.tobytes() == want[triangle_order].tobytes()


def _results(mesh, order):
    """Weak and strong compressible, and mixed error norms, then the
    compressible and the mixed inf-sup constants, as one list of floats."""
    out = []
    data = manufactured_compressible(PARAMS)
    for bc_mode in ("weak", "strong"):
        u_h, _ = solve_compressible(mesh, order, PARAMS, data.f, data.g,
                                    bc_mode)
        report = error_norms(u_h, data.exact_u, PARAMS)
        out += [report.l2_error, report.h1_semi_error,
                report.triple_norm_error]
    data = manufactured_incompressible(PARAMS)
    u_h, p_h, _ = solve_incompressible(mesh, order, PARAMS, data.f, data.g)
    report = error_norms(u_h, data.exact_u, PARAMS, p_h, data.exact_p)
    out += [report.l2_error, report.h1_semi_error, report.triple_norm_error,
            report.pressure_l2_error]
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    return out + [compressible_infsup(V, PARAMS),
                  incompressible_infsup(V, Q, PARAMS)]


@pytest.mark.parametrize("builder,n,order", CASES, ids=IDS)
def test_relabeled_mesh_gives_the_same_errors_and_constants(builder, n,
                                                            order):
    mesh = builder(n)
    new, _ = relabeled(mesh, seed=n)
    np.testing.assert_allclose(_results(new, order), _results(mesh, order),
                               rtol=1e-12, atol=0.0)
