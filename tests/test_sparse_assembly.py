"""The sparse form of every assembled matrix, and the memory and grouping of
the cell-matrix assembly.

The solvers require sorted, duplicate-free CSR (`elastweak.solvers`), so
every matrix assembler is checked for it.  Cell matrices are scattered one
group of cell chunks at a time; the groups must not change the matrix, and
the assembly must not hold a triplet per cell and block entry."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import elastweak.compressible as compressible
from elastweak.compressible import (MaterialParams, _weak_operator,
                                    assemble_boundary_flux,
                                    assemble_elasticity_stiffness)
from elastweak.incompressible import (_mixed_operator, assemble_divergence,
                                      assemble_mixed_boundary_flux,
                                      assemble_pressure_mass,
                                      assemble_pressure_stabilization)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (side_mean_gram, triple_norm_gram_compressible,
                             triple_norm_gram_incompressible)
from elastweak.spaces import FESpace, cell_chunks

PARAMS = MaterialParams(1.3, 2.7, gamma=0.1)


def _assemblers(V, Q):
    """(name, matrix, expected shape) for every matrix assembler."""
    nv, nq = V.dof_count, Q.dof_count
    sides = V.mesh.side_tags
    Squ, Spp = assemble_pressure_stabilization(V, Q, PARAMS)
    out = [("stiffness", assemble_elasticity_stiffness(V, PARAMS), (nv, nv)),
           ("divergence", assemble_divergence(V, Q), (nq, nv)),
           ("Squ", Squ, (nq, nv)),
           ("Spp", Spp, (nq, nq)),
           ("pressure mass", assemble_pressure_mass(Q), (nq, nq)),
           ("weak operator", _weak_operator(V, PARAMS, sides), (nv, nv)),
           ("mixed operator", _mixed_operator(V, Q, PARAMS, sides),
            (nv + nq,) * 2),
           ("mixed operator, mean",
            _mixed_operator(V, Q, PARAMS, sides, mean=True),
            (nv + nq + 1,) * 2),
           ("compressible norm Gram", triple_norm_gram_compressible(V, PARAMS),
            (nv, nv)),
           ("incompressible norm Gram",
            triple_norm_gram_incompressible(V, Q, PARAMS), (nv + nq,) * 2),
           ("side mean Gram", side_mean_gram(V), (nv, nv))]
    for chosen in [(tag,) for tag in sides] + [()]:
        out.append((f"flux on {chosen}",
                    assemble_boundary_flux(V, PARAMS, chosen), (nv, nv)))
        out.append((f"mixed flux on {chosen}",
                    assemble_mixed_boundary_flux(V, Q, chosen), (nv, nq)))
    return out


def _strictly_sorted_rows(A):
    """Column indices strictly increase along every row: sorted, and no
    duplicates."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return bool(np.all((np.diff(rows) > 0) | (np.diff(A.indices) > 0)))


@pytest.mark.parametrize("build,n", [(build_unit_square_mesh, 1),
                                     (build_unit_square_mesh, 4),
                                     (build_cook_mesh, 4)],
                         ids=["square-1", "square-4", "cook-4"])
@pytest.mark.parametrize("order", [1, 2])
def test_every_matrix_assembler_returns_canonical_csr(build, n, order):
    mesh = build(n)
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)
    for name, A, shape in _assemblers(V, Q):
        assert isinstance(A, sp.csr_matrix), name
        assert A.shape == shape, name
        assert A.dtype == np.float64, name
        assert A.has_canonical_format, name
        assert _strictly_sorted_rows(A), name
        assert np.all(A.data != 0.0), name
        assert A.indptr[-1] == A.nnz == len(A.data), name
    empty = [name for name, A, _ in _assemblers(V, Q) if A.nnz == 0]
    assert sorted(empty) == sorted(
        ["flux on ()", "mixed flux on ()"] + (["Squ"] if order == 1 else []))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("group", [1, 2, 3])
def test_grouped_cell_matrices_match_one_group(monkeypatch, order, group):
    mesh = build_unit_square_mesh(36)      # 2592 cells: six chunks
    assert len(list(cell_chunks(mesh))) == 6
    V, Q = FESpace(mesh, order, 2), FESpace(mesh, order, 1)

    def matrices():
        return [assemble_elasticity_stiffness(V, PARAMS),
                assemble_divergence(V, Q), assemble_pressure_mass(Q),
                *assemble_pressure_stabilization(V, Q, PARAMS)]

    assert compressible.GROUP_CHUNKS >= 6
    whole = matrices()                     # the six chunks in one group
    monkeypatch.setattr(compressible, "GROUP_CHUNKS", group)
    for A, B in zip(matrices(), whole):
        assert A.has_canonical_format and A.shape == B.shape
        assert np.all(A.data != 0.0)
        assert abs(A - B).max() <= 1e-14 * abs(B).max()


def _stiffness_transient(V):
    """(tracemalloc peak of one stiffness assembly on V, bytes of the
    result's data, indices and indptr), with the caches warmed."""
    assemble_elasticity_stiffness(V, PARAMS)   # fill the geometry caches
    tracemalloc.start()
    try:
        K = assemble_elasticity_stiffness(V, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, K.data.nbytes + K.indices.nbytes + K.indptr.nbytes


def test_stiffness_assembly_transient_is_bounded_by_its_result():
    # P1 n=128: 32,768 cells, 64 chunks in eight groups.  Scattering all of
    # them as one triplet list peaked at 10.2 times the result's arrays.
    mesh = build_unit_square_mesh(128)
    groups = -(-len(list(cell_chunks(mesh))) // compressible.GROUP_CHUNKS)
    assert groups == 8
    peak, result = _stiffness_transient(FESpace(mesh, 1, 2))
    assert peak <= 3 * result, (peak, result)


def test_p2_stiffness_assembly_transient_is_bounded_by_its_result():
    # P2 n=64: 8,192 cells in two groups.  A part whose arrays kept a slot
    # per triplet (589,824 for 367,616 entries) peaked at 2.67 times the
    # result's arrays; parts that own their entries peak at 2.37.
    mesh = build_unit_square_mesh(64)
    groups = -(-len(list(cell_chunks(mesh))) // compressible.GROUP_CHUNKS)
    assert groups == 2
    peak, result = _stiffness_transient(FESpace(mesh, 2, 2))
    assert peak <= 2.5 * result, (peak, result)


def test_scattered_part_owns_exactly_its_entries():
    # a P2 vector cell block has 144 entries; neighbouring cells share
    # most of them, so summing the triplets leaves far fewer entries
    V = FESpace(build_unit_square_mesh(8), 2, 2)
    nloc = V.cell_dofs.shape[1]
    local = np.random.default_rng(2).standard_normal(
        (len(V.cell_dofs), nloc, nloc))
    A = compressible._scatter_matrix(V.cell_dofs, V.cell_dofs, local,
                                     (V.dof_count,) * 2)
    assert A.nnz < local.size
    for array in (A.data, A.indices):
        assert array.base is None and array.size == A.nnz
