"""2D triangular finite elements for compressible and incompressible linear
elasticity with penalty-free nonsymmetric weak imposition of Dirichlet data,
plus stability diagnostics and convergence experiment drivers.
"""

from .compressible import (AssembledSystem, MaterialParams,
                           assemble_boundary_flux, assemble_elasticity_stiffness,
                           assemble_neumann_load, assemble_strong_system,
                           assemble_weak_system)
from .incompressible import (MixedSystem, assemble_incompressible_system,
                             assemble_mixed_boundary_flux,
                             assemble_pressure_stabilization)
from .mesh import (Mesh, MeshQuality, build_cook_mesh, build_unit_square_mesh,
                   mesh_quality)
from .norms import (ErrorReport, discrete_infsup_constant,
                    discrete_korn_constant, error_norms)
from .quadrature import QuadratureRule, edge_rule, triangle_rule
from .solvers import (SingularSystemError, SolveReport, lu_solve,
                      smallest_generalized_singular_value)
from .spaces import AnalyticField, DiscreteField, FESpace, interpolate

__version__ = "0.1.0"
