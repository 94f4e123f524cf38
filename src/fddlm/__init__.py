"""Unfitted mixed finite elements for elliptic interface problems.

A background box mesh carries the global solution, an independent mesh
of the immersed region carries a correction field, and a piecewise
constant Lagrange multiplier, one value per immersed cell, ties the two
together. The coupling terms are integrated exactly over the overlaps of
the two meshes, so neither mesh needs to fit the interface.
"""

from .coupling import CouplingTable, CoverageError, assemble_C1, assemble_C2, build_intersections
from .element import Q1, Q1B, Q2, gauss_square
from .infsup import InfSupReport, infsup_constant, infsup_sweep
from .mesh import DomainSpec, QuadMesh, build_mesh, refine_uniform
from .runner import run_study, solve_level
from .space import DirichletBC, FeSpace, build_space, dirichlet_bc, evaluate
from .system import (
    BlockSystem,
    SolutionTriple,
    SolverError,
    apply_dirichlet,
    error_norms,
    full_matrix,
    multiplier_error,
    solve_saddle,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingTable",
    "CoverageError",
    "assemble_C1",
    "assemble_C2",
    "build_intersections",
    "Q1",
    "Q1B",
    "Q2",
    "gauss_square",
    "InfSupReport",
    "infsup_constant",
    "infsup_sweep",
    "DomainSpec",
    "QuadMesh",
    "build_mesh",
    "refine_uniform",
    "run_study",
    "solve_level",
    "DirichletBC",
    "FeSpace",
    "build_space",
    "dirichlet_bc",
    "evaluate",
    "BlockSystem",
    "SolutionTriple",
    "SolverError",
    "apply_dirichlet",
    "error_norms",
    "full_matrix",
    "multiplier_error",
    "solve_saddle",
]
