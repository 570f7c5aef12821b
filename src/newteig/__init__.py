"""Multilevel Newton iteration for finite-element eigenvalue problems.

A coarse-grid generalized eigensolve followed by one bordered Newton
correction per refinement level, for single and multiple eigenvalues of
second-order elliptic operators on 2D triangulations.
"""

from .assemble import (AssembledForms, CoefficientSet, a_norm, assemble_forms,
                       b_norm, energy_error_vs_exact, example2_coefficients,
                       free_prolongation, interpolate, laplace_coefficients,
                       rayleigh_quotient)
from .eigen_newton import Eigenpair, EigenpairSet, coarse_solve, newton_step_multi
from .linalg import BorderedMatrix, SolverError, dense_gen_eig, solve_bordered
from .mesh import (Mesh, MeshHierarchy, Prolongation, build_hierarchy, load_mesh,
                   refine_regular, save_mesh, unit_square_mesh)
from .multilevel import LevelRecord, SolveOptions, run_multilevel
from .reference import (ConvergenceRecord, ExactEigen, compare_with_direct,
                        direct_solve, evaluate, exact_laplace, richardson)

__version__ = "0.1.0"

__all__ = [
    "AssembledForms", "BorderedMatrix", "CoefficientSet", "ConvergenceRecord",
    "Eigenpair", "EigenpairSet", "ExactEigen", "LevelRecord",
    "Mesh", "MeshHierarchy", "Prolongation", "SolveOptions", "SolverError",
    "a_norm", "assemble_forms", "b_norm", "build_hierarchy", "coarse_solve",
    "compare_with_direct", "dense_gen_eig", "direct_solve",
    "energy_error_vs_exact", "evaluate", "exact_laplace", "example2_coefficients",
    "free_prolongation", "interpolate", "laplace_coefficients", "load_mesh",
    "newton_step_multi", "rayleigh_quotient",
    "refine_regular", "richardson", "run_multilevel", "save_mesh",
    "solve_bordered", "unit_square_mesh",
]
