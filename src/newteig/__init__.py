"""Multilevel Newton iteration for finite-element eigenvalue problems.

A coarse-grid generalized eigensolve followed by one bordered Newton
correction per refinement level, for single and multiple eigenvalues of
second-order elliptic operators on 2D triangulations.
"""

from .assemble import a_norm, assemble_forms, example2_coefficients, laplace_coefficients
from .eigen_newton import coarse_solve, newton_step_multi
from .mesh import build_hierarchy, load_mesh, save_mesh, unit_square_mesh
from .multilevel import LevelRecord, run_multilevel
from .reference import direct_solve, evaluate

__version__ = "0.1.0"

__all__ = [
    "LevelRecord", "a_norm", "assemble_forms", "build_hierarchy", "coarse_solve",
    "direct_solve", "evaluate", "example2_coefficients", "laplace_coefficients",
    "load_mesh", "newton_step_multi", "run_multilevel", "save_mesh", "unit_square_mesh",
]
