"""Multilevel driver: coarse eigensolve, one Newton step per refinement level."""

import time
from dataclasses import dataclass

from .assemble import AssembledForms, assemble_forms, free_prolongation
from .eigen_newton import EigenpairSet, coarse_solve, newton_step_multi
from .linalg import DEFAULT_SOLVER_TOL, VCycle


class MultilevelError(Exception):
    """A level of the multilevel run failed; carries the level and partial records."""

    def __init__(self, level, cause, records):
        super().__init__("level {}: {}".format(level, cause))
        self.level = level
        self.cause = cause
        self.records = records


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the multilevel pipeline."""

    quad_order: int = 0                      # 0 = auto: 2 for laplace, else 5
    solver_tol: float = DEFAULT_SOLVER_TOL

    def effective_quad_order(self, coeffs):
        return self.quad_order or (2 if coeffs.preset == "laplace" else 5)


@dataclass
class LevelRecord:
    """One level of a multilevel run: the eigenpairs, their pencil and timings."""

    level: int
    h: float
    n_free: int
    pairs: EigenpairSet
    forms: AssembledForms
    wall_time_assemble: float
    wall_time_solve: float

    @property
    def eigenvalues(self):
        return self.pairs.values


def assemble_levels(hierarchy, coeffs, options=None):
    """Assemble the pencil of every level of `hierarchy`, coarsest first.

    Returns
    -------
    (forms, seconds) : (list of AssembledForms, list of float)
        The pencils and each one's assembly wall time.
    """
    quad_order = (options or SolveOptions()).effective_quad_order(coeffs)
    forms, seconds = [], []
    for mesh in hierarchy.levels:
        t0 = time.perf_counter()
        forms.append(assemble_forms(mesh, coeffs, quad_order))
        seconds.append(time.perf_counter() - t0)
    return forms, seconds


def check_eigen_count(forms, m):
    """Raise ValueError unless 1 <= `m` <= the free DOFs of the coarse pencil `forms`."""
    if not 1 <= m <= forms.n_free:
        raise ValueError("eigen_count must be between 1 and the {} free DOFs of the "
                         "coarse mesh, got {}".format(forms.n_free, m))


def run_multilevel(hierarchy, coeffs, m=1, options=None, assembled=None):
    """Run the full multilevel Newton iteration over a mesh hierarchy.

    Solves the coarse eigenvalue problem once, then performs exactly one
    Newton step per refinement level, whose multigrid cycle extends the
    previous level's.  Errors are not evaluated here (see
    `reference.evaluate`).

    Parameters
    ----------
    hierarchy : MeshHierarchy
    coeffs : CoefficientSet
    m : int
        Number of eigenpairs to track, at most the coarse free-DOF count.
    options : SolveOptions, optional
    assembled : optional
        The output of `assemble_levels` for the same hierarchy, coefficients
        and options; assembled here when omitted.

    Returns
    -------
    list of LevelRecord, coarsest first

    Raises
    ------
    ValueError
        If `m` is outside 1..n_free of the coarse level.
    MultilevelError
        If a level fails; carries the failing level and the records
        produced so far.
    """
    options = options or SolveOptions()
    forms, assemble_times = assembled or assemble_levels(hierarchy, coeffs, options)
    check_eigen_count(forms[0], m)

    records = []
    pairs = cycle = None
    for k in range(len(hierarchy)):
        t0 = time.perf_counter()
        try:
            if k == 0:
                pairs = coarse_solve(forms[0], m)
                cycle = VCycle(forms[0].stiffness)
            else:
                prolong = free_prolongation(hierarchy.prolongations[k - 1],
                                            forms[k - 1], forms[k])
                cycle = VCycle(forms[k].stiffness, prolong, cycle)
                pairs = newton_step_multi(forms[k], pairs, prolong,
                                          tol=options.solver_tol, cycle=cycle)
        except Exception as exc:
            raise MultilevelError(k, exc, records) from exc
        solve_time = time.perf_counter() - t0
        records.append(LevelRecord(
            level=k,
            h=hierarchy.levels[k].max_diameter(),
            n_free=forms[k].n_free,
            pairs=pairs,
            forms=forms[k],
            wall_time_assemble=assemble_times[k],
            wall_time_solve=solve_time,
        ))
    return records
