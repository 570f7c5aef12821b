"""Multilevel driver: coarse eigensolve, one Newton step per refinement level."""

import time
from dataclasses import dataclass

from .assemble import AssembledForms, assemble_forms, free_prolongation
from .eigen_newton import EigenpairSet, check_eigen_count, coarse_solve, newton_step_multi
from .linalg import DEFAULT_SOLVER_TOL, VCycle


class MultilevelError(Exception):
    """A level of the multilevel run failed; carries the level and partial records."""

    def __init__(self, level, cause, records):
        super().__init__("level {}: {}".format(level, cause))
        self.level = level
        self.records = records


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the multilevel pipeline: the gate of the Newton steps' solves."""

    solver_tol: float = DEFAULT_SOLVER_TOL

    def effective_quad_order(self, coeffs):
        """2, the degree of the one triangle rule, whatever `coeffs`.

        Kept for `perfbench/child.py::_reference`, its only caller, which
        passes it to `assemble_forms`; ROADMAP item 1c removes it."""
        return 2


@dataclass
class LevelRecord:
    """One level of a multilevel run: the eigenpairs, their pencil and timings."""

    level: int
    h: float
    pairs: EigenpairSet
    forms: AssembledForms
    wall_time_assemble: float
    wall_time_solve: float

    @property
    def n_free(self):
        return self.forms.n_free

    @property
    def eigenvalues(self):
        return self.pairs.values


def run_multilevel(hierarchy, coeffs, m=1, options=None, done=None):
    """Run the full multilevel Newton iteration over a mesh hierarchy.

    Checks `m` against the coarse mesh's free DOFs before anything is
    assembled, then assembles the coarse pencil, the other levels' pencils
    from the finest down, then the free-DOF prolongations between them.
    Nothing after that reads a mesh's edge arrays, so every mesh releases
    them (`Mesh.release_topology`); a mesh rebuilds them if they are read
    again.  Then solves the coarse eigenvalue
    problem once and performs exactly one Newton step per refinement level,
    whose multigrid cycle extends the previous level's.  Errors are not
    evaluated here (see `reference.evaluate`).

    Parameters
    ----------
    hierarchy : MeshHierarchy
    coeffs : CoefficientSet
    m : int
        Number of eigenpairs to track, at most the coarse free-DOF count.
    options : SolveOptions, optional
    done : callable, optional
        `done(k, forms)` is called with each level's pencil as soon as it is
        assembled, in the order above (level 0, then the finest down to 1);
        so the finest one can be put to work before the others are built.

    Returns
    -------
    list of LevelRecord, coarsest first
        A record's `wall_time_assemble` includes the time of the
        prolongation onto its level.

    Raises
    ------
    ValueError
        If `m` is outside 1..n_free of the coarse level; nothing is
        assembled then.
    MeshError
        If a level is not numbered as `refine_regular` refines the one
        before it (see `free_prolongation`).
    MultilevelError
        If a level fails; carries the failing level and the records
        produced so far.
    """
    options = options or SolveOptions()
    levels = hierarchy.levels
    n_levels = len(levels)
    check_eigen_count(int((~levels[0].boundary).sum()), m)
    forms, assemble_times = [None] * n_levels, [0.0] * n_levels
    for k in [0] + list(range(n_levels - 1, 0, -1)):
        t0 = time.perf_counter()
        forms[k] = assemble_forms(levels[k], coeffs)
        assemble_times[k] = time.perf_counter() - t0
        if done is not None:
            done(k, forms[k])
    prolongs = []
    for k in range(n_levels - 1):
        t0 = time.perf_counter()
        prolongs.append(free_prolongation(levels[k], levels[k + 1]))
        assemble_times[k + 1] += time.perf_counter() - t0
    for mesh in levels:
        mesh.release_topology()

    records = []
    pairs = cycle = None
    for k in range(n_levels):
        t0 = time.perf_counter()
        try:
            if k == 0:
                pairs = coarse_solve(forms[0], m)
                cycle = VCycle(forms[0].stiffness)
            else:
                cycle = VCycle(forms[k].stiffness, prolongs[k - 1], cycle)
                pairs = newton_step_multi(forms[k], pairs, prolongs[k - 1],
                                          tol=options.solver_tol, cycle=cycle)
        except Exception as exc:
            raise MultilevelError(k, exc, records) from exc
        solve_time = time.perf_counter() - t0
        records.append(LevelRecord(
            level=k,
            h=levels[k].max_diameter(),
            pairs=pairs,
            forms=forms[k],
            wall_time_assemble=assemble_times[k],
            wall_time_solve=solve_time,
        ))
    return records
