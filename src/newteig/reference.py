"""Evaluation of multilevel runs against reference solutions: per-level direct
eigensolves, exact unit-square modes and Richardson extrapolation."""

import math
from dataclasses import dataclass

import numpy as np

from .assemble import a_norm, energy_error_vs_exact
from .eigen_newton import EigenpairSet, canonical_sign
from .linalg import DENSE_CUTOFF, pencil_eigs

# relative eigenvalue accuracy of the direct solves, a run's `direct_tol`
DEFAULT_DIRECT_TOL = 1e-12


@dataclass(frozen=True)
class ExactEigen:
    """Analytic Dirichlet-Laplace eigenpair on the unit square.

    Mode (p, q) has eigenvalue (p^2 + q^2) pi^2 and b-normalized
    eigenfunction 2 sin(p pi x) sin(q pi y).
    """

    p: int
    q: int

    @property
    def value(self):
        return (self.p ** 2 + self.q ** 2) * math.pi ** 2

    def eigenfunction(self, x, y):
        return 2.0 * np.sin(self.p * np.pi * x) * np.sin(self.q * np.pi * y)

    def gradient(self, x, y):
        px = self.p * np.pi
        qy = self.q * np.pi
        out = np.empty(np.broadcast(x, y).shape + (2,))
        out[..., 0] = 2.0 * px * np.cos(px * x) * np.sin(qy * y)
        out[..., 1] = 2.0 * qy * np.sin(px * x) * np.cos(qy * y)
        return out


def exact_laplace(m):
    """First `m` exact unit-square Laplace eigenpairs, multiplicities included.

    Sorted by eigenvalue; modes sharing an eigenvalue come in increasing p.
    Searching p, q <= m suffices: the modes (1, q) with q <= m already give
    m eigenvalues of at most (1 + m^2) pi^2, and every other mode lies above.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    modes = sorted(
        (ExactEigen(p, q) for p in range(1, m + 1) for q in range(1, m + 1)),
        key=lambda e: (e.p ** 2 + e.q ** 2, e.p),
    )
    return modes[:m]


def exact_multiplicity(index):
    """Multiplicity of the `index`-th (0-based) exact Laplace eigenvalue: the
    number of modes (p, q) with the same p^2 + q^2."""
    mode = exact_laplace(index + 1)[index]
    key = mode.p ** 2 + mode.q ** 2
    return sum(1 for p in range(1, math.isqrt(key - 1) + 1)
               if math.isqrt(key - p * p) ** 2 == key - p * p)


def richardson(lambda_h, lambda_h2):
    """Eliminate the leading O(h^2) error from two mesh levels.

    Parameters
    ----------
    lambda_h : float
        Approximation on mesh size h.
    lambda_h2 : float
        Approximation on mesh size h/2 for the same eigenvalue index.
    """
    return (4.0 * lambda_h2 - lambda_h) / 3.0


def direct_solve(forms, m, tol=DEFAULT_DIRECT_TOL, max_iter=200, dense_cutoff=DENSE_CUTOFF):
    """First `m` eigenpairs of the assembled pencil by direct solving.

    Shift-invert Lanczos on one sparse LU of the stiffness matrix, dense
    below `dense_cutoff` free DOFs (see `linalg.pencil_eigs`); `tol` is the
    relative accuracy of the eigenvalues and `max_iter` bounds the restarts.

    Returns
    -------
    EigenpairSet
        b-normalized and ascending, without iteration counts.
    """
    n = forms.n_free
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > n:
        raise ValueError("requested {} eigenpairs from a {}-dimensional space".format(m, n))
    values, vectors = pencil_eigs(forms.stiffness, forms.mass, m, tol=tol, max_iter=max_iter,
                                  dense_cutoff=dense_cutoff)
    return EigenpairSet(values, canonical_sign(vectors))


@dataclass
class ConvergenceRecord:
    """Level records of a run with their errors and fitted convergence orders."""

    levels: list                             # LevelRecord per level, coarsest first
    eigenvalue_errors: list                  # |lambda - reference|, (m,) array per level
    energy_errors: list                      # float or None per eigenvalue, per level
    observed_orders: list                    # slope of log(err) vs log(h), per eigenvalue
    energy_orders: list                      # same for energy errors (nan if unavailable)
    reference_values: np.ndarray
    m: int
    preset: str
    direct_tol: float                        # tolerance of the direct solves
    direct_solves: dict                      # level index -> EigenpairSet solved for the reference


@dataclass
class ComparisonRecord:
    """Evaluated run paired with per-level direct solves on the same pencils."""

    multilevel: ConvergenceRecord
    direct_values: list                      # (m,) array per level
    value_diffs: list                        # |lambda_ml - lambda_dir| per level
    energy_diffs: list                       # sign-aligned a-norm diffs (None for clusters)


def _fit_order(hs, errors):
    """Least-squares slope of log(error) against log(h) over the last 3 levels."""
    pts = [(h, e) for h, e in zip(hs, errors)
           if e is not None and np.isfinite(e) and e > 0]
    pts = pts[-3:]
    if len(pts) < 2:
        return float("nan")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def reference_levels(preset, n_levels, compare=False):
    """Indices of the levels whose pencils evaluation solves directly, in
    solving order, finest first: the two finest behind a Richardson reference
    (none for the laplace preset, whose reference is exact), then with
    `compare` (see `compare_with_direct`) every other level above the coarse one."""
    wanted = [] if preset == "laplace" or n_levels < 2 else [n_levels - 1, n_levels - 2]
    if compare:
        wanted += [k for k in range(n_levels - 1, 0, -1) if k not in wanted]
    return wanted


def _reference_values(preset, m, n_levels, solves):
    """Per-eigenvalue reference: exact for the laplace preset, otherwise the
    Richardson extrapolation of the direct `solves` (by level index) of the
    two finest of `n_levels` levels."""
    if preset == "laplace":
        return np.array([e.value for e in exact_laplace(m)])
    if n_levels < 2:
        return np.full(m, np.nan)
    return richardson(solves[n_levels - 2].values, solves[n_levels - 1].values)


def _energy_error_entries(record, mesh, preset, m):
    """Energy errors against exact eigenfunctions; simple laplace modes only."""
    entries = [None] * m
    if preset != "laplace":
        return entries
    for i, mode in enumerate(exact_laplace(m)):
        if exact_multiplicity(i) != 1:
            continue
        entries[i] = energy_error_vs_exact(record.forms, mesh, record.pairs.vectors[:, i],
                                           mode.eigenfunction, mode.gradient)
    return entries


def evaluate(hierarchy, coeffs, levels, direct_tol=DEFAULT_DIRECT_TOL, direct_solves=None):
    """Errors and observed convergence orders of a finished multilevel run.

    Parameters
    ----------
    hierarchy : MeshHierarchy
        The hierarchy `levels` was solved on.
    coeffs : CoefficientSet
    levels : list of LevelRecord
        The output of `multilevel.run_multilevel`.
    direct_tol : float
        Tolerance of the direct solves behind Richardson references.
    direct_solves : dict, optional
        Level index -> `direct_solve` of that level's pencil at `direct_tol`,
        covering at least `reference_levels(coeffs.preset, len(levels))`
        (the CLI solves them beside the multilevel run).  Solved here, in
        that order, when omitted.

    Returns
    -------
    ConvergenceRecord
    """
    m = len(levels[0].pairs)
    if direct_solves is None:
        direct_solves = {k: direct_solve(levels[k].forms, m, tol=direct_tol)
                         for k in reference_levels(coeffs.preset, len(levels))}
    ref = _reference_values(coeffs.preset, m, len(levels), direct_solves)
    errors = [np.abs(rec.eigenvalues - ref) for rec in levels]
    energies = [_energy_error_entries(rec, hierarchy.levels[k], coeffs.preset, m)
                for k, rec in enumerate(levels)]
    hs = [rec.h for rec in levels]
    return ConvergenceRecord(
        levels=levels,
        eigenvalue_errors=errors,
        energy_errors=energies,
        observed_orders=[_fit_order(hs, [e[i] for e in errors]) for i in range(m)],
        energy_orders=[_fit_order(hs, [e[i] for e in energies]) for i in range(m)],
        reference_values=ref,
        m=m,
        preset=coeffs.preset,
        direct_tol=direct_tol,
        direct_solves=direct_solves,
    )


def compare_with_direct(record):
    """Pair an evaluated run with per-level direct solves on the same pencils,
    at the record's `direct_tol`; the solves `evaluate` made for the
    reference are reused.

    Returns value differences for every eigenvalue and sign-aligned energy
    (a-norm) vector differences for eigenvalues that are simple (vector
    comparisons inside a degenerate cluster are basis-dependent and skipped).
    """
    m = record.m
    direct_values = []
    value_diffs = []
    energy_diffs = []
    for k, rec in enumerate(record.levels):
        if k == 0:
            # the same pencil solve; reuse it so the coarse level is bit-equal
            direct = rec.pairs
        elif k in record.direct_solves:
            direct = record.direct_solves[k]
        else:
            direct = direct_solve(rec.forms, m, tol=record.direct_tol)
        direct_values.append(direct.values)
        value_diffs.append(np.abs(rec.eigenvalues - direct.values))
        diffs = [None] * m
        for i in range(m):
            if record.preset == "laplace":
                simple = exact_multiplicity(i) == 1
            else:
                simple = i == 0  # the first elliptic eigenvalue is always simple
            if not simple:
                continue
            u_ml = rec.pairs.vectors[:, i]
            u_dir = direct.vectors[:, i]
            if float(u_ml @ (rec.forms.mass @ u_dir)) < 0:
                u_dir = -u_dir
            diffs[i] = a_norm(rec.forms, u_ml - u_dir)
        energy_diffs.append(diffs)
    return ComparisonRecord(
        multilevel=record,
        direct_values=direct_values,
        value_diffs=value_diffs,
        energy_diffs=energy_diffs,
    )
