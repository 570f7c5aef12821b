"""One Newton iteration step for the first m eigenpairs on a refined space.

For each previous eigenpair (mu_i, u_i), lifted into the refined space, the
step solves the bordered saddle-point system

    [[A - mu_i B, -B U0], [-(B U0)^T, 0]] (w_i, g) = (-mu_i B u_i, -e_i)

where the columns of U0 are all m lifted eigenvectors and e_i is the i-th
unit vector.  The m solutions span a trial space on which a small
Rayleigh-Ritz problem produces the new b-normalized, ascending set; for
m = 1 that reduces to b-normalizing w_1 and taking its Rayleigh quotient.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assemble import b_norm, rayleigh_quotient
from .linalg import (DEFAULT_SOLVER_TOL, BorderedMatrix, SolverError, VCycle,
                     block_preconditioner, dense_gen_eig, pencil_eigs, solve_bordered)


class ClusterGapWarning(RuntimeWarning):
    """The requested eigenpair count cuts through a near-degenerate cluster."""


class BasinWarning(RuntimeWarning):
    """A Newton step failed to improve the Rayleigh quotient."""


def canonical_sign(vectors):
    """Flip each column so its first significant entry is positive (determinism)."""
    vectors = np.array(vectors, dtype=float)
    scale = np.maximum(np.abs(vectors).max(axis=0), 1e-300)
    first = np.argmax(np.abs(vectors) > 1e-12 * scale, axis=0)
    vectors[:, vectors[first, np.arange(vectors.shape[1])] < 0] *= -1.0
    return vectors


@dataclass(frozen=True)
class EigenpairSet:
    """The first m eigenpairs on one level, held as two arrays.

    `values` is ascending, shape (m,); `vectors` holds the b-normalized,
    canonically signed eigenvectors as C-ordered columns, shape (n_free, m).
    A Newton step's set also keeps the MINRES iterations and verified
    relative residual of its bordered solve i, for each previous eigenpair i.
    """

    values: np.ndarray
    vectors: np.ndarray
    iterations: Optional[list] = None
    residuals: Optional[list] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.ascontiguousarray(self.vectors, dtype=float)
        if values.ndim != 1 or not len(values):
            raise ValueError("an eigenpair set needs a non-empty (m,) array of values")
        if vectors.ndim != 2 or vectors.shape[1] != len(values):
            raise ValueError("vectors of shape {} do not match {} values".format(
                vectors.shape, len(values)))
        if (np.diff(values) < 0).any():
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self):
        return len(self.values)


def coarse_solve(forms, m):
    """First `m` eigenpairs of the coarse pencil by `linalg.pencil_eigs`.

    Warns when the cut between m and m+1 splits a near-degenerate cluster
    (relative gap below 1e-8).
    """
    n = forms.n_free
    if not 1 <= m <= n:
        raise ValueError("m must be between 1 and {}, got {}".format(n, m))
    values, vectors = pencil_eigs(forms.stiffness, forms.mass, m + 1)
    if m < n and values[m] - values[m - 1] < 1e-8 * abs(values[m - 1]):
        warnings.warn("eigenvalues {} and {} differ by less than 1e-8 relative; "
                      "m={} splits a degenerate cluster".format(m, m + 1, m),
                      ClusterGapWarning, stacklevel=2)
    return EigenpairSet(values[:m], canonical_sign(vectors[:, :m]))


def newton_step_multi(forms_fine, prev_set, prolong, tol=DEFAULT_SOLVER_TOL, cycle=None):
    """One Newton iteration step for the first m eigenpairs.

    Each eigenpair gets its own bordered solve, constrained against all m
    previous eigenvectors, by MINRES preconditioned with a multigrid cycle
    for the stiffness and the border's Schur estimate; the m solutions then
    pass through a Rayleigh-Ritz projection that restores b-orthonormality
    and ascending order.  Warns with `BasinWarning` when a new eigenvalue
    lies above its predecessor.

    Parameters
    ----------
    forms_fine : AssembledForms
        Pencil on the refined space.
    prev_set : EigenpairSet
        Iterates on the coarser space (b-normalized, values = their Rayleigh
        quotients).
    prolong : sparse matrix
        Free-DOF prolongation from the coarse to the fine space (see
        `assemble.free_prolongation`).
    tol : float
        Relative residual bound for the bordered solves.
    cycle : VCycle, optional
        Multigrid cycle for ``forms_fine.stiffness``; by default a two-level
        cycle with the Galerkin coarse operator ``prolong.T A prolong``.
    """
    m = len(prev_set)
    stiffness, mass = forms_fine.stiffness, forms_fine.mass
    if cycle is None:
        cycle = VCycle(stiffness, prolong, VCycle(prolong.T @ stiffness @ prolong))
    basis = prolong @ prev_set.vectors              # (n_fine, m)
    mass_basis = mass @ basis
    preconditioner = block_preconditioner(cycle, mass_basis)

    trial = np.empty((forms_fine.n_free, m))
    stats = [{} for _ in range(m)]
    for i in range(m):
        rhs_bottom = np.zeros(m)
        rhs_bottom[i] = 1.0
        trial[:, i], _ = solve_bordered(BorderedMatrix(stiffness, mass_basis, mass,
                                                       prev_set.values[i]),
                                        rhs_top=-prev_set.values[i] * mass_basis[:, i],
                                        rhs_bottom=rhs_bottom, tol=tol,
                                        preconditioner=preconditioner, stats=stats[i])

    gram = trial.T @ (mass @ trial)
    if np.linalg.cond(gram) > 1e12:
        raise SolverError("Newton solutions are numerically rank deficient; use a "
                          "smaller eigenpair count or a finer coarse mesh")
    _, small_vecs = dense_gen_eig(trial.T @ (stiffness @ trial), gram)
    ritz = trial @ small_vecs
    ritz = canonical_sign(ritz / [b_norm(forms_fine, ritz[:, i]) for i in range(m)])
    # on contiguous copies, so the dot products sum in the same order for every m
    values = np.array([rayleigh_quotient(forms_fine, ritz[:, i].copy()) for i in range(m)])
    order = np.argsort(values, kind="stable")
    for prev, new in zip(prev_set.values, values[order]):
        if new > prev * (1.0 + 1e-10):
            warnings.warn("Rayleigh quotient rose from {:.12g} to {:.12g}; the coarse "
                          "mesh is likely outside the basin of attraction".format(prev, new),
                          BasinWarning, stacklevel=2)
    return EigenpairSet(values[order], ritz[:, order],
                        iterations=[solve["iterations"] for solve in stats],
                        residuals=[solve["residual"] for solve in stats])
