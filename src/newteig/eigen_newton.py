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

import numpy as np

from .assemble import b_norm, rayleigh_quotient
from .linalg import (BorderedMatrix, SolverError, VCycle, block_preconditioner,
                     dense_gen_eig, solve_bordered)

DENSE_SOLVE_CAP = 3000


class ClusterGapWarning(RuntimeWarning):
    """The requested eigenpair count cuts through a near-degenerate cluster."""


class BasinWarning(RuntimeWarning):
    """A Newton step failed to improve the Rayleigh quotient."""


def canonical_sign(vector):
    """Flip the sign so the first significant entry is positive (determinism)."""
    vector = np.asarray(vector, dtype=float)
    nz = np.flatnonzero(np.abs(vector) > 1e-12 * max(np.abs(vector).max(), 1e-300))
    if len(nz) and vector[nz[0]] < 0:
        return -vector
    return vector.copy()


@dataclass(frozen=True)
class Eigenpair:
    """A b-normalized eigenvalue/eigenvector approximation on one level."""

    value: float
    vector: np.ndarray
    level: int = 0


class EigenpairSet:
    """Ascending, pairwise b-orthogonal eigenpairs on a common level.

    A Newton step's set keeps the MINRES iterations and verified relative
    residual of its bordered solve i, for each previous eigenpair i.
    """

    def __init__(self, pairs, iterations=None, residuals=None):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty eigenpair set")
        if any(p.level != pairs[0].level for p in pairs):
            raise ValueError("eigenpairs live on different levels")
        if any(pairs[i + 1].value < pairs[i].value for i in range(len(pairs) - 1)):
            raise ValueError("eigenvalues must be ascending")
        self.pairs = pairs
        self.iterations = iterations
        self.residuals = residuals

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    @property
    def level(self):
        return self.pairs[0].level

    @property
    def values(self):
        return np.array([p.value for p in self.pairs])

    @property
    def vectors(self):
        """Eigenvectors as columns, shape (n_free, m)."""
        return np.column_stack([p.vector for p in self.pairs])


def coarse_solve(forms, m, dense_cap=DENSE_SOLVE_CAP, level=0):
    """First `m` eigenpairs of the pencil by a dense generalized eigensolve.

    Meant for the coarse space only; refuses above `dense_cap` free DOFs.
    Warns when the cut between m and m+1 splits a near-degenerate cluster
    (relative gap below 1e-8).
    """
    n = forms.n_free
    if n > dense_cap:
        raise SolverError("coarse space has {} free DOFs, above the dense-solve "
                          "cap of {}".format(n, dense_cap))
    if not 1 <= m <= n:
        raise ValueError("m must be between 1 and {}, got {}".format(n, m))
    values, vectors = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray(),
                                    count=m + 1)
    if m < n and values[m] - values[m - 1] < 1e-8 * abs(values[m - 1]):
        warnings.warn("eigenvalues {} and {} differ by less than 1e-8 relative; "
                      "m={} splits a degenerate cluster".format(m, m + 1, m),
                      ClusterGapWarning, stacklevel=2)
    pairs = [Eigenpair(value=float(values[i]), vector=canonical_sign(vectors[:, i]),
                       level=level)
             for i in range(m)]
    return EigenpairSet(pairs)


def newton_step_multi(forms_fine, prev_set, prolong, tol=1e-10, cycle=None):
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
    if cycle is None:
        stiffness = forms_fine.stiffness
        cycle = VCycle(stiffness, prolong, VCycle(prolong.T @ stiffness @ prolong))
    basis = prolong @ prev_set.vectors              # (n_fine, m)
    mass_basis = forms_fine.mass @ basis
    preconditioner = block_preconditioner(cycle, mass_basis)

    trial = np.empty((forms_fine.n_free, m))
    stats = [{} for _ in range(m)]
    for i in range(m):
        core = (forms_fine.stiffness - prev_set[i].value * forms_fine.mass).tocsr()
        rhs_bottom = np.zeros(m)
        rhs_bottom[i] = 1.0
        trial[:, i], _ = solve_bordered(BorderedMatrix(core, mass_basis),
                                        rhs_top=-prev_set[i].value * mass_basis[:, i],
                                        rhs_bottom=rhs_bottom, tol=tol,
                                        preconditioner=preconditioner, stats=stats[i])

    gram = trial.T @ (forms_fine.mass @ trial)
    if np.linalg.cond(gram) > 1e12:
        raise SolverError("Newton solutions are numerically rank deficient; use a "
                          "smaller eigenpair count or a finer coarse mesh")
    _, small_vecs = dense_gen_eig(trial.T @ (forms_fine.stiffness @ trial), gram)
    ritz = trial @ small_vecs

    level = prev_set.level + 1
    pairs = []
    for i in range(m):
        vector = canonical_sign(ritz[:, i] / b_norm(forms_fine, ritz[:, i]))
        pairs.append(Eigenpair(value=rayleigh_quotient(forms_fine, vector),
                               vector=vector, level=level))
    pairs.sort(key=lambda p: p.value)
    for prev, new in zip(prev_set, pairs):
        if new.value > prev.value * (1.0 + 1e-10):
            warnings.warn("Rayleigh quotient rose from {:.12g} to {:.12g}; the coarse "
                          "mesh is likely outside the basin of attraction".format(
                              prev.value, new.value),
                          BasinWarning, stacklevel=2)
    return EigenpairSet(pairs, iterations=[solve["iterations"] for solve in stats],
                        residuals=[solve["residual"] for solve in stats])
