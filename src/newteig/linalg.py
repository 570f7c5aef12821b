"""Linear-algebra kernels: bordered saddle-point solves and pencil eigensolves."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse as sp
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence, LinearOperator, eigsh,
                                 minres, splu)

# pencils below this many free DOFs are solved densely by `pencil_eigs`
DENSE_CUTOFF = 300
JACOBI_WEIGHT = 0.8
# each row's Jacobi weight is capped at JACOBI_L1_CAP / sum_j |k_ij| (see VCycle)
JACOBI_L1_CAP = 1.9
SMOOTHING_STEPS = 2
MINRES_MAX_ITERATIONS = 500
# scipy's MINRES stops on a backward-error estimate, not on the gated residual
MINRES_RTOL_FACTOR = 1e-4
# verified relative residual of the bordered solves, a run's `solver_tol`
DEFAULT_SOLVER_TOL = 1e-10


class SolverError(Exception):
    """A linear or eigenvalue solve failed; carries diagnostics when available."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class BorderedMatrix:
    """Saddle-point operator [[core - shift mass, -border], [-border.T, 0]].

    ``core - shift mass`` is the (possibly indefinite) shifted pencil over the
    free DOFs, applied as two products and never formed; without a ``mass``
    the shift term is the zero matrix.  ``border`` holds one dense constraint
    column per Lagrange multiplier.
    """

    core: sp.spmatrix
    border: np.ndarray
    mass: sp.spmatrix = None
    shift: float = 0.0

    def __post_init__(self):
        border = np.atleast_2d(np.asarray(self.border, dtype=float))
        if border.shape[0] != self.core.shape[0]:
            border = border.T
        if border.shape[0] != self.core.shape[0]:
            raise ValueError("border rows must match the core dimension")
        if (np.abs(border).max(axis=0) == 0).any():
            raise ValueError("border columns must be nonzero")
        object.__setattr__(self, "border", border)
        if self.mass is None:
            object.__setattr__(self, "mass", sp.csr_matrix(self.core.shape))

    @property
    def n(self):
        return self.core.shape[0]

    @property
    def m(self):
        return self.border.shape[1]

    def assembled(self):
        """The full symmetric (n+m) x (n+m) sparse matrix."""
        return sp.bmat([[self.core - self.shift * self.mass, -self.border],
                        [-self.border.T, None]], format="csc")

    def apply(self, z):
        """Product with an (n+m,) vector, without assembling the matrix."""
        w, g = z[:self.n], z[self.n:]
        return np.concatenate([self.core @ w - self.shift * (self.mass @ w) - self.border @ g,
                               -(self.border.T @ w)])


class VCycle:
    """Symmetric multigrid V-cycle, an SPD approximation of ``matrix^-1``.

    Without a coarser cycle it is an exact sparse LU solve.  Otherwise it
    takes `SMOOTHING_STEPS` damped Jacobi steps, a coarse correction through
    ``prolong`` and ``coarser``, and as many Jacobi steps again, which keeps
    it symmetric.  Row i's weight is ``JACOBI_WEIGHT / k_ii``, capped at
    ``JACOBI_L1_CAP / sum_j |k_ij|``: then ``2 diag(1/w) - matrix`` is strictly
    diagonally dominant, hence SPD, so the smoother converges and the cycle
    stays SPD on every level (anisotropic coefficients on distorted meshes can
    push the spectrum of ``diag(matrix)^-1 matrix`` past 2 / JACOBI_WEIGHT).
    A Laplace row with nonpositive off-diagonals has ``sum_j |k_ij| <= 2 k_ii``
    and keeps ``JACOBI_WEIGHT / k_ii``.
    """

    def __init__(self, matrix, prolong=None, coarser=None):
        self.matrix = sp.csr_matrix(matrix)
        self.prolong = prolong
        self.coarser = coarser
        if coarser is None:
            self._lu = splu(self.matrix.tocsc())
        else:
            self._restrict = prolong.T            # for a CSR prolong, a CSC view of its arrays
            # every row holds its positive diagonal, so no reduceat segment is empty
            l1 = np.add.reduceat(np.abs(self.matrix.data), self.matrix.indptr[:-1])
            self._weights = np.minimum(JACOBI_WEIGHT / self.matrix.diagonal(), JACOBI_L1_CAP / l1)

    def __call__(self, residual):
        if self.coarser is None:
            return self._lu.solve(residual)
        x = self._weights * residual
        for _ in range(SMOOTHING_STEPS - 1):
            x += self._weights * (residual - self.matrix @ x)
        x += self.prolong @ self.coarser(self._restrict @ (residual - self.matrix @ x))
        for _ in range(SMOOTHING_STEPS):
            x += self._weights * (residual - self.matrix @ x)
        return x


def block_preconditioner(cycle, border):
    """diag(cycle, S^-1) with the border's Schur estimate S = border.T cycle(border).

    Built once per border, it serves every core near the SPD matrix that
    `cycle` approximately inverts.
    """
    n = border.shape[0]
    schur = border.T @ np.column_stack([cycle(column) for column in border.T])
    try:
        factor = scipy.linalg.cho_factor(0.5 * (schur + schur.T))
    except np.linalg.LinAlgError as exc:
        raise SolverError("border Schur estimate is not positive definite") from exc
    return lambda z: np.concatenate([cycle(z[:n]), scipy.linalg.cho_solve(factor, z[n:])])


def solve_bordered(matrix, rhs_top, rhs_bottom, tol=DEFAULT_SOLVER_TOL, preconditioner=None,
                   stats=None):
    """Solve the `BorderedMatrix` system ``matrix (w, g) = (rhs_top, -rhs_bottom)``.

    Given a `preconditioner` (an SPD map of (n+m,) vectors, see
    `block_preconditioner`) the system is solved by MINRES, restarted from
    its iterate on the explicit residual until that meets the tolerance or
    `MINRES_MAX_ITERATIONS` iterations are spent; without one, by sparse LU
    (the oracle of the tests).  Either way the residual is verified by an
    explicit product, blockwise against the right-hand side norm.  `stats`,
    a dict, receives ``iterations`` (0 for the LU) and ``residual``, the
    verified residual over the right-hand side norm.

    Returns
    -------
    (w, g) : ((n,) ndarray, (m,) ndarray)
        Solution vector and Lagrange multipliers.

    Raises
    ------
    SolverError
        On factorization or MINRES breakdown, or when the verified residual
        exceeds ``tol`` times the right-hand side norm (``iterations`` is
        then set for MINRES).  The latter signals either an iterate too
        inaccurate for the bordered system to be safely nonsingular (coarse
        mesh too coarse) or a ``tol`` tighter than double precision reaches
        at this size.
    """
    n, m = matrix.n, matrix.m
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.atleast_1d(np.asarray(rhs_bottom, dtype=float))
    if rhs_top.shape != (n,) or rhs_bottom.shape != (m,):
        raise ValueError("right-hand side blocks must have shapes ({},) and ({},)".format(n, m))
    rhs = np.concatenate([rhs_top, -rhs_bottom])
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        if stats is not None:
            stats.update(iterations=0, residual=0.0)
        return np.zeros(n), np.zeros(m)

    def residual_norm(residual):
        return max(float(np.linalg.norm(residual[:n])), float(np.linalg.norm(residual[n:])))

    target = tol * rhs_norm
    iterations = None
    try:
        if preconditioner is None:
            z = splu(matrix.assembled()).solve(rhs)
            achieved = residual_norm(matrix.apply(z) - rhs)
        else:
            # the residual of z = 0 is -rhs: one explicit product per MINRES pass
            z, iterations, achieved = np.zeros(n + m), 0, residual_norm(rhs)
            operator = LinearOperator((n + m, n + m), matvec=matrix.apply, dtype=float)
            inverse = LinearOperator((n + m, n + m), matvec=preconditioner, dtype=float)
            ticks = []
            while achieved > target and iterations < MINRES_MAX_ITERATIONS:
                z, _ = minres(operator, rhs, x0=z, rtol=MINRES_RTOL_FACTOR * tol, M=inverse,
                              maxiter=MINRES_MAX_ITERATIONS - iterations,
                              callback=lambda _: ticks.append(None))
                iterations = len(ticks)
                achieved = residual_norm(matrix.apply(z) - rhs)
    except (RuntimeError, ValueError) as exc:
        raise SolverError("bordered solve failed: {}".format(exc)) from exc
    if not np.isfinite(z).all():
        raise SolverError("bordered solve produced non-finite values (singular system; "
                          "the coarse iterate may be outside the basin of attraction)")
    if achieved > target:
        raise SolverError("bordered solve residual {:.3e} exceeds {:.3e}{}; either the "
                          "coarse mesh is too coarse for this eigenvalue (the iterate is "
                          "outside the basin of attraction) or the tolerance is tighter "
                          "than double precision reaches at {} unknowns".format(
                              achieved, target,
                              "" if iterations is None else
                              " after {} MINRES iterations".format(iterations), n + m),
                          residual=achieved, iterations=iterations)
    if stats is not None:
        stats.update(iterations=iterations or 0, residual=achieved / rhs_norm)
    return z[:n], z[n:]


def dense_gen_eig(a, b, count=None):
    """The first `count` eigenpairs (all by default) of the dense symmetric
    pencil (a, b) with b positive definite.  Each matrix is checked and
    symmetrized in a private Fortran-order copy that `scipy.linalg.eigh` overwrites.

    Returns
    -------
    (values, vectors)
        Ascending eigenvalues and b-orthonormal eigenvectors as columns
        (``vectors.T @ b @ vectors = I``).

    Raises
    ------
    SolverError
        If `b` is not positive definite (`scipy.linalg.eigh` cannot factor
        it), which for assembled pencils signals a mass-matrix bug.
    """
    pencil = []
    for name, matrix in (("a", a), ("b", b)):
        matrix = np.asarray(matrix, dtype=float)
        scale = max(float(matrix.max()), -float(matrix.min()), 1e-300)
        copy = np.subtract(matrix, matrix.T, order="F")
        if max(float(copy.max()), -float(copy.min())) > 1e-10 * scale:
            raise ValueError("matrix {} is not symmetric".format(name))
        pencil.append(np.multiply(0.5, np.add(matrix, matrix.T, out=copy), out=copy))
    subset = None if count is None or count >= len(copy) else [0, count - 1]
    try:
        return scipy.linalg.eigh(*pencil, subset_by_index=subset, overwrite_a=True,
                                 overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError("b is not positive definite (mass matrix bug?)") from exc


def pencil_eigs(stiffness, mass, count, tol=0.0, max_iter=200, dense_cutoff=DENSE_CUTOFF):
    """The lowest `count` eigenpairs of the sparse SPD pencil (stiffness, mass).

    Below `dense_cutoff` free DOFs, or for the whole space, `dense_gen_eig`
    solves it.  Otherwise ARPACK's shift-invert Lanczos runs about 0 on one
    symmetric-mode sparse LU of the stiffness, from a seeded random start
    (a constant one is b-orthogonal to every mode odd about a symmetry line
    of the mesh).  `tol` is the relative accuracy of the eigenvalues (0:
    machine precision) and `max_iter` bounds the Lanczos restarts.
    `stiffness` must be exactly symmetric (assembled pencils are).

    Returns
    -------
    (values, vectors)
        Ascending eigenvalues and b-orthonormal eigenvectors as columns.

    Raises
    ------
    SolverError
        If the factorization or ARPACK fails, or ARPACK does not converge
        (``iterations`` is then `max_iter`).
    """
    n = stiffness.shape[0]
    if n < dense_cutoff or count >= n:
        return dense_gen_eig(stiffness.toarray(), mass.toarray(), count=count)
    stiffness = sp.csr_matrix(stiffness)
    # exactly symmetric: the CSR arrays of the stiffness are also its CSC arrays
    transpose = sp.csc_matrix((stiffness.data, stiffness.indices, stiffness.indptr),
                              shape=stiffness.shape)
    try:
        # without symmetric mode and diagonal pivots SuperLU discards the order's fill savings
        factor = splu(transpose, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError("stiffness factorization failed: {}".format(exc)) from exc
    try:
        values, vectors = eigsh(stiffness, k=count, M=mass, sigma=0,
                                OPinv=LinearOperator((n, n), matvec=factor.solve, dtype=float),
                                v0=np.random.default_rng(0).standard_normal(n), tol=tol,
                                maxiter=max_iter)
    except ArpackNoConvergence as exc:
        raise SolverError("shift-invert Lanczos did not converge in {} iterations"
                          .format(max_iter), iterations=max_iter) from exc
    except ArpackError as exc:
        raise SolverError("shift-invert Lanczos failed: {}".format(exc)) from exc
    order = np.argsort(values, kind="stable")
    vectors = vectors[:, order]
    return values[order], vectors / np.sqrt(np.einsum("ij,ij->j", vectors, mass @ vectors))
