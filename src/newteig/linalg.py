"""Linear-algebra kernels: bordered saddle-point solves and dense pencil eigensolves."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse as sp
from scipy.sparse import linalg as spla


class SolverError(Exception):
    """A linear or eigenvalue solve failed; carries diagnostics when available."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class BorderedMatrix:
    """Saddle-point operator [[core, -border], [-border.T, 0]].

    ``core`` is the (possibly indefinite) shifted pencil over the free DOFs
    and ``border`` holds one dense constraint column per Lagrange multiplier.
    """

    core: sp.spmatrix
    border: np.ndarray

    def __post_init__(self):
        border = np.atleast_2d(np.asarray(self.border, dtype=float))
        if border.shape[0] != self.core.shape[0]:
            border = border.T
        if border.shape[0] != self.core.shape[0]:
            raise ValueError("border rows must match the core dimension")
        if (np.abs(border).max(axis=0) == 0).any():
            raise ValueError("border columns must be nonzero")
        object.__setattr__(self, "border", border)

    @property
    def n(self):
        return self.core.shape[0]

    @property
    def m(self):
        return self.border.shape[1]

    def assembled(self):
        """The full symmetric (n+m) x (n+m) sparse matrix."""
        return sp.bmat([[self.core, -self.border],
                        [-self.border.T, None]], format="csc")


def solve_bordered(matrix, rhs_top, rhs_bottom, tol=1e-10):
    """Solve [[core, -border], [-border.T, 0]] (w, g) = (rhs_top, -rhs_bottom).

    A sparse LU factorization is used and the residual is re-verified by an
    explicit matrix-vector product, blockwise against the right-hand side
    norm.

    Returns
    -------
    (w, g) : ((n,) ndarray, (m,) ndarray)
        Solution vector and Lagrange multipliers.

    Raises
    ------
    SolverError
        On factorization breakdown or when the verified residual exceeds
        ``tol`` times the right-hand side norm; this usually signals that
        the current iterate is too inaccurate for the bordered system to
        be safely nonsingular (coarse mesh too coarse).
    """
    n, m = matrix.n, matrix.m
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.atleast_1d(np.asarray(rhs_bottom, dtype=float))
    if rhs_top.shape != (n,) or rhs_bottom.shape != (m,):
        raise ValueError("right-hand side blocks must have shapes ({},) and ({},)".format(n, m))
    rhs = np.concatenate([rhs_top, -rhs_bottom])
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), np.zeros(m)

    assembled = matrix.assembled()
    try:
        lu = spla.splu(assembled)
        z = lu.solve(rhs)
    except (RuntimeError, ValueError) as exc:
        raise SolverError("bordered factorization failed: {}".format(exc)) from exc
    if not np.isfinite(z).all():
        raise SolverError("bordered solve produced non-finite values (singular system; "
                          "the coarse iterate may be outside the basin of attraction)")

    residual = assembled @ z - rhs
    top = float(np.linalg.norm(residual[:n]))
    bottom = float(np.linalg.norm(residual[n:]))
    achieved = max(top, bottom)
    if achieved > tol * rhs_norm:
        raise SolverError("bordered solve residual {:.3e} exceeds {:.3e}; the coarse "
                          "mesh may be too coarse for this eigenvalue".format(
                              achieved, tol * rhs_norm),
                          residual=achieved)
    return z[:n], z[n:]


def dense_gen_eig(a, b):
    """All eigenpairs of the dense symmetric pencil (a, b) with b positive definite.

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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale_a = max(float(np.abs(a).max()), 1e-300)
    scale_b = max(float(np.abs(b).max()), 1e-300)
    if np.abs(a - a.T).max() > 1e-10 * scale_a:
        raise ValueError("matrix a is not symmetric")
    if np.abs(b - b.T).max() > 1e-10 * scale_b:
        raise ValueError("matrix b is not symmetric")
    try:
        return scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T))
    except np.linalg.LinAlgError as exc:
        raise SolverError("b is not positive definite (mass matrix bug?)") from exc

