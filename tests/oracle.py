"""Oracle the tests hold the program to: the sparse-LU bordered solve for the
MINRES one."""

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import splu

from newteig.linalg import DEFAULT_SOLVER_TOL, SolverError


def assembled(matrix):
    """The full symmetric (n+m) x (n+m) sparse matrix of a `BorderedMatrix`."""
    return sp.bmat([[matrix.core - matrix.shift * matrix.mass, -matrix.border],
                    [-matrix.border.T, None]], format="csc")


def lu_solve_bordered(matrix, rhs_top, rhs_bottom, tol=DEFAULT_SOLVER_TOL, stats=None):
    """`linalg.solve_bordered` by one sparse LU (SuperLU, COLAMD order) of the
    assembled matrix, held to the same verified-residual gate and raising
    `SolverError` like it; `stats` receives ``iterations = 0``."""
    n = matrix.n
    rhs = np.concatenate([rhs_top, -np.atleast_1d(rhs_bottom)])
    try:
        z = splu(assembled(matrix)).solve(rhs)
    except RuntimeError as exc:
        raise SolverError("bordered solve failed: {}".format(exc)) from exc
    if not np.isfinite(z).all():
        raise SolverError("bordered solve produced non-finite values")
    residual = matrix.apply(z) - rhs
    achieved = max(float(np.linalg.norm(residual[:n])), float(np.linalg.norm(residual[n:])))
    rhs_norm = float(np.linalg.norm(rhs))
    if achieved > tol * rhs_norm:
        raise SolverError("bordered LU residual {:.3e} exceeds {:.3e}".format(
            achieved, tol * rhs_norm), residual=achieved)
    if stats is not None:
        stats.update(iterations=0, residual=achieved / (rhs_norm or 1.0))
    return z[:n], z[n:]

