"""Linear-algebra kernels: bordered saddle-point solves and dense pencil eigensolves."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse as sp
from scipy.sparse.linalg import splu

ND_LEAF_SIZE = 64


class SolverError(Exception):
    """A linear or eigenvalue solve failed; carries diagnostics when available."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def nested_dissection_order(points, pattern):
    """Geometric nested-dissection order of the nodes of a mesh graph.

    Works in rounds over all parts at once.  Each round splits every part
    with more than `ND_LEAF_SIZE` nodes at the median of its longer
    coordinate extent; the nodes of the lower half with a graph edge into
    the upper half form the part's separator, which is ordered after both
    halves.  Removing the separator disconnects the halves, so every edge
    between two nodes still being split joins nodes of one part.

    Parameters
    ----------
    points : (n, 2) array_like
        Node coordinates.
    pattern : (n, n) sparse matrix
        Symmetric graph; its stored entries are the edges.

    Returns
    -------
    (n,) int ndarray
        Permutation: position k of the order holds node ``order[k]``.
    """
    x, y = np.asarray(points, dtype=float).T.copy()
    n = len(x)
    graph = sp.csr_matrix(pattern, dtype=float, copy=True)
    graph.data[:] = 1.0
    # one base-3 digit per round (0 lower, 1 upper, 2 separator); halving
    # parts keeps the round count near log2(n / ND_LEAF_SIZE), far below the
    # 39 digits an int64 holds
    key = np.zeros(n, dtype=np.int64)
    nodes = np.arange(n)            # nodes still being split, parts contiguous
    while len(nodes):
        first = np.flatnonzero(np.diff(key[nodes], prepend=-1))
        sizes = np.diff(first, append=len(nodes))
        part = np.repeat(np.arange(len(first)), sizes)
        xn, yn = x[nodes], y[nodes]
        wide = (np.maximum.reduceat(xn, first) - np.minimum.reduceat(xn, first)
                >= np.maximum.reduceat(yn, first) - np.minimum.reduceat(yn, first))
        nodes = nodes[np.lexsort((np.where(wide[part], xn, yn), part))]
        split = sizes[part] > ND_LEAF_SIZE
        half = np.arange(len(nodes)) - first[part] < sizes[part] // 2
        lower = np.zeros(n, dtype=bool)
        upper = np.zeros(n, dtype=bool)
        lower[nodes[split & half]] = True
        upper[nodes[split & ~half]] = True
        separator = lower & (graph @ upper > 0)

        key *= 3
        key[upper] += 1
        key[separator] += 2
        # lower halves precede upper halves within a part, so the survivors
        # stay grouped by part in key order
        nodes = nodes[split & ~separator[nodes]]
    return np.argsort(key, kind="stable")


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
        return sp.bmat([[self.core, -self.border], [-self.border.T, None]], format="csc")


def solve_bordered(matrix, rhs_top, rhs_bottom, tol=1e-10):
    """Solve [[core, -border], [-border.T, 0]] (w, g) = (rhs_top, -rhs_bottom).

    The matrix is factored by sparse LU with partial pivoting in the given
    numbering, multipliers last, with no fill-reducing reordering: callers
    number the free DOFs in a fill-reducing order first (see
    `nested_dissection_order`).  The residual is re-verified by an explicit
    matrix-vector product, blockwise against the right-hand side norm.

    Returns
    -------
    (w, g) : ((n,) ndarray, (m,) ndarray)
        Solution vector and Lagrange multipliers.

    Raises
    ------
    SolverError
        On factorization breakdown or when the verified residual exceeds
        ``tol`` times the right-hand side norm.  The latter signals either
        an iterate too inaccurate for the bordered system to be safely
        nonsingular (coarse mesh too coarse) or a ``tol`` tighter than
        double precision reaches at this size.
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
        z = splu(assembled, permc_spec="NATURAL").solve(rhs)
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
        raise SolverError("bordered solve residual {:.3e} exceeds {:.3e}; either the "
                          "coarse mesh is too coarse for this eigenvalue (the iterate is "
                          "outside the basin of attraction) or the tolerance is tighter "
                          "than double precision reaches at {} unknowns".format(
                              achieved, tol * rhs_norm, n + m),
                          residual=achieved)
    return z[:n], z[n:]


def dense_gen_eig(a, b, count=None):
    """The first `count` eigenpairs (all by default) of the dense symmetric
    pencil (a, b) with b positive definite.

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
    subset = None if count is None or count >= len(a) else [0, count - 1]
    try:
        return scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T), subset_by_index=subset)
    except np.linalg.LinAlgError as exc:
        raise SolverError("b is not positive definite (mass matrix bug?)") from exc
