"""Linear-algebra kernels: bordered saddle-point solves and pencil eigensolves."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse as sp
from scipy.linalg.blas import daxpy, ddot, dgemm, dgemv
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

# The bordered solves take every dense product from scipy's BLAS library.
# numpy bundles a second copy with its own thread pool, and alternating
# between two pools of spinning threads stalls each call for milliseconds
# once BLAS runs multi-threaded on two cores.

# pencils below this many free DOFs are solved densely by `pencil_eigs`
DENSE_CUTOFF = 300
JACOBI_WEIGHT = 0.8
# each row's Jacobi weight is capped at JACOBI_L1_CAP / sum_j |k_ij| (see VCycle)
JACOBI_L1_CAP = 1.9
SMOOTHING_STEPS = 2
MINRES_MAX_ITERATIONS = 500
# verified relative residual of the bordered solves, a run's `solver_tol`
DEFAULT_SOLVER_TOL = 1e-8


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
        object.__setattr__(self, "border", np.ascontiguousarray(border))
        if self.mass is None:
            object.__setattr__(self, "mass", sp.csr_matrix(self.core.shape))

    @property
    def n(self):
        return self.core.shape[0]

    @property
    def m(self):
        return self.border.shape[1]

    def apply(self, z):
        """Product with an (n+m,) vector, without assembling the matrix."""
        w, g = z[:self.n], z[self.n:]
        top = daxpy(self.mass @ w, self.core @ w, a=-self.shift)
        # BLAS gemv in place on the Fortran-ordered transpose: numpy's matmul
        # takes ~7x longer on an (n, 1) border
        top = dgemv(-1.0, self.border.T, g, beta=1.0, y=top, overwrite_y=True, trans=1)
        return np.concatenate([top, -_transpose_product(self.border, w)])


def _transpose_product(border, x):
    """``border.T @ x`` for an (n,) or (n, m) `x`, by the BLAS routine numpy's
    matmul picks, so the sums run in its order: a dot product for one
    column, else gemv for a vector and gemm for a matrix."""
    if border.shape[1] == 1:
        return np.full((1,) * x.ndim, ddot(border[:, 0], x.ravel()))
    if x.ndim == 1:
        return dgemv(1.0, border.T, x)
    return dgemm(1.0, x.T, border.T, trans_b=1).T


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
            self._smooth(x, residual)
        x += self.prolong @ self.coarser(self._restrict @ self._defect(residual, x))
        for _ in range(SMOOTHING_STEPS):
            self._smooth(x, residual)
        return x

    def _defect(self, residual, x):
        """``residual - matrix @ x``, written over the product."""
        product = self.matrix @ x
        return np.subtract(residual, product, out=product)

    def _smooth(self, x, residual):
        """One damped Jacobi step ``x += weights (residual - matrix @ x)``, in place."""
        step = self._defect(residual, x)
        step *= self._weights
        x += step


def block_preconditioner(cycle, border):
    """diag(cycle, S^-1) with the border's Schur estimate S = border.T cycle(border).

    Built once per border, it serves every core near the SPD matrix that
    `cycle` approximately inverts.
    """
    n = border.shape[0]
    schur = _transpose_product(border, np.column_stack([cycle(column) for column in border.T]))
    try:
        factor = scipy.linalg.cho_factor(0.5 * (schur + schur.T))
    except np.linalg.LinAlgError as exc:
        raise SolverError("border Schur estimate is not positive definite") from exc
    return lambda z: np.concatenate([cycle(z[:n]), scipy.linalg.cho_solve(factor, z[n:])])


def solve_bordered(matrix, rhs_top, rhs_bottom, tol=DEFAULT_SOLVER_TOL, preconditioner=None,
                   stats=None):
    """Solve the `BorderedMatrix` system ``matrix (w, g) = (rhs_top, -rhs_bottom)``.

    MINRES, preconditioned by `preconditioner` (an SPD map of (n+m,)
    vectors, see `block_preconditioner`; without one, unpreconditioned),
    stops at the gate ``max(||r_top||, ||r_bottom||) <= tol ||rhs||``: once
    its residual recurrence meets the gate, one explicit product verifies
    it (see `_minres`).  `stats`, a dict, receives ``iterations`` and
    ``residual``, the verified residual over the right-hand side norm.

    Returns
    -------
    (w, g) : ((n,) ndarray, (m,) ndarray)
        Solution vector and Lagrange multipliers.

    Raises
    ------
    SolverError
        On non-finite values or an indefinite preconditioner, or when the
        verified residual still exceeds ``tol`` times the right-hand side
        norm after `MINRES_MAX_ITERATIONS` iterations or once the Krylov
        space is exhausted (``iterations`` and ``residual`` are then set).
        The latter signals either an iterate too inaccurate for the
        bordered system to be safely nonsingular (coarse mesh too coarse)
        or a ``tol`` tighter than double precision reaches at this size.
    """
    n, m = matrix.n, matrix.m
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.atleast_1d(np.asarray(rhs_bottom, dtype=float))
    if rhs_top.shape != (n,) or rhs_bottom.shape != (m,):
        raise ValueError("right-hand side blocks must have shapes ({},) and ({},)".format(n, m))
    rhs = np.concatenate([rhs_top, -rhs_bottom])
    rhs_norm = math.sqrt(ddot(rhs, rhs))
    if rhs_norm == 0.0:
        z, iterations, achieved = np.zeros(n + m), 0, 0.0
    else:
        z, iterations, achieved = _minres(matrix, rhs, tol * rhs_norm,
                                          preconditioner or (lambda r: r))
    if stats is not None:
        stats.update(iterations=iterations, residual=achieved / (rhs_norm or 1.0))
    return z[:n], z[n:]


def _minres(matrix, rhs, target, preconditioner):
    """Preconditioned MINRES (Paige and Saunders 1975) from zero, stopped at
    the gate `target`.

    The residual ``b - A x = Z t`` lies in the span of the Lanczos vectors
    ``z / beta``, and its coordinates follow ``t_k = s_k^2 t_(k-1) -
    phibar_k c_k e_(k+1)`` from the rotations, so one vector update per
    iteration keeps it without a product.  Once it meets the gate, one
    explicit product verifies the iterate; an iterate the product does not
    confirm is not restarted but iterated on, and verified again on each
    later iteration whose recurrence meets the gate.

    Returns (solution, iterations, verified residual norm).
    """
    n = matrix.n
    z, z_old, residual = rhs, np.zeros_like(rhs), rhs.copy()
    q = preconditioner(z)
    beta = _beta(z, q)
    x, w, w_old = np.zeros_like(rhs), np.zeros_like(rhs), np.zeros_like(rhs)
    old_beta, phibar, dbar, epsilon, cs, sn = 1.0, beta, 0.0, 0.0, -1.0, 0.0
    for iteration in range(1, MINRES_MAX_ITERATIONS + 1):
        v = q / beta
        y = daxpy(z_old, matrix.apply(v), a=-beta / old_beta)
        alpha = ddot(v, y)
        z_old, z = z, daxpy(z, y, a=-alpha / beta)
        q = preconditioner(z)
        old_beta, beta = beta, _beta(z, q)
        # the next rotation of the tridiagonal Lanczos matrix
        old_epsilon = epsilon
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        epsilon, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w_old, w = w, daxpy(w, daxpy(w_old, v, a=-old_epsilon), a=-delta)
        w /= gamma
        x = daxpy(w, x, a=phi)
        residual *= sn * sn
        # beta = 0: the Krylov space is exhausted, and this iterate is the last
        if beta > 0:
            residual = daxpy(z, residual, a=-phibar * cs / beta)
            if _gated_norm(residual, n) > target and iteration < MINRES_MAX_ITERATIONS:
                continue
        achieved = _gated_norm(matrix.apply(x) - rhs, n)
        if achieved <= target:
            return x, iteration, achieved
        if beta == 0 or iteration == MINRES_MAX_ITERATIONS:
            raise SolverError(
                "bordered solve residual {:.3e} exceeds {:.3e} after {} MINRES iterations; "
                "either the coarse mesh is too coarse for this eigenvalue (the iterate is "
                "outside the basin of attraction) or the tolerance is tighter than double "
                "precision reaches at {} unknowns".format(achieved, target, iteration, len(rhs)),
                residual=achieved, iterations=iteration)


def _gated_norm(residual, n):
    top, bottom = residual[:n], residual[n:]
    return math.sqrt(max(ddot(top, top), ddot(bottom, bottom)))


def _beta(z, q):
    """The preconditioned norm ``sqrt(z . q)`` of a Lanczos vector."""
    square = ddot(z, q)
    if not math.isfinite(square):
        raise SolverError("bordered solve produced non-finite values (singular system; "
                          "the coarse iterate may be outside the basin of attraction)")
    if square < 0:
        raise SolverError("bordered solve failed: the preconditioner is not positive definite")
    return math.sqrt(square)


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
