"""P1 stiffness/mass assembly with Dirichlet elimination, norms and interpolation.

The bilinear forms are

    a(u, v) = integral of  grad(v) . D grad(u) + c u v
    b(u, v) = integral of  r u v

with a symmetric positive-definite diffusion matrix D(x), a nonnegative
reaction coefficient c(x) and a positive weight r(x).  Boundary degrees of
freedom are eliminated (homogeneous Dirichlet), so both assembled matrices
act on interior vertices only.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse as sp


class AssemblyError(ValueError):
    """Coefficient or quadrature data violates the assembly contract."""


# Gauss rules on the reference triangle: barycentric coordinates and weights
# normalized to sum to 1 (scaled by the physical triangle area on use).
_W15 = math.sqrt(15.0)
_QUAD_RULES = {
    2: (
        np.array([
            [2 / 3, 1 / 6, 1 / 6],
            [1 / 6, 2 / 3, 1 / 6],
            [1 / 6, 1 / 6, 2 / 3],
        ]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
    5: (
        np.array(
            [[1 / 3, 1 / 3, 1 / 3]]
            + [np.roll([1 - 2 * a, a, a], s).tolist()
               for a in ((6 - _W15) / 21,) for s in range(3)]
            + [np.roll([1 - 2 * a, a, a], s).tolist()
               for a in ((6 + _W15) / 21,) for s in range(3)]
        ),
        np.array([9 / 40]
                 + [(155 - _W15) / 1200] * 3
                 + [(155 + _W15) / 1200] * 3),
    ),
}


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the operator, evaluated pointwise.

    Each callable takes coordinate arrays ``(x, y)`` of shape (n,) and
    returns ``(n, 2, 2)`` for the diffusion matrix, ``(n,)`` otherwise.

    Attributes
    ----------
    diffusion : callable
        Symmetric positive-definite 2x2 matrix field.
    reaction : callable
        Nonnegative zeroth-order coefficient of a(.,.).
    weight : callable
        Positive weight of b(.,.).
    preset : str
        One of ``laplace``, ``example2``, ``custom``.
    """

    diffusion: Callable
    reaction: Callable
    weight: Callable
    preset: str = "custom"


def laplace_coefficients():
    """Identity diffusion, no reaction, unit weight."""
    def diffusion(x, y):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    return CoefficientSet(diffusion=diffusion,
                          reaction=lambda x, y: np.zeros_like(x),
                          weight=lambda x, y: np.ones_like(x),
                          preset="laplace")


def example2_coefficients():
    """Variable-coefficient benchmark problem on the unit square.

    Diffusion [[1 + (x-1/2)^2, (x-1/2)(y-1/2)], [(x-1/2)(y-1/2), 1 + (y-1/2)^2]],
    reaction exp((x-1/2)(y-1/2)) and weight 1 + (x-1/2)(y-1/2).
    """
    def diffusion(x, y):
        u = x - 0.5
        v = y - 0.5
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = 1.0 + u ** 2
        out[:, 0, 1] = u * v
        out[:, 1, 0] = u * v
        out[:, 1, 1] = 1.0 + v ** 2
        return out

    return CoefficientSet(diffusion=diffusion,
                          reaction=lambda x, y: np.exp((x - 0.5) * (y - 0.5)),
                          weight=lambda x, y: 1.0 + (x - 0.5) * (y - 0.5),
                          preset="example2")


@dataclass(frozen=True)
class AssembledForms:
    """Sparse stiffness/mass pencil of a mesh, reduced to free (interior) DOFs."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    free_to_full: np.ndarray
    n_free: int
    coeffs: CoefficientSet = field(repr=False)
    quad_order: int = 2


def _triangle_geometry(mesh):
    p = mesh.vertices[mesh.triangles]          # (T, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # grad of barycentric i = perp(p[i+2] - p[i+1]) / (2 area)
    grads = np.empty_like(p)
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return p, area, grads


def _check_coefficients(dq, rq, wq, points):
    for name, values in (("diffusion", dq), ("reaction", rq), ("weight", wq)):
        finite = np.isfinite(values).reshape(len(points), -1).all(axis=1)
        if not finite.all():
            i = np.flatnonzero(~finite)[0]
            raise AssemblyError("{} coefficient is not finite at quadrature point "
                                "({:.6g}, {:.6g})".format(name, *points[i]))
    sym = np.abs(dq[:, 0, 1] - dq[:, 1, 0])
    tr = dq[:, 0, 0] + dq[:, 1, 1]
    det = dq[:, 0, 0] * dq[:, 1, 1] - dq[:, 0, 1] * dq[:, 1, 0]
    scale = np.maximum(np.abs(dq).max(axis=(1, 2)), 1e-300)
    bad = (sym > 1e-12 * scale) | (tr <= 0) | (det <= 0)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise AssemblyError("diffusion matrix is not symmetric positive definite at "
                            "quadrature point ({:.6g}, {:.6g})".format(*points[i]))
    if (rq < 0).any():
        i = np.flatnonzero(rq < 0)[0]
        raise AssemblyError("reaction coefficient is negative at quadrature point "
                            "({:.6g}, {:.6g})".format(*points[i]))
    if (wq <= 0).any():
        i = np.flatnonzero(wq <= 0)[0]
        raise AssemblyError("weight coefficient is not positive at quadrature point "
                            "({:.6g}, {:.6g})".format(*points[i]))


def _assemble_full(mesh, coeffs, quad_order):
    """Stiffness and mass matrices over all vertices, boundary included."""
    if quad_order not in _QUAD_RULES:
        raise ValueError("quad_order must be one of {}, got {!r}".format(
            sorted(_QUAD_RULES), quad_order))
    bary, weights = _QUAD_RULES[quad_order]
    p, area, grads = _triangle_geometry(mesh)
    nt = mesh.num_triangles
    nv = mesh.num_vertices

    ke = np.zeros((nt, 3, 3))
    me = np.zeros((nt, 3, 3))
    dsum = np.zeros((nt, 2, 2))
    for q in range(len(weights)):
        xq = np.einsum("j,tjd->td", bary[q], p)
        with np.errstate(all="ignore"):      # non-finite values are rejected below
            dq = np.asarray(coeffs.diffusion(xq[:, 0], xq[:, 1]), dtype=float)
            rq = np.asarray(coeffs.reaction(xq[:, 0], xq[:, 1]), dtype=float)
            wq = np.asarray(coeffs.weight(xq[:, 0], xq[:, 1]), dtype=float)
        _check_coefficients(dq, rq, wq, xq)
        dq = 0.5 * (dq + dq.transpose(0, 2, 1))
        dsum += weights[q] * dq
        outer = np.outer(bary[q], bary[q])
        ke += (weights[q] * rq)[:, None, None] * outer
        me += (weights[q] * wq)[:, None, None] * outer
    # P1 gradients are constant per triangle, so the diffusion term needs a
    # single contraction against the weight-averaged matrix.
    ke += np.einsum("tid,tde,tje->tij", grads, dsum, grads)
    ke *= area[:, None, None]
    me *= area[:, None, None]

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    k_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    m_full = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return (k_full + k_full.T) * 0.5, (m_full + m_full.T) * 0.5


def assemble_forms(mesh, coeffs, quad_order=2):
    """Assemble the stiffness/mass pencil of `mesh` for the given coefficients.

    Parameters
    ----------
    mesh : Mesh
    coeffs : CoefficientSet
    quad_order : {2, 5}
        Polynomial degree up to which the triangle Gauss rule is exact.

    Returns
    -------
    AssembledForms
    """
    k_full, m_full = _assemble_full(mesh, coeffs, quad_order)
    free = np.flatnonzero(~mesh.boundary)
    return AssembledForms(
        stiffness=k_full[free][:, free].tocsr(),
        mass=m_full[free][:, free].tocsr(),
        free_to_full=free,
        n_free=len(free),
        coeffs=coeffs,
        quad_order=quad_order,
    )


def _quadratic_form(matrix, x):
    return float(x @ (matrix @ x))


def rayleigh_quotient(forms, x):
    """a(x, x) / b(x, x) through the assembled pencil.

    Raises
    ------
    ValueError
        If `x` is the zero vector.
    """
    x = np.asarray(x, dtype=float)
    bxx = _quadratic_form(forms.mass, x)
    if bxx == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return _quadratic_form(forms.stiffness, x) / bxx


def _norm_from_form(matrix, x, name):
    q = _quadratic_form(matrix, x)
    scale = float(np.abs(matrix).max()) * float(x @ x)
    if q < -1e-12 * max(scale, 1e-300):
        raise ArithmeticError("negative {} quadratic form ({:g}); the assembled "
                              "matrix is not positive semidefinite".format(name, q))
    return math.sqrt(max(q, 0.0))


def a_norm(forms, x):
    """Energy norm sqrt(a(x, x)) of a free-DOF vector."""
    return _norm_from_form(forms.stiffness, np.asarray(x, dtype=float), "stiffness")


def b_norm(forms, x):
    """Weighted L2 norm sqrt(b(x, x)) of a free-DOF vector."""
    return _norm_from_form(forms.mass, np.asarray(x, dtype=float), "mass")


def interpolate(f, mesh):
    """Nodal values of ``f`` at the free (interior) vertices of `mesh`.

    Parameters
    ----------
    f : callable
        Vectorized over coordinate arrays: ``f(x, y) -> (n,) array``.
    mesh : Mesh

    Returns
    -------
    (n_free,) ndarray in free-DOF ordering (ascending vertex index).
    """
    free = np.flatnonzero(~mesh.boundary)
    vals = np.asarray(f(mesh.vertices[free, 0], mesh.vertices[free, 1]), dtype=float)
    vals = np.broadcast_to(vals, free.shape).copy()
    finite = np.isfinite(vals)
    if not finite.all():
        v = free[np.flatnonzero(~finite)[0]]
        raise ValueError("interpolated function is not finite at vertex {} "
                         "({:.6g}, {:.6g})".format(v, *mesh.vertices[v]))
    return vals


def free_prolongation(prolongation, coarse_forms, fine_forms):
    """Restriction of a nodal prolongation matrix to free DOFs on both levels.

    Exact for homogeneous Dirichlet data: a coarse function vanishing on the
    coarse boundary prolongates to a fine function vanishing on the fine
    boundary, so dropping boundary rows and columns loses nothing.
    """
    return prolongation[fine_forms.free_to_full][:, coarse_forms.free_to_full].tocsr()


def energy_error_vs_exact(forms, mesh, x, u_exact, grad_exact):
    """Energy-norm distance between a discrete function and an exact one.

    Evaluates ``sqrt( integral of grad(e) . D grad(e) + c e^2 )`` with
    ``e = u_exact - u_h`` by elementwise quadrature, after flipping the sign
    of `x` when its b-inner product with the interpolant of `u_exact` is
    negative (eigenfunctions are only defined up to sign).

    Parameters
    ----------
    forms : AssembledForms
        Pencil assembled on `mesh`; supplies coefficients and quadrature order.
    mesh : Mesh
    x : (n_free,) array
        b-normalized coefficient vector.
    u_exact, grad_exact : callables
        Vectorized; ``grad_exact(x, y)`` returns shape (n, 2).
    """
    x = np.asarray(x, dtype=float)
    ref = interpolate(u_exact, mesh)
    ref_norm = b_norm(forms, ref)
    if ref_norm == 0.0:
        raise ValueError("u_exact interpolates to zero and cannot be b-normalized")
    if float(x @ (forms.mass @ ref)) < 0.0:
        x = -x

    bary, weights = _QUAD_RULES[forms.quad_order]
    p, area, grads = _triangle_geometry(mesh)
    full = np.zeros(mesh.num_vertices)
    full[forms.free_to_full] = x
    tri_vals = full[mesh.triangles]                       # (T, 3)
    uh_grad = np.einsum("tj,tjd->td", tri_vals, grads)    # constant per triangle

    total = 0.0
    for q in range(len(weights)):
        xq = np.einsum("j,tjd->td", bary[q], p)
        dq = np.asarray(forms.coeffs.diffusion(xq[:, 0], xq[:, 1]), dtype=float)
        rq = np.asarray(forms.coeffs.reaction(xq[:, 0], xq[:, 1]), dtype=float)
        e_val = np.asarray(u_exact(xq[:, 0], xq[:, 1]), dtype=float) - tri_vals @ bary[q]
        e_grad = np.asarray(grad_exact(xq[:, 0], xq[:, 1]), dtype=float) - uh_grad
        dens = np.einsum("td,tde,te->t", e_grad, dq, e_grad) + rq * e_val ** 2
        total += weights[q] * float((area * dens).sum())
    return math.sqrt(max(total, 0.0))
