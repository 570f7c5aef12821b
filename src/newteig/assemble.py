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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse as sp

from .mesh import MeshError, prolongation


class AssemblyError(ValueError):
    """A coefficient breaks the assembly contract: its values have the wrong
    shape, or are not finite, not positive definite (diffusion), negative
    (reaction) or not positive (weight) at a quadrature point."""


# triangles per pass of the element kernels, whose (block, 3) temporaries then
# stay in cache; each triangle's arithmetic is the same whatever the block
ELEMENT_BLOCK = 16384


# the degree-2 Gauss rule on the reference triangle: barycentric coordinates of
# its three points and weights normalized to sum to 1 (scaled by the physical
# triangle area on use)
_QUAD_RULE = (
    np.array([
        [2 / 3, 1 / 6, 1 / 6],
        [1 / 6, 2 / 3, 1 / 6],
        [1 / 6, 1 / 6, 2 / 3],
    ]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
)


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the operator, evaluated pointwise.

    Each callable takes coordinate arrays ``(x, y)`` of shape (n,) and
    returns arrays of that shape: three for the diffusion, one otherwise.

    Attributes
    ----------
    diffusion : callable
        The entries ``(d11, d12, d22)`` of the symmetric positive-definite
        matrix field ``D = [[d11, d12], [d12, d22]]``.
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
        one = np.ones_like(x)
        return one, np.zeros_like(x), one

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
        u, v = x - 0.5, y - 0.5
        return 1.0 + u ** 2, u * v, 1.0 + v ** 2

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

    @property
    def n_free(self):
        return self.stiffness.shape[0]


def _triangle_geometry(mesh, block):
    """Vertex coordinates ``px, py`` (B, 3) of the triangles in the slice
    `block`, gathered axis by axis, the edge vectors ``e_i = p[i+2] - p[i+1]``
    opposite each vertex as ``ex, ey`` (B, 3), and the areas.  The gradient of
    barycentric coordinate i is ``perp(e_i) / (2 area)`` with
    ``perp(x, y) = (-y, x)``."""
    triangles = mesh.triangles[block]
    px, py = mesh.vertices[:, 0][triangles], mesh.vertices[:, 1][triangles]
    ex, ey = np.empty_like(px), np.empty_like(py)
    for e, p in ((ex, px), (ey, py)):
        for i in range(3):
            np.subtract(p[:, (i + 2) % 3], p[:, (i + 1) % 3], out=e[:, i])
    return px, py, ex, ey, 0.5 * (ex[:, 1] * ey[:, 2] - ey[:, 1] * ex[:, 2])


def _quadrature_points(px, py):
    """Coordinates ``(x, y)`` of every triangle's quadrature points, one point
    of `_QUAD_RULE` after the other, summed term by term in vertex order (a
    BLAS product may fuse or reorder the terms and round differently)."""
    for b in _QUAD_RULE[0]:
        yield (b[0] * px[:, 0] + b[1] * px[:, 1] + b[2] * px[:, 2],
               b[0] * py[:, 0] + b[1] * py[:, 1] + b[2] * py[:, 2])


def _check_coefficients(dq, rq, wq, x, y):
    d11, d12, d22 = dq
    with np.errstate(all="ignore"):
        tr, det = d11 + d22, d11 * d22 - d12 * d12
        # one cheap pass first: a finite sum means finite entries, NaN fails all
        if (np.isfinite(dq.sum()) and tr.min() > 0 and det.min() > 0
                and 0 <= rq.min() and rq.max() < np.inf and 0 < wq.min() and wq.max() < np.inf):
            return
        checks = [("{} coefficient is not finite".format(name),
                   ~np.isfinite(values).reshape(-1, len(x)).all(axis=0))
                  for name, values in (("diffusion", dq), ("reaction", rq), ("weight", wq))]
        checks += [("diffusion matrix is not positive definite", (tr <= 0) | (det <= 0)),
                   ("reaction coefficient is negative", rq < 0),
                   ("weight coefficient is not positive", wq <= 0)]
    for message, bad in checks:
        if bad.any():
            first = np.flatnonzero(bad)[0]
            raise AssemblyError("{} at quadrature point ({:.6g}, {:.6g})".format(
                message, x[first], y[first]))


def _weighted_coefficients(coeffs, px, py):
    """The weight-averaged entries ``(d11, d12, d22)`` of D on every
    triangle, and its reaction and weight coefficients at each quadrature
    point times the point's weight, (T, n_points) each."""
    weights = _QUAD_RULE[1]
    d11, d12, d22 = np.zeros((3, len(px)))
    reaction, weight = np.empty((2, len(px), len(weights)))
    for q, (w, (xq, yq)) in enumerate(zip(weights, _quadrature_points(px, py))):
        with np.errstate(all="ignore"):      # non-finite values are rejected below
            entries = coeffs.diffusion(xq, yq)
            rq = np.asarray(coeffs.reaction(xq, yq), dtype=float)
            wq = np.asarray(coeffs.weight(xq, yq), dtype=float)
        try:
            dq = np.asarray(entries, dtype=float)
        except ValueError:                   # entries of unequal shapes
            dq = None
        if dq is None or dq.shape != (3,) + xq.shape:
            got = ("entries of shapes {}".format([np.shape(e) for e in entries]) if dq is None
                   else "shape {}".format(dq.shape))
            raise AssemblyError("diffusion must return three entries (d11, d12, d22) shaped "
                                "like the points {}, got {}".format(xq.shape, got))
        _check_coefficients(dq, rq, wq, xq, yq)
        for total, entry in zip((d11, d12, d22), dq):
            total += w * entry
        reaction[:, q], weight[:, q] = w * rq, w * wq
    return d11, d12, d22, reaction, weight


def _blocks(count):
    """Slices of at most `ELEMENT_BLOCK` consecutive triangles covering `count`."""
    return [slice(start, start + ELEMENT_BLOCK) for start in range(0, count, ELEMENT_BLOCK)]


def _block_entries(mesh, coeffs, block):
    """Stiffness and mass entries ``(k, m)`` of the triangles in the slice
    `block`: (2, B, 3) arrays whose contiguous halves hold the diagonal
    entries of local vertices 0, 1, 2 and the entries of local edges 01, 12, 20."""
    bary = _QUAD_RULE[0]
    outer = (bary[:, [0, 1, 2, 0, 1, 2]] * bary[:, [0, 1, 2, 1, 2, 0]]).reshape(-1, 2, 1, 3)
    px, py, ex, ey, area = _triangle_geometry(mesh, block)
    d11, d12, d22, reaction, weight = _weighted_coefficients(coeffs, px, py)
    # summed point by point: a BLAS product rounds by the block's row count
    k, m = np.zeros((2, 2, len(area), 3))
    for q, row in enumerate(outer):
        k += reaction[:, q, None] * row
        m += weight[:, q, None] * row
    k *= area[:, None]
    m *= area[:, None]
    # P1 gradients are constant: area grad_i . D grad_j = perp(e_i) . D perp(e_j) / (4 area)
    # with perp(e) = (-ey, ex) and (dnx, dny) = D perp(e)
    dnx, dny = d12[:, None] * ex - d11[:, None] * ey, d22[:, None] * ex - d12[:, None] * ey
    quarter = 0.25 / area[:, None]
    k[0] += (ex * dny - ey * dnx) * quarter
    k[1] += (ex * dny[:, [1, 2, 0]] - ey * dnx[:, [1, 2, 0]]) * quarter
    return k, m


def _pattern(edges, n):
    """Int32 CSR ``indptr`` and ``indices`` of n rows holding their diagonal and
    both entries of each edge in `edges`, a (2, E) array of rows lo < hi in
    lexicographic order, and the slots of the lower (row hi), diagonal and
    upper (row lo) entries.  A slot counts the lower, diagonal and upper
    entries before it in row-major order; the edges list the upper entries in
    that order, and a stable sort by hi lists the lower ones."""
    lo, hi = edges
    count = len(lo)
    lower, upper = (np.bincount(side, minlength=n).astype(np.int32) for side in (hi, lo))
    rows = np.arange(n, dtype=np.int32)
    lower_through = np.cumsum(lower, dtype=np.int32)
    upper_before = np.cumsum(upper, dtype=np.int32) - upper
    diagonal = lower_through + rows + upper_before
    by_hi = np.argsort(hi, kind="stable")
    lower_slots = np.empty(count, dtype=np.int32)
    lower_slots[by_hi] = np.arange(count, dtype=np.int32) + (rows + upper_before)[hi[by_hi]]
    upper_slots = np.arange(count, dtype=np.int32) + (lower_through + rows + 1)[lo]
    indices = np.empty(n + 2 * count, dtype=np.int32)
    indices[lower_slots], indices[diagonal], indices[upper_slots] = lo, rows, hi
    indptr = np.append(diagonal - lower, np.int32(len(indices)))
    return indptr, indices, (lower_slots, diagonal, upper_slots)


def _assemble_pencil(mesh, coeffs, keep):
    """Stiffness and mass CSR matrices over the vertices flagged in `keep`.

    `np.add.at` sums each block's `_block_entries` per vertex and per edge of
    the mesh's stored edge topology, block after block in triangle order, so
    the sums are those of one `np.bincount` over the whole mesh, bit for bit;
    no array of entries spans the whole mesh, and each block's entries are
    dropped before the next block is computed.  The sums
    fill the int32 slots of one CSR pattern shared by both matrices; an
    edge's sum fills both mirror slots, so both are exactly symmetric.  The
    stiffness drops its exact zeros (e.g. the diagonals of a criss-cross mesh).
    """
    k_vertex, m_vertex = np.zeros(mesh.num_vertices), np.zeros(mesh.num_vertices)
    k_edge, m_edge = np.zeros(mesh.num_edges), np.zeros(mesh.num_edges)
    for block in _blocks(mesh.num_triangles):
        k, m = _block_entries(mesh, coeffs, block)
        at_vertex, at_edge = mesh.triangles[block].ravel(), mesh.triangle_edges[block].ravel()
        for sums, index, entries in ((k_vertex, at_vertex, k[0]), (k_edge, at_edge, k[1]),
                                     (m_vertex, at_vertex, m[0]), (m_edge, at_edge, m[1])):
            np.add.at(sums, index, entries.ravel())
        del k, m, entries                      # so only one block's entries live
    edges = mesh.edge_vertices
    inner = keep[edges[:, 0]] & keep[edges[:, 1]]
    n = int(keep.sum())
    indptr, indices, (lower_slots, diagonal, upper_slots) = _pattern(
        (np.cumsum(keep, dtype=np.int32) - 1)[edges[inner].T], n)

    def fill(vertex_sums, edge_sums):
        data = np.empty(len(indices))
        data[diagonal] = vertex_sums[keep]
        data[lower_slots] = data[upper_slots] = edge_sums[inner]
        return data

    stiffness = sp.csr_matrix((fill(k_vertex, k_edge), indices.copy(), indptr.copy()),
                              shape=(n, n))
    del k_vertex, k_edge                       # freed before the mass is filled
    stiffness.eliminate_zeros()                # in place, hence the copied pattern
    # it keeps the full-length buffers, so the stiffness takes copies of its nnz entries
    stiffness.data = stiffness.data[:stiffness.nnz].copy()
    stiffness.indices = stiffness.indices[:stiffness.nnz].copy()
    return stiffness, sp.csr_matrix((fill(m_vertex, m_edge), indices, indptr), shape=(n, n))


def assemble_forms(mesh, coeffs, quad_order=2):
    """Assemble the stiffness/mass pencil of `mesh` for the given coefficients,
    with the degree-2 Gauss rule on every triangle.

    Parameters
    ----------
    mesh : Mesh
    coeffs : CoefficientSet
    quad_order : 2
        Any other value raises `ValueError`.  Kept for
        `perfbench/child.py::_reference`, its only caller that passes it;
        ROADMAP item 1c removes it.

    Returns
    -------
    AssembledForms
    """
    if quad_order != 2:
        raise ValueError("quad_order must be 2, got {!r}".format(quad_order))
    stiffness, mass = _assemble_pencil(mesh, coeffs, ~mesh.boundary)
    return AssembledForms(stiffness=stiffness, mass=mass,
                          free_to_full=np.flatnonzero(~mesh.boundary))


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
    data = matrix.data                         # max |entry| without a copy of the matrix
    scale = float(max(data.max(initial=0.0), -data.min(initial=0.0))) * float(x @ x)
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


def free_prolongation(coarse, fine):
    """Free-DOF prolongation from mesh `coarse` onto its refinement `fine`.

    Builds `mesh.prolongation(coarse)` and keeps the rows and columns of the
    free (non-boundary) vertices.  Exact for homogeneous Dirichlet data: a
    coarse function vanishing on the coarse boundary prolongates to a fine
    function vanishing on the fine boundary, so dropping boundary rows and
    columns loses nothing.

    Raises
    ------
    MeshError
        If the transfer does not carry the coarse vertices onto the fine ones
        exactly, i.e. `fine` is not numbered as `refine_regular` numbers the
        refinement of `coarse`.
    """
    prolong = prolongation(coarse)
    if not np.array_equal(prolong @ coarse.vertices, fine.vertices):
        raise MeshError("the fine mesh is not the regular refinement of the coarse one, "
                        "numbered as refine_regular numbers it")
    return prolong[~fine.boundary][:, ~coarse.boundary].tocsr()


def energy_error_vs_exact(forms, mesh, x, u_exact, grad_exact):
    """Laplace energy-norm distance between a discrete function and an exact one.

    Evaluates ``sqrt( integral of |grad(e)|^2 )`` with ``e = u_exact - u_h``
    by the assembly's degree-2 rule on every triangle, after flipping the
    sign of `x` when its b-inner product with the interpolant of `u_exact` is
    negative (eigenfunctions are only defined up to sign).  This is the energy norm
    of the laplace preset (identity diffusion, no reaction).

    Parameters
    ----------
    forms : AssembledForms
        Pencil assembled on `mesh`.
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

    weights = _QUAD_RULE[1]
    full = np.zeros(mesh.num_vertices)
    full[forms.free_to_full] = x
    # area |grad(e)|^2 per quadrature point and triangle, summed point by point below
    integrand = np.empty((len(weights), mesh.num_triangles))
    for block in _blocks(mesh.num_triangles):
        px, py, ex, ey, area = _triangle_geometry(mesh, block)
        u = full[mesh.triangles[block]]
        # grad(u_h) = perp(s) with s = sum_j u_j e_j / (2 area), constant per triangle
        scale = 0.5 / area
        sx = (u[:, 0] * ex[:, 0] + u[:, 1] * ex[:, 1] + u[:, 2] * ex[:, 2]) * scale
        sy = (u[:, 0] * ey[:, 0] + u[:, 1] * ey[:, 1] + u[:, 2] * ey[:, 2]) * scale
        for q, (xq, yq) in enumerate(_quadrature_points(px, py)):
            g = np.asarray(grad_exact(xq, yq), dtype=float)
            gx, gy = g[:, 0] + sy, g[:, 1] - sx
            integrand[q, block] = area * (gx * gx + gy * gy)
    total = 0.0
    for w, row in zip(weights, integrand):
        total += w * float(row.sum())
    return math.sqrt(max(total, 0.0))
