"""Triangulations of polygonal domains and nested regular-refinement hierarchies."""

import math
import time

import numpy as np
from scipy import sparse as sp

DEFAULT_VERTEX_CAP = 8_000_000
# squared lengths and areas of coordinates up to this magnitude stay finite
MAX_COORDINATE = 1e150


class MeshError(Exception):
    """Invalid mesh geometry or topology."""


class MeshFormatError(MeshError):
    """Malformed mesh file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line {}: {}".format(line, message)
        super().__init__(message)
        self.line = line


def _edge_keys(triangles, nv):
    """Integer key ``i*nv + j`` of the sorted vertex pair (i, j) of the local
    edges (01, 12, 20) of every triangle, shape (T, 3).

    j < nv, so ordering the keys orders the pairs lexicographically, and
    ``np.divmod(key, nv)`` recovers the pair.  The keys are int64 whatever the
    index type: an int32 product ``i*nv`` wraps once nv > 46,340.
    """
    nxt = triangles[:, [1, 2, 0]]
    keys = np.minimum(triangles, nxt).astype(np.int64)
    keys *= nv
    keys += np.maximum(triangles, nxt)
    return keys


def _edge_topology(triangles, nv):
    """Unique edges of a triangulation with `nv` vertices, from one sort of
    the `_edge_keys`.

    Returns
    -------
    edges : (E, 2) int32 array
        Sorted vertex-index pairs in lexicographic order.
    triangle_edges : (T, 3) int32 array
        Edge index of the local edges (01, 12, 20) of every triangle.
    counts : (E,) int array
        Number of triangles sharing each edge (1 = boundary edge).
    """
    keys = _edge_keys(triangles, nv).ravel()
    order = keys.argsort()
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    triangle_edges = np.empty(len(keys), dtype=np.int32)
    triangle_edges[order] = np.cumsum(first, dtype=np.int32) - 1
    edges = np.column_stack(np.divmod(keys[starts], nv)).astype(np.int32)
    return edges, triangle_edges.reshape(-1, 3), np.diff(starts, append=len(keys))


def _verified_counts(triangles, nv, edges, triangle_edges):
    """Number of triangles sharing each edge of a given topology, after
    checking in O(N), without a sort, that it is the one `_edge_topology`
    returns for these triangles.

    The checks: every edge (lo, hi) has lo < hi and the keys ``lo*nv + hi``
    strictly increase, so the edges are distinct and in lexicographic order;
    each triangle's local edges (01, 12, 20) index edges equal to their own
    sorted vertex pairs; and every edge belongs to some triangle.  Then the
    edges are exactly the triangles' sorted pairs, each once and in order.
    """
    if edges.ndim != 2 or edges.shape[1] != 2 or triangle_edges.shape != triangles.shape:
        raise MeshError("given edge topology must have shapes (E, 2) and (T, 3)")
    lo, hi = edges[:, 0], edges[:, 1]
    keys = lo.astype(np.int64)
    keys *= nv
    keys += hi
    if not ((lo < hi).all() and (keys[1:] > keys[:-1]).all()):
        raise MeshError("given edges are not distinct sorted vertex pairs in lexicographic order")
    if triangle_edges.min() < 0 or triangle_edges.max() >= len(edges):
        raise MeshError("given triangle edges index an edge out of range")
    # a contiguous int32 pair read as one int64, so each pair is one gather
    rows = edges.view(np.int64).ravel()
    pair = np.empty((len(triangles), 2), dtype=np.int32)
    for j in range(3):
        a, b = triangles[:, j], triangles[:, (j + 1) % 3]
        np.minimum(a, b, out=pair[:, 0])
        np.maximum(a, b, out=pair[:, 1])
        if not (rows[triangle_edges[:, j]] == pair.view(np.int64).ravel()).all():
            raise MeshError("given triangle edges disagree with the triangles' vertex pairs")
    counts = np.bincount(triangle_edges.ravel(), minlength=len(edges))
    if counts.min() < 1:
        raise MeshError("given edge {} belongs to no triangle".format(np.argmin(counts)))
    return counts


def _bounds(points):
    """Lower and upper corner of the bounding box of (n, 2) points.  (Column
    by column: a reduction over axis 0 of an (n, 2) array is far slower.)"""
    return (np.array([points[:, 0].min(), points[:, 1].min()]),
            np.array([points[:, 0].max(), points[:, 1].max()]))


def _coincident_pair(points, radius):
    """Smallest index pair (i, j), i < j, of points at most `radius` > 0
    apart, or None.  "Apart" is ``dx*dx + dy*dy <= radius*radius``, the rule of
    ``scipy.spatial.cKDTree.query_pairs(radius)``.

    The points are bucketed on a square grid with side at least 2 `radius`,
    so a close pair shares a cell or lies in adjacent ones.  A cell's key
    packs its column and row, so after one sort of the keys two
    `searchsorted` ranges per point hold every candidate pair once: the rest
    of its own cell and the cell above it, and the three cells of the next
    column.  Only the candidates get their distance tested.  A screen comes
    first: when no cell holds two points and none of those four neighbours
    of an occupied cell is occupied (the sorted keys and one `searchsorted`
    show it), there is no candidate and nothing is enumerated.
    """
    lo, hi = _bounds(points)
    # at most 2^30 cells a side, so two cell indices pack into one int64 key
    side = max(2.0 * radius, float((hi - lo).max()) / 2 ** 30)
    cells = np.floor((points - lo) / side).astype(np.int64)
    height = int(cells[:, 1].max()) + 2    # row height - 1 stays empty: no range wraps
    keys = cells[:, 0] * height + cells[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    # screen: no candidate exists when no cell holds two points and no occupied
    # cell has an occupied one above it or among the three of the next column
    if (np.diff(keys) > 1).all():
        ahead = np.append(keys, np.iinfo(np.int64).max)[np.searchsorted(keys, keys + height - 1)]
        if (ahead > keys + height + 1).all():
            return None
    n = len(keys)
    start = np.concatenate([np.arange(1, n + 1), np.searchsorted(keys, keys + height - 1)])
    stop = np.concatenate([np.searchsorted(keys, keys + 1, side="right"),
                           np.searchsorted(keys, keys + height + 1, side="right")])
    count = stop - start
    i = np.repeat(np.tile(order, 2), count)
    j = order[np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count, count)]
    dx, dy = points[i, 0] - points[j, 0], points[i, 1] - points[j, 1]
    close = dx * dx + dy * dy <= radius * radius
    if not close.any():
        return None
    i, j = np.minimum(i[close], j[close]), np.maximum(i[close], j[close])
    best = np.lexsort((j, i))[0]
    return int(i[best]), int(j[best])


class Mesh:
    """Immutable 2D triangulation; its boundary follows from its edges.

    Parameters
    ----------
    vertices : (V, 2) array_like of float
        Vertex coordinates.
    triangles : (T, 3) array_like of int
        Vertex indices per triangle, counterclockwise.
    topology : ((E, 2), (T, 3)) pair of int32 arrays, optional
        The `edge_vertices` and `triangle_edges` of these triangles, known by
        construction (`refine_regular` builds them from the parent's).  They
        are verified in O(N) instead of discovered by a sort.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int32 array
        Narrowed from the given indices once they are checked to lie in
        ``0..V-1`` (and below 2**31, so none wraps).
    boundary : (V,) bool array
        True for the endpoints of the edges of exactly one triangle.
    edge_vertices : (E, 2) int32 array
        Sorted vertex pairs of the edges, in lexicographic order.
    triangle_edges : (T, 3) int32 array
        Edge index of the local edges (01, 12, 20) of every triangle.

    Validation discovers the edge arrays by one `_edge_topology` sort, or
    verifies a given `topology` with `_verified_counts`; both give the same
    arrays, which refinement and assembly read.  They are a cache:
    `release_topology` frees them, and the next read of either of them
    rediscovers both by `_edge_topology`, bit for bit and read-only as
    before.  `num_edges` is kept through a release.

    Raises
    ------
    MeshError
        If a coordinate is not finite or exceeds `MAX_COORDINATE` in
        magnitude, a triangle has nonpositive signed area, an index is out of
        range, an edge is shared by more than two triangles, a vertex is
        unused, two vertices coincide, two triangles run their shared edge the
        same way (they overlap, so the mesh is not consistently oriented), or
        a given `topology` is not the triangles' own.
    """

    def __init__(self, vertices, triangles, topology=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles)
        if self.triangles.dtype.kind not in "iu":
            raise MeshError("triangle vertex indices must be integers, got dtype {}".format(
                self.triangles.dtype))
        if self.triangles.dtype != np.int32:     # range-checked as int64, then narrowed
            self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (T, 3)")
        self._validate(topology)
        for arr in (self.vertices, self.triangles, self.boundary):
            arr.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self._num_edges

    @property
    def edge_vertices(self):
        return self._edge_arrays()[0]

    @property
    def triangle_edges(self):
        return self._edge_arrays()[1]

    def _edge_arrays(self):
        """The cached edge arrays; once released, rediscovered by `_edge_topology`."""
        if self._topology is None:
            self._keep_topology(*_edge_topology(self.triangles, self.num_vertices)[:2])
        return self._topology

    def _keep_topology(self, *arrays):
        for arr in arrays:
            arr.flags.writeable = False
        self._topology = arrays

    def release_topology(self):
        """Drop the cached edge arrays.  Reading one rebuilds both, equal
        bit for bit to the ones validation checked."""
        self._topology = None

    def __repr__(self):
        return "Mesh({} vertices, {} triangles)".format(self.num_vertices,
                                                        self.num_triangles)

    def signed_areas(self):
        """Signed area of every triangle (positive for counterclockwise), formed
        in place one coordinate axis at a time: five T-long arrays at most."""
        t0, t1, t2 = self.triangles.T
        diffs = []
        for c in self.vertices.T:
            c0 = c[t0]
            for t in (t1, t2):
                diffs.append(c[t])
                diffs[-1] -= c0
        dx1, dx2, dy1, dy2 = diffs
        dx1 *= dy2
        dy1 *= dx2
        dx1 -= dy1
        dx1 *= 0.5
        return dx1

    def area(self):
        return float(self.signed_areas().sum())

    def max_diameter(self):
        """Largest cell diameter, i.e. the longest edge in the mesh."""
        return self._max_diameter

    def domain_diameter(self):
        lo, hi = _bounds(self.vertices)
        return float(np.sqrt(((hi - lo) ** 2).sum()))

    def _validate(self, topology):
        if self.num_triangles == 0:
            raise MeshError("mesh has no triangles")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex {} has non-finite coordinates".format(
                np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))[0]))
        if np.abs(self.vertices).max() > MAX_COORDINATE:
            bad = np.flatnonzero((np.abs(self.vertices) > MAX_COORDINATE).any(axis=1))[0]
            raise MeshError("vertex {} has a coordinate beyond {:g} in magnitude, where squared "
                            "lengths overflow".format(bad, MAX_COORDINATE))
        stop = min(self.num_vertices, 2 ** 31)     # an int32 index of 2**31 or more wraps
        if self.triangles.min() < 0 or self.triangles.max() >= stop:
            bad = np.flatnonzero((self.triangles < 0).any(axis=1)
                                 | (self.triangles >= stop).any(axis=1))[0]
            raise MeshError("triangle {} references a vertex index out of range".format(bad))
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        areas = self.signed_areas()
        if (areas <= 0).any():
            bad = int(np.argmin(areas))
            raise MeshError("triangle {} has nonpositive area {:g} "
                            "(vertices must be counterclockwise)".format(bad, areas[bad]))
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.triangles] = True
        if not used.all():
            raise MeshError("vertex {} belongs to no triangle".format(np.flatnonzero(~used)[0]))
        if topology is None:
            edges, triangle_edges, counts = _edge_topology(self.triangles, self.num_vertices)
        else:
            edges, triangle_edges = (np.ascontiguousarray(a, dtype=np.int32) for a in topology)
            counts = _verified_counts(self.triangles, self.num_vertices, edges, triangle_edges)
        if (counts > 2).any():
            raise MeshError("edge shared by more than two triangles (non-manifold)")
        on_boundary = counts == 1
        self._num_edges = len(edges)
        self._keep_topology(edges, triangle_edges)
        self.boundary = np.zeros(self.num_vertices, dtype=bool)
        self.boundary[edges[on_boundary]] = True
        pair = _coincident_pair(self.vertices, 1e-12 * max(self.domain_diameter(), 1e-300))
        if pair is not None:
            raise MeshError("vertices {} and {} coincide".format(*pair))
        # counterclockwise neighbours run their shared edge opposite ways, so an
        # interior edge is traversed low-to-high index by exactly one of its triangles
        ascending = np.bincount(triangle_edges[self.triangles < self.triangles[:, [1, 2, 0]]],
                                minlength=len(edges))
        folded = ~on_boundary & (ascending != 1)
        if folded.any():
            raise MeshError("edge ({}, {}) runs the same way in both its triangles: they "
                            "overlap".format(*edges[np.argmax(folded)]))
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        dx, dy = x[edges[:, 0]] - x[edges[:, 1]], y[edges[:, 0]] - y[edges[:, 1]]
        self._max_diameter = math.sqrt(float((dx * dx + dy * dy).max()))


def unit_square_mesh(h):
    """Structured criss-cross triangulation of the unit square.

    Builds an (M+1) x (M+1) vertex grid on (0,1)^2 with M = 1/h and splits
    every grid cell into two right triangles along the lower-left to
    upper-right diagonal.

    Parameters
    ----------
    h : float
        Target mesh size; must equal 1/M for an integer M >= 1.

    Returns
    -------
    Mesh
    """
    if not h > 0:
        raise ValueError("mesh size must be positive, got {!r}".format(h))
    m = round(1.0 / h)
    if m < 1 or abs(m * h - 1.0) > 1e-12:
        raise ValueError("mesh size must be the reciprocal of an integer, got {!r}".format(h))
    side = np.arange(m + 1) / m
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    i, j = np.meshgrid(np.arange(m), np.arange(m))
    v00 = (j * (m + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (m + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper])
    return Mesh(vertices, triangles)


def unit_square_counts(h):
    """(vertices, edges, triangles) of ``unit_square_mesh(h)``, without building it."""
    m = round(1.0 / h)
    return (m + 1) ** 2, m * (3 * m + 2), 2 * m * m


def _refined_topology(mesh):
    """`edge_vertices` and `triangle_edges` of `refine_regular`'s children of
    `mesh`, built from its own topology without sorting a child key.

    With parent edge e's midpoint numbered nv+e, the child edges in
    lexicographic order are first the halves (v, nv+e) of the parent edges,
    grouped by endpoint v and by e within a group: one stable argsort of the
    parent's endpoints, whose edges are sorted.  Then come the three edges
    joining the midpoints of each parent triangle, ordered by one argsort of
    their 3T parent-edge keys.  A child's edges follow by gathers.
    """
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    tris, tri_edges = mesh.triangles, mesh.triangle_edges
    ends = mesh.edge_vertices.ravel()
    halves = np.argsort(ends, kind="stable")       # half 2e+s runs from endpoint s of e
    # midpoint pairs (m01, m12), (m12, m20), (m20, m01) of every parent triangle
    inner_keys = _edge_keys(tri_edges, ne).ravel()
    inner = np.argsort(inner_keys)
    edges = np.empty((2 * ne + 3 * nt, 2), dtype=np.int32)
    edges[:2 * ne, 0] = ends[halves]
    edges[:2 * ne, 1] = nv + halves // 2
    edges[2 * ne:, 0], edges[2 * ne:, 1] = np.divmod(inner_keys[inner], ne)
    edges[2 * ne:] += nv
    half_index = np.empty(2 * ne, dtype=np.int32)
    half_index[halves] = np.arange(2 * ne, dtype=np.int32)
    inner_index = np.empty(3 * nt, dtype=np.int32)
    inner_index[inner] = np.arange(2 * ne, 2 * ne + 3 * nt, dtype=np.int32)
    inner_index = inner_index.reshape(nt, 3)
    # the half of local edge j from vertex j, and the one from vertex j+1
    larger = tris > tris[:, [1, 2, 0]]
    head = half_index[2 * tri_edges + larger]
    tail = half_index[2 * tri_edges + ~larger]
    previous = [2, 0, 1]
    return edges, _four_children(head, inner_index[:, previous], tail[:, previous], inner_index)


def _four_children(corner, second, third, center):
    """(4T, 3) int32 rows of `refine_regular`'s children from (T, 3) arrays:
    ``[corner[t, j], second[t, j], third[t, j]]`` for corner child j = 0, 1,
    2 of every triangle t, then the rows of `center`."""
    out = np.empty((4,) + center.shape, dtype=np.int32)
    for k, column in enumerate((corner, second, third)):
        out[:3, :, k] = column.T
    out[3] = center
    return out.reshape(-1, 3)


def refine_regular(mesh):
    """Split every triangle into four congruent children at the edge midpoints.

    New vertices are deduplicated through the shared-edge index pairs, so no
    coordinate tolerance is involved: the fine vertices are the parent's,
    then one midpoint per parent edge, in edge order, the numbering
    `prolongation` transfers onto.  The children's edge topology is built
    from the parent's (`_refined_topology`) and verified, not sorted for.

    Returns
    -------
    Mesh
    """
    tris = mesh.triangles
    nv = mesh.num_vertices
    edges = mesh.edge_vertices
    # midpoint vertex index of local edges (01, 12, 20) per triangle
    mid = nv + mesh.triangle_edges

    vertices = np.vstack([mesh.vertices,
                          0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
    # corner j keeps vertex j and the midpoints of local edges j and j-1; the
    # center child joins the three midpoints
    children = _four_children(tris, mid, mid[:, [2, 0, 1]], mid)
    return Mesh(vertices, children, topology=_refined_topology(mesh))


def prolongation(coarse):
    """Nodal-value transfer from `coarse` onto the vertices of its
    `refine_regular` refinement, as a CSR matrix.

    Rows are the fine vertices as refinement numbers them: the parent's
    vertices, each with weight 1, then one midpoint per edge of `coarse`, in
    edge order, averaging the edge's two endpoints with weight 1/2 each.  So
    coarse piecewise-linear functions are reproduced exactly.
    """
    nv, edges = coarse.num_vertices, coarse.edge_vertices
    ne = len(edges)
    indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(ne + 1)])
    indices = np.concatenate([np.arange(nv), edges.ravel()])
    data = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return sp.csr_matrix((data, indices, indptr), shape=(nv + ne, nv))


class MeshHierarchy:
    """Nested meshes produced by regular refinement (coarsest first).

    The transfer between two levels is not stored: `prolongation` derives it
    from the coarser mesh, and `assemble.free_prolongation` checks that the
    finer one is numbered as `refine_regular` numbers it.

    Attributes
    ----------
    levels : list of Mesh
    refine_seconds : list of float or None
        refine_seconds[k] is the wall time `build_hierarchy` took to refine
        levels[k] into levels[k+1] and validate it; None when not given.
    """

    def __init__(self, levels, refine_seconds=None):
        if len(levels) < 1:
            raise ValueError("a hierarchy needs at least one level")
        for k in range(len(levels) - 1):
            if levels[k + 1].num_triangles != 4 * levels[k].num_triangles:
                raise MeshError("level {} does not have 4x the triangles of "
                                "level {}".format(k + 1, k))
            ratio = levels[k].max_diameter() / levels[k + 1].max_diameter()
            if abs(ratio - 2) > 2e-12:
                raise MeshError("cell diameter is not halved between levels "
                                "{} and {}".format(k, k + 1))
        self.levels = list(levels)
        self.refine_seconds = None if refine_seconds is None else list(refine_seconds)

    def __len__(self):
        return len(self.levels)


def check_vertex_cap(counts, n_levels, max_vertices):
    """Raise MeshError if a hierarchy of `n_levels` meshes refined from one with
    `counts` = (vertices, edges, triangles) passes `max_vertices` vertices.

    The projection is exact: every edge splits in two and every triangle
    contributes three interior edges per refinement.  It stops at the first
    level past the cap, so it takes a few dozen steps for any `n_levels`.
    A cap of 2**31 or more is refused: triangles index vertices as int32.
    """
    if max_vertices >= 2 ** 31:
        raise MeshError("the vertex cap {} must be below 2**31: triangles index vertices "
                        "as int32".format(max_vertices))
    v, e, t = counts
    for level in range(n_levels):
        if v > max_vertices:
            raise MeshError("level {} of the hierarchy would have {} vertices, exceeding "
                            "the cap of {}".format(level, v, max_vertices))
        v, e, t = v + e, 2 * e + 3 * t, 4 * t


def build_hierarchy(coarse, n_levels, max_vertices=DEFAULT_VERTEX_CAP):
    """Repeatedly refine `coarse` into a nested hierarchy of `n_levels` meshes.

    Parameters
    ----------
    coarse : Mesh
    n_levels : int
        Total number of levels including the coarse mesh itself.
    max_vertices : int, optional
        Refuse to build if the projected finest-level vertex count exceeds
        this cap (see `check_vertex_cap`).

    Returns
    -------
    MeshHierarchy
        With the refine-and-validate seconds of each refined level.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    check_vertex_cap((coarse.num_vertices, coarse.num_edges, coarse.num_triangles), n_levels,
                     max_vertices)
    levels = [coarse]
    seconds = []
    for _ in range(n_levels - 1):
        start = time.perf_counter()
        levels.append(refine_regular(levels[-1]))
        seconds.append(time.perf_counter() - start)
    return MeshHierarchy(levels, seconds)


def save_mesh(mesh, path):
    """Write a mesh in the line-oriented text format (see `load_mesh`)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("mesh2d {} {}\n".format(mesh.num_vertices, mesh.num_triangles))
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            f.write("{} {} {}\n".format(repr(float(x)), repr(float(y)), int(b)))
        for i, j, k in mesh.triangles:
            f.write("{} {} {}\n".format(i, j, k))


def load_mesh(path):
    """Read a mesh from the text format written by `save_mesh`.

    Format: a header ``mesh2d <n_vertices> <n_triangles>``, then one line
    ``x y b`` per vertex (b is the boundary flag, 0 or 1), then one line
    ``i j k`` per triangle (0-based counterclockwise vertex indices).
    ``#`` starts a comment; blank lines are ignored; a leading UTF-8
    byte-order mark is skipped.  The mesh derives its boundary from its
    edges; each flag is checked against it.

    Raises
    ------
    MeshFormatError
        On malformed content or a flag that disagrees with the derived
        boundary, with the offending line number.
    MeshError
        When the parsed data violates mesh invariants (degenerate
        triangles, ...).
    """
    with open(path, "r", encoding="utf-8-sig") as f:
        raw = f.readlines()
    lines = []
    for lineno, text in enumerate(raw, start=1):
        stripped = text.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise MeshFormatError("empty mesh file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "mesh2d":
        raise MeshFormatError("expected header 'mesh2d <n_vertices> <n_triangles>'", lineno)
    try:
        nv, nt = int(parts[1]), int(parts[2])
    except ValueError:
        raise MeshFormatError("header counts must be integers", lineno) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError("mesh needs at least 3 vertices and 1 triangle", lineno)
    if len(lines) - 1 != nv + nt:
        raise MeshFormatError("expected {} data lines, found {}".format(
            nv + nt, len(lines) - 1), lines[-1][0])

    vertices = np.empty((nv, 2))
    flags = np.empty(nv, dtype=bool)
    for i in range(nv):
        lineno, text = lines[1 + i]
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError("vertex line must be 'x y b'", lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise MeshFormatError("vertex coordinates must be numbers", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError("vertex coordinates must be finite", lineno)
        if parts[2] not in ("0", "1"):
            raise MeshFormatError("boundary flag must be 0 or 1", lineno)
        vertices[i] = (x, y)
        flags[i] = parts[2] == "1"

    triangles = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        lineno, text = lines[1 + nv + i]
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError("triangle line must be 'i j k'", lineno)
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError("triangle indices must be integers", lineno) from None
        for v in idx:
            if v < 0 or v >= nv:
                raise MeshFormatError("triangle {} references vertex {} outside "
                                      "0..{}".format(i, v, nv - 1), lineno)
        triangles[i] = idx

    mesh = Mesh(vertices, triangles)
    wrong = np.flatnonzero(flags != mesh.boundary)
    if len(wrong):
        raise MeshFormatError("boundary flag of vertex {} is inconsistent with the edge "
                              "topology".format(wrong[0]), lines[1 + wrong[0]][0])
    return mesh
