"""Triangulations of polygonal domains and nested regular-refinement hierarchies."""

import math

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
        Edge index of the local edges (01, 12, 02) of every triangle.
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
    column.  Only the candidates get their distance tested.
    """
    lo, hi = _bounds(points)
    # at most 2^30 cells a side, so two cell indices pack into one int64 key
    side = max(2.0 * radius, float((hi - lo).max()) / 2 ** 30)
    cells = np.floor((points - lo) / side).astype(np.int64)
    height = int(cells[:, 1].max()) + 2    # row height - 1 stays empty: no range wraps
    keys = cells[:, 0] * height + cells[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
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
    """Immutable 2D triangulation with boundary-vertex flags.

    Parameters
    ----------
    vertices : (V, 2) array_like of float
        Vertex coordinates.
    triangles : (T, 3) array_like of int
        Vertex indices per triangle, counterclockwise.
    boundary : (V,) array_like of bool
        True for vertices on the domain boundary.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int32 array
        Narrowed from the given indices once they are checked to lie in
        ``0..V-1`` (and below 2**31, so none wraps).
    boundary : (V,) bool array
    edge_vertices : (E, 2) int32 array
        Sorted vertex pairs of the edges, in lexicographic order.
    triangle_edges : (T, 3) int32 array
        Edge index of the local edges (01, 12, 02) of every triangle.
    edge_on_boundary : (E,) bool array
        True for edges of exactly one triangle.

    The edge arrays come from the one `_edge_topology` pass of validation;
    refinement and assembly read them.

    Raises
    ------
    MeshError
        If a coordinate is not finite or exceeds `MAX_COORDINATE` in
        magnitude, a triangle has nonpositive signed area, an index is out of
        range, an edge is shared by more than two triangles, boundary flags
        disagree with the edge topology, a vertex is unused, two vertices
        coincide, or two triangles run their shared edge the same way (they
        overlap, so the mesh is not consistently oriented).
    """

    def __init__(self, vertices, triangles, boundary):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles)
        if self.triangles.dtype != np.int32:     # range-checked as int64, then narrowed
            self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary = np.ascontiguousarray(boundary, dtype=bool)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (T, 3)")
        if self.boundary.shape != (self.num_vertices,):
            raise MeshError("boundary flags must have shape (V,)")
        self._validate()
        for arr in (self.vertices, self.triangles, self.boundary, self.edge_vertices,
                    self.triangle_edges, self.edge_on_boundary):
            arr.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    def __repr__(self):
        return "Mesh({} vertices, {} triangles)".format(self.num_vertices,
                                                        self.num_triangles)

    def signed_areas(self):
        """Signed area of every triangle (positive for counterclockwise)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        t0, t1, t2 = self.triangles.T
        x0, y0 = x[t0], y[t0]
        dx1, dy1 = x[t1] - x0, y[t1] - y0
        dx2, dy2 = x[t2] - x0, y[t2] - y0
        return 0.5 * (dx1 * dy2 - dy1 * dx2)

    def area(self):
        return float(self.signed_areas().sum())

    def max_diameter(self):
        """Largest cell diameter, i.e. the longest edge in the mesh."""
        return self._max_diameter

    def domain_diameter(self):
        lo, hi = _bounds(self.vertices)
        return float(np.sqrt(((hi - lo) ** 2).sum()))

    def _validate(self):
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
        edges, triangle_edges, counts = _edge_topology(self.triangles, self.num_vertices)
        if (counts > 2).any():
            raise MeshError("edge shared by more than two triangles (non-manifold)")
        self.edge_vertices, self.triangle_edges = edges, triangle_edges
        self.edge_on_boundary = counts == 1
        on_bedge = np.zeros(self.num_vertices, dtype=bool)
        on_bedge[edges[self.edge_on_boundary]] = True
        if (on_bedge != self.boundary).any():
            bad = np.flatnonzero(on_bedge != self.boundary)[0]
            raise MeshError("boundary flag of vertex {} is inconsistent with the "
                            "edge topology".format(bad))
        pair = _coincident_pair(self.vertices, 1e-12 * max(self.domain_diameter(), 1e-300))
        if pair is not None:
            raise MeshError("vertices {} and {} coincide".format(*pair))
        # counterclockwise neighbours run their shared edge opposite ways, so an
        # interior edge is traversed low-to-high index by exactly one of its triangles
        ascending = np.bincount(triangle_edges[self.triangles < self.triangles[:, [1, 2, 0]]],
                                minlength=len(edges))
        folded = ~self.edge_on_boundary & (ascending != 1)
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

    boundary = np.zeros(len(vertices), dtype=bool)
    gi, gj = np.meshgrid(np.arange(m + 1), np.arange(m + 1))
    boundary[((gi == 0) | (gi == m) | (gj == 0) | (gj == m)).ravel()] = True
    return Mesh(vertices, triangles, boundary)


def unit_square_counts(h):
    """(vertices, edges, triangles) of ``unit_square_mesh(h)``, without building it."""
    m = round(1.0 / h)
    return (m + 1) ** 2, m * (3 * m + 2), 2 * m * m


def refine_regular(mesh):
    """Split every triangle into four congruent children at the edge midpoints.

    New vertices are deduplicated through the shared-edge index pairs, so no
    coordinate tolerance is involved.  Midpoints of boundary edges are
    flagged boundary; surviving vertices keep their flags.

    Returns
    -------
    (Mesh, csr_matrix)
        The refined mesh and the nodal-value transfer onto it: surviving
        vertices carry weight 1, edge midpoints average the two endpoints
        with weight 1/2 each, so coarse piecewise-linear functions are
        reproduced exactly.
    """
    tris = mesh.triangles
    nv = mesh.num_vertices
    edges = mesh.edge_vertices
    # midpoint vertex index of local edges (01, 12, 02) per triangle
    mid = nv + mesh.triangle_edges

    vertices = np.vstack([mesh.vertices,
                          0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
    m01, m12, m02 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.vstack([
        np.column_stack([tris[:, 0], m01, m02]),
        np.column_stack([tris[:, 1], m12, m01]),
        np.column_stack([tris[:, 2], m02, m12]),
        np.column_stack([m01, m12, m02]),
    ])
    fine = Mesh(vertices, children, np.concatenate([mesh.boundary, mesh.edge_on_boundary]))

    # rows: surviving vertices, then one row of two 1/2 entries per edge midpoint
    ne = len(edges)
    indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(ne + 1)])
    indices = np.concatenate([np.arange(nv), edges.ravel()])
    data = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return fine, sp.csr_matrix((data, indices, indptr), shape=(fine.num_vertices, nv))


class MeshHierarchy:
    """Nested meshes produced by regular refinement (coarsest first).

    Attributes
    ----------
    levels : list of Mesh
    prolongations : list of csr_matrix
        prolongations[k] maps nodal values from levels[k] to levels[k+1].
    """

    def __init__(self, levels, prolongations):
        if len(levels) < 1 or len(prolongations) != len(levels) - 1:
            raise ValueError("need one prolongation per refinement step")
        for k in range(len(levels) - 1):
            if levels[k + 1].num_triangles != 4 * levels[k].num_triangles:
                raise MeshError("level {} does not have 4x the triangles of "
                                "level {}".format(k + 1, k))
            ratio = levels[k].max_diameter() / levels[k + 1].max_diameter()
            if abs(ratio - 2) > 2e-12:
                raise MeshError("cell diameter is not halved between levels "
                                "{} and {}".format(k, k + 1))
        self.levels = list(levels)
        self.prolongations = list(prolongations)

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
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    check_vertex_cap((coarse.num_vertices, coarse.num_edges, coarse.num_triangles), n_levels,
                     max_vertices)
    levels = [coarse]
    prolongations = []
    for _ in range(n_levels - 1):
        fine, prolong = refine_regular(levels[-1])
        levels.append(fine)
        prolongations.append(prolong)
    return MeshHierarchy(levels, prolongations)


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
    ``#`` starts a comment; blank lines are ignored.

    Raises
    ------
    MeshFormatError
        On malformed content, with the offending line number.
    MeshError
        When the parsed data violates mesh invariants (degenerate
        triangles, inconsistent boundary flags, ...).
    """
    with open(path, "r", encoding="utf-8") as f:
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
    boundary = np.empty(nv, dtype=bool)
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
        boundary[i] = parts[2] == "1"

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

    return Mesh(vertices, triangles, boundary)
