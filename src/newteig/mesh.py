"""Triangulations of polygonal domains and nested regular-refinement hierarchies."""

import math

import numpy as np
from scipy import sparse as sp
from scipy.spatial import cKDTree

DEFAULT_VERTEX_CAP = 8_000_000


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
    ``np.divmod(key, nv)`` recovers the pair.
    """
    nxt = triangles[:, [1, 2, 0]]
    return np.minimum(triangles, nxt) * nv + np.maximum(triangles, nxt)


def _edge_topology(triangles, nv):
    """Unique edges of a triangulation with `nv` vertices.

    Returns
    -------
    edges : (E, 2) int array
        Sorted vertex-index pairs in lexicographic order.
    triangle_edges : (T, 3) int array
        Edge index of the local edges (01, 12, 02) of every triangle.
    counts : (E,) int array
        Number of triangles sharing each edge (1 = boundary edge).
    """
    keys, inverse, counts = np.unique(_edge_keys(triangles, nv), return_inverse=True,
                                      return_counts=True)
    edges = np.column_stack(np.divmod(keys, nv))
    return edges, inverse.reshape(-1, 3), counts


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

    Raises
    ------
    MeshError
        If a coordinate is not finite, a triangle has nonpositive signed
        area, an index is out of range, an edge is shared by more than two
        triangles, boundary flags disagree with the edge topology, a vertex
        is unused, or two vertices coincide.
    """

    def __init__(self, vertices, triangles, boundary):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary = np.ascontiguousarray(boundary, dtype=bool)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (T, 3)")
        if self.boundary.shape != (self.num_vertices,):
            raise MeshError("boundary flags must have shape (V,)")
        self._validate()
        for arr in (self.vertices, self.triangles, self.boundary):
            arr.flags.writeable = False

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def __repr__(self):
        return "Mesh({} vertices, {} triangles)".format(self.num_vertices,
                                                        self.num_triangles)

    def signed_areas(self):
        """Signed area of every triangle (positive for counterclockwise)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self):
        return float(self.signed_areas().sum())

    def max_diameter(self):
        """Largest cell diameter, i.e. the longest edge in the mesh."""
        return self._max_diameter

    def domain_diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.sqrt(((hi - lo) ** 2).sum()))

    def _validate(self):
        if self.num_triangles == 0:
            raise MeshError("mesh has no triangles")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise MeshError("vertex {} has non-finite coordinates".format(
                np.flatnonzero(~finite)[0]))
        if self.triangles.min() < 0 or self.triangles.max() >= self.num_vertices:
            bad = np.flatnonzero((self.triangles < 0).any(axis=1)
                                 | (self.triangles >= self.num_vertices).any(axis=1))[0]
            raise MeshError("triangle {} references a vertex index out of range".format(bad))
        areas = self.signed_areas()
        if (areas <= 0).any():
            bad = int(np.argmin(areas))
            raise MeshError("triangle {} has nonpositive area {:g} "
                            "(vertices must be counterclockwise)".format(bad, areas[bad]))
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.triangles] = True
        if not used.all():
            raise MeshError("vertex {} belongs to no triangle".format(np.flatnonzero(~used)[0]))
        keys, counts = np.unique(_edge_keys(self.triangles, self.num_vertices),
                                 return_counts=True)
        edges = np.column_stack(np.divmod(keys, self.num_vertices))
        if (counts > 2).any():
            raise MeshError("edge shared by more than two triangles (non-manifold)")
        on_bedge = np.zeros(self.num_vertices, dtype=bool)
        on_bedge[edges[counts == 1]] = True
        if (on_bedge != self.boundary).any():
            bad = np.flatnonzero(on_bedge != self.boundary)[0]
            raise MeshError("boundary flag of vertex {} is inconsistent with the "
                            "edge topology".format(bad))
        tree = cKDTree(self.vertices)
        pairs = tree.query_pairs(1e-12 * max(self.domain_diameter(), 1e-300))
        if pairs:
            i, j = sorted(next(iter(pairs)))
            raise MeshError("vertices {} and {} coincide".format(i, j))
        self.num_edges = len(edges)
        d = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        self._max_diameter = float(np.sqrt((d ** 2).sum(axis=1)).max())


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
    edges, edge_of, counts = _edge_topology(tris, nv)
    # midpoint vertex index of local edges (01, 12, 02) per triangle
    mid = nv + edge_of

    vertices = np.vstack([mesh.vertices,
                          0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
    m01, m12, m02 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.vstack([
        np.column_stack([tris[:, 0], m01, m02]),
        np.column_stack([tris[:, 1], m12, m01]),
        np.column_stack([tris[:, 2], m02, m12]),
        np.column_stack([m01, m12, m02]),
    ])
    boundary = np.concatenate([mesh.boundary, counts == 1])
    fine = Mesh(vertices, children, boundary)

    n_fine = fine.num_vertices
    rows = np.concatenate([np.arange(nv),
                           np.repeat(nv + np.arange(len(edges)), 2)])
    cols = np.concatenate([np.arange(nv), edges.ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * len(edges), 0.5)])
    return fine, sp.csr_matrix((vals, (rows, cols)), shape=(n_fine, nv))


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


def build_hierarchy(coarse, n_levels, max_vertices=DEFAULT_VERTEX_CAP):
    """Repeatedly refine `coarse` into a nested hierarchy of `n_levels` meshes.

    Parameters
    ----------
    coarse : Mesh
    n_levels : int
        Total number of levels including the coarse mesh itself.
    max_vertices : int, optional
        Refuse to build if the projected finest-level vertex count exceeds
        this cap.

    Returns
    -------
    MeshHierarchy
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    # Exact growth projection: every edge splits in two and every triangle
    # contributes three interior edges per refinement.
    v = coarse.num_vertices
    e = coarse.num_edges
    t = coarse.num_triangles
    for _ in range(n_levels - 1):
        v, e, t = v + e, 2 * e + 3 * t, 4 * t
    if v > max_vertices:
        raise MeshError("projected finest level has {} vertices, exceeding the "
                        "cap of {}".format(v, max_vertices))

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
