"""Mesh generators shared by the property tests."""

import numpy as np

from newteig.mesh import Mesh, unit_square_mesh


def renumbered_square(cells, seed, jitter=0.0):
    """Unit-square mesh with vertices and triangles renumbered at random and
    every triangle's vertex list rotated cyclically (orientation kept).

    Interior vertices move by up to ``jitter * h`` in each coordinate;
    ``jitter`` below 0.25 keeps every triangle counterclockwise.
    """
    mesh = unit_square_mesh(1 / cells)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    boundary = np.empty_like(mesh.boundary)
    boundary[perm] = mesh.boundary
    tris = perm[mesh.triangles][rng.permutation(mesh.num_triangles)]
    shifts = rng.integers(0, 3, size=len(tris))
    tris = tris[np.arange(len(tris))[:, None], (np.arange(3) + shifts[:, None]) % 3]
    offsets = rng.uniform(-jitter / cells, jitter / cells, vertices.shape)
    vertices += offsets * ~boundary[:, None]
    return Mesh(vertices, tris, boundary)


def l_shaped_mesh(cells):
    """The unit square without its upper-right quadrant, cut from the
    criss-cross mesh with ``cells`` (even) cells per side of the square.

    The re-entrant corner sits at (1/2, 1/2); the two edges that meet there
    are boundary edges.
    """
    square = unit_square_mesh(1 / cells)
    centroids = square.vertices[square.triangles].mean(axis=1)
    kept = square.triangles[~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5))]
    used = np.unique(kept)
    renumber = np.full(square.num_vertices, -1)
    renumber[used] = np.arange(len(used))
    x, y = square.vertices[used].T
    cut = ((x == 0.5) & (y >= 0.5)) | ((y == 0.5) & (x >= 0.5))
    return Mesh(square.vertices[used], renumber[kept], square.boundary[used] | cut)
