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
