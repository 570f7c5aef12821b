"""Seeded inputs of the benchmark workloads: a coarse mesh file and a config.

The program under test only ever sees the two generated files.  Every
workload permutes vertex and triangle numbering from the seed and rotates
each triangle's vertex list cyclically (which keeps it counterclockwise), so
the same geometry reaches the solver in a seed-dependent order.
``custom_file`` also jitters interior vertices and draws its coefficient
expressions from the seed.

Only numpy is used here, so the inputs do not depend on the code under test.
"""

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """What a workload runs and what its output must look like."""

    name: str
    problem: str
    coarse_cells: int          # cells per side of the coarse unit-square grid
    levels: int
    eigen_count: int
    threads: int = 1
    jitter: float = 0.0        # largest interior-vertex displacement, in units of h

    def expected_n_free(self, levels=None):
        """Free DOFs per level: (cells - 1)^2 interior vertices, cells doubling."""
        levels = self.levels if levels is None else levels
        return [(self.coarse_cells * 2 ** k - 1) ** 2 for k in range(levels)]


WORKLOADS = {
    w.name: w for w in (
        Workload("laplace_deep", "laplace", coarse_cells=8, levels=7, eigen_count=1),
        Workload("example2_m6", "example2", coarse_cells=6, levels=6, eigen_count=6),
        Workload("custom_file", "custom", coarse_cells=48, levels=3, eigen_count=4,
                 threads=2, jitter=0.15),
    )
}


def _grid_mesh(cells):
    """Unit-square grid split along the lower-left to upper-right diagonals."""
    side = np.arange(cells + 1) / cells
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    i, j = np.meshgrid(np.arange(cells), np.arange(cells))
    v00 = (j * (cells + 1) + i).ravel()
    v10, v01 = v00 + 1, v00 + cells + 1
    v11 = v01 + 1
    triangles = np.vstack([np.column_stack([v00, v10, v11]),
                           np.column_stack([v00, v11, v01])])
    gi, gj = np.meshgrid(np.arange(cells + 1), np.arange(cells + 1))
    boundary = ((gi == 0) | (gi == cells) | (gj == 0) | (gj == cells)).ravel()
    return vertices, triangles, boundary


def coarse_mesh(workload, rng):
    """The workload's coarse mesh, renumbered (and jittered) from `rng`."""
    vertices, triangles, boundary = _grid_mesh(workload.coarse_cells)
    if workload.jitter:
        h = 1.0 / workload.coarse_cells
        radius = workload.jitter * h * np.sqrt(rng.uniform(size=len(vertices)))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=len(vertices))
        shift = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        vertices = vertices + np.where(boundary[:, None], 0.0, shift)

    order = rng.permutation(len(vertices))      # new index -> old index
    new_of_old = np.empty_like(order)
    new_of_old[order] = np.arange(len(order))
    vertices, boundary = vertices[order], boundary[order]
    triangles = new_of_old[triangles][rng.permutation(len(triangles))]
    shift = rng.integers(0, 3, size=len(triangles))
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return vertices, triangles, boundary


def custom_expressions(rng):
    """Coefficient expressions that keep D SPD, c >= 0 and r > 0.

    a11, a22 >= 1 and |a12| <= 0.8 give det D >= 1 - 0.64 > 0.
    """
    alpha, beta, delta = rng.uniform(0.0, 1.0, size=3)
    gamma = rng.uniform(-0.8, 0.8)
    kappa = rng.uniform(0.0, 10.0)
    return {
        "a11": "1 + {:.6f}*x1^2".format(alpha),
        "a12": "{:.6f}*sin(pi*x1)*sin(pi*x2)".format(gamma),
        "a22": "1 + {:.6f}*exp(-x2)".format(beta),
        "phi": "{:.6f}*(x1 - 1/2)^2".format(kappa),
        "rho": "1 + {:.6f}*x1*x2".format(delta),
    }


def write_mesh(path, vertices, triangles, boundary):
    """Write the ``mesh2d`` text format with round-trip float precision."""
    lines = ["mesh2d {} {}".format(len(vertices), len(triangles))]
    lines += ["{!r} {!r} {}".format(float(x), float(y), int(b))
              for (x, y), b in zip(vertices, boundary)]
    lines += ["{} {} {}".format(*t) for t in triangles.tolist()]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def write_inputs(workload, seed, directory, levels=None):
    """Write ``coarse.mesh`` and ``run.cfg`` into `directory`; return the config path.

    `levels` overrides the workload's depth (the smoke test runs shallower).
    Paths in the config are relative: the program runs with `directory` as
    its working directory, so it reads and writes there only.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    mesh_path = os.path.join(directory, "coarse.mesh")
    write_mesh(mesh_path, *coarse_mesh(workload, rng))
    keys = {
        "problem": workload.problem,
        "mesh_file": "coarse.mesh",
        "levels": workload.levels if levels is None else levels,
        "eigen_count": workload.eigen_count,
        "threads": workload.threads,
        "output": "out",
    }
    if workload.problem == "custom":
        keys.update(custom_expressions(rng))
    config_path = os.path.join(directory, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as f:
        f.write("# seed {} workload {}\n".format(seed, workload.name))
        f.writelines("{} = {}\n".format(k, v) for k, v in keys.items())
    return config_path
