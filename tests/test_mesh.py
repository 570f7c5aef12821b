import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

import newteig.mesh
from newteig.assemble import assemble_forms, free_prolongation, laplace_coefficients
from newteig.mesh import (Mesh, MeshError, MeshFormatError, MeshHierarchy, _coincident_pair,
                          _edge_keys, _edge_topology, build_hierarchy, load_mesh, prolongation,
                          refine_regular, save_mesh, unit_square_counts, unit_square_mesh)
from newteig.multilevel import run_multilevel

from meshgen import l_shaped_mesh, renumbered_square


def test_unit_square_counts_h_half():
    mesh = unit_square_mesh(1 / 2)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    assert mesh.boundary.sum() == 8


def test_unit_square_minimal():
    mesh = unit_square_mesh(1.0)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert mesh.boundary.sum() == 4


def test_unit_square_counts_formula():
    # (M+1)^2 vertices and 2 M^2 triangles
    mesh = unit_square_mesh(1 / 6)
    assert mesh.num_vertices == 49
    assert mesh.num_triangles == 72


@pytest.mark.parametrize("h", [0.3, -0.5, 0.0, 2.0])
def test_unit_square_rejects_bad_h(h):
    with pytest.raises(ValueError):
        unit_square_mesh(h)


def test_refine_euler_counts():
    # V_new = V + E with E = V + T - 1 for a simply connected triangulation
    coarse = unit_square_mesh(1.0)          # V=4, T=2, E=5
    fine = refine_regular(coarse)
    assert fine.num_vertices == 9
    assert fine.num_triangles == 8

    coarse = unit_square_mesh(1 / 2)        # V=9, T=8, E=16
    fine = refine_regular(coarse)
    assert fine.num_vertices == 25
    assert fine.num_triangles == 32


def test_refine_preserves_area_and_quadruples_triangles():
    mesh = unit_square_mesh(1 / 3)
    for _ in range(3):
        fine = refine_regular(mesh)
        assert fine.num_triangles == 4 * mesh.num_triangles
        assert abs(fine.area() - mesh.area()) <= 1e-12 * mesh.area()
        mesh = fine


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(renumbered_square, st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
                           st.floats(0.0, 0.15)),
                 st.builds(l_shaped_mesh, st.sampled_from([2, 4, 6, 8]))),
       st.integers(0, 2 ** 32 - 1))
def test_prolongation_reproduces_affine(mesh, seed):
    fine, prolong = refine_regular(mesh), prolongation(mesh)
    assert prolong.format == "csr" and prolong.shape == (fine.num_vertices, mesh.num_vertices)
    assert (np.asarray(prolong.sum(axis=1)).ravel() == 1.0).all()
    assert np.isin(prolong.data, [0.5, 1.0]).all()
    a, b, c = np.random.default_rng(seed).standard_normal((3, 4))
    coarse_vals = np.outer(mesh.vertices[:, 0], a) + np.outer(mesh.vertices[:, 1], b) + c
    fine_vals = np.outer(fine.vertices[:, 0], a) + np.outer(fine.vertices[:, 1], b) + c
    assert_allclose(prolong @ coarse_vals, fine_vals, rtol=0, atol=1e-13)


def test_refined_boundary_edges_nest_in_coarse_boundary():
    mesh = unit_square_mesh(1 / 2)
    fine = refine_regular(mesh)
    edges, _, counts = _edge_topology(mesh.triangles, mesh.num_vertices)
    coarse_edges = edges[counts == 1]
    fine_edges, _, fine_counts = _edge_topology(fine.triangles, fine.num_vertices)
    for i, j in fine_edges[fine_counts == 1]:
        a, b = fine.vertices[i], fine.vertices[j]
        inside = False
        for ci, cj in coarse_edges:
            p, q = mesh.vertices[ci], mesh.vertices[cj]
            d = q - p
            length2 = d @ d
            ta = (a - p) @ d / length2
            tb = (b - p) @ d / length2
            off_a = np.linalg.norm(a - (p + ta * d))
            off_b = np.linalg.norm(b - (p + tb * d))
            if (off_a < 1e-12 and off_b < 1e-12
                    and -1e-12 <= ta <= 1 + 1e-12 and -1e-12 <= tb <= 1 + 1e-12):
                inside = True
                break
        assert inside


def test_hierarchy_triangle_counts():
    hier = build_hierarchy(unit_square_mesh(1 / 6), 3)
    assert [m.num_triangles for m in hier.levels] == [72, 288, 1152]


def test_hierarchy_single_level():
    coarse = unit_square_mesh(1 / 4)
    hier = build_hierarchy(coarse, 1)
    assert len(hier) == 1
    assert hier.levels[0] is coarse
    assert hier.refine_seconds == []


def test_hierarchy_times_each_refinement(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(newteig.mesh.time, "perf_counter", lambda: next(ticks) ** 2)
    hier = build_hierarchy(unit_square_mesh(1 / 2), 4)
    # one start and one stop per refinement: 1 - 0, 9 - 4, 25 - 16
    assert hier.refine_seconds == [1, 5, 9]


def test_hierarchy_free_dof_counts():
    # interior grid points: (2^k M - 1)^2 for the structured mesh
    hier = build_hierarchy(unit_square_mesh(1 / 2), 3)
    free = [int((~m.boundary).sum()) for m in hier.levels]
    assert free == [1, 9, 49]


def test_hierarchy_h_halves():
    hier = build_hierarchy(unit_square_mesh(1 / 4), 3)
    hs = [m.max_diameter() for m in hier.levels]
    for k in range(2):
        assert_allclose(hs[k] / hs[k + 1], 2.0, rtol=1e-12)


def test_hierarchy_refuses_a_level_without_four_times_the_triangles():
    coarse = unit_square_mesh(1 / 2)
    with pytest.raises(MeshError, match="level 1 does not have 4x the triangles of level 0"):
        MeshHierarchy([coarse, unit_square_mesh(1 / 3)])


def test_hierarchy_refuses_a_diameter_not_halved():
    # four times the triangles, but the refined level is then stretched by 3/2
    coarse = unit_square_mesh(1 / 2)
    fine = refine_regular(coarse)
    stretched = Mesh(fine.vertices * [1.5, 1.0], fine.triangles)
    with pytest.raises(MeshError, match="cell diameter is not halved between levels 0 and 1"):
        MeshHierarchy([coarse, stretched])
    assert len(MeshHierarchy([coarse, fine])) == 2


def test_hierarchy_memory_guard():
    with pytest.raises(MeshError, match="cap"):
        build_hierarchy(unit_square_mesh(1 / 6), 8, max_vertices=10_000)


def test_vertex_cap_projection_stops_past_the_cap():
    # ten million levels: a projection carried to the finest level would spend
    # hours on integers of millions of digits, so an alarm ends the test
    def alarm(*_):
        raise TimeoutError("the vertex projection ran on past the cap")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(10)
    try:
        with pytest.raises(MeshError, match="^level 5 of the hierarchy would have 37249 "):
            build_hierarchy(unit_square_mesh(1 / 6), 10 ** 7, max_vertices=10_000)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cells", [1, 2, 3, 7])
def test_unit_square_counts_match_the_grid(cells):
    mesh = unit_square_mesh(1 / cells)
    assert unit_square_counts(1 / cells) == (mesh.num_vertices, mesh.num_edges,
                                             mesh.num_triangles)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_edge_topology_matches_lexicographic_unique(cells, seed):
    mesh = renumbered_square(cells, seed)
    for m in (mesh, refine_regular(mesh)):
        pairs = np.sort(m.triangles[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
        ref_edges, ref_inverse, ref_counts = np.unique(
            pairs, axis=0, return_inverse=True, return_counts=True)
        edges, triangle_edges, counts = _edge_topology(m.triangles, m.num_vertices)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(triangle_edges, ref_inverse.reshape(-1, 3))
        assert np.array_equal(counts, ref_counts)
        assert m.num_edges == len(ref_edges)


def test_edge_topology_once_per_validation_and_refinement(monkeypatch):
    calls = []

    def counting(triangles, nv):
        calls.append(nv)
        return _edge_topology(triangles, nv)

    monkeypatch.setattr(newteig.mesh, "_edge_topology", counting)
    hier = build_hierarchy(unit_square_mesh(1 / 4), 4)
    run_multilevel(hier, laplace_coefficients(), 1)
    # the coarse mesh sorts for its topology; every refined level gets its own
    # by construction, and refinement and assembly read what validation stored
    assert calls == [hier.levels[0].num_vertices]
    calls.clear()
    # the run released the topology: the next assembly sorts once for it, the
    # one after reads what that sort stored
    for _ in range(2):
        assemble_forms(hier.levels[-1], laplace_coefficients())
    assert calls == [hier.levels[-1].num_vertices]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(renumbered_square, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
                           st.floats(0.0, 0.15)),
                 st.builds(l_shaped_mesh, st.sampled_from([2, 4, 6]))))
def test_refined_topology_equals_discovery(mesh):
    for _ in range(2):
        mesh = refine_regular(mesh)
        edges, triangle_edges, counts = _edge_topology(mesh.triangles, mesh.num_vertices)
        boundary = np.zeros(mesh.num_vertices, dtype=bool)
        boundary[edges[counts == 1]] = True
        for name, expected in (("edge_vertices", edges), ("triangle_edges", triangle_edges),
                               ("boundary", boundary)):
            built = getattr(mesh, name)
            assert built.dtype == expected.dtype and built.shape == expected.shape, name
            assert built.tobytes() == expected.tobytes(), name


EDGE_ARRAYS = ("edge_vertices", "triangle_edges")


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name
    assert got.flags.writeable == want.flags.writeable, name


def assert_same_csr(got, want):
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.builds(renumbered_square, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
                           st.floats(0.0, 0.15)),
                 st.builds(l_shaped_mesh, st.sampled_from([2, 4, 6]))),
       st.integers(2, 3))
def test_released_caches_rebuild_bit_for_bit(coarse, n_levels):
    hier = build_hierarchy(coarse, n_levels)
    topology = [[getattr(mesh, name) for name in EDGE_ARRAYS] for mesh in hier.levels]
    prolongs = list(map(free_prolongation, hier.levels, hier.levels[1:]))
    # a free prolongation reads the topology first here, so it reads a rebuilt one
    for mesh in hier.levels:
        mesh.release_topology()
    for got, want in zip(map(free_prolongation, hier.levels, hier.levels[1:]), prolongs):
        assert_same_csr(got, want)
    for mesh, arrays in zip(hier.levels, topology):
        for name, want in zip(EDGE_ARRAYS, arrays):
            assert_same_array(getattr(mesh, name), want, name)
        assert mesh.num_edges == len(arrays[0])
    # refinement of a released mesh gives the same child
    for mesh in hier.levels:
        mesh.release_topology()
    for parent, child in zip(hier.levels, hier.levels[1:]):
        rebuilt = refine_regular(parent)
        for name in ("vertices", "triangles", "boundary") + EDGE_ARRAYS:
            assert_same_array(getattr(rebuilt, name), getattr(child, name), name)


def corrupt_topology(fine, how):
    """The `edge_vertices` and `triangle_edges` of a refined mesh, corrupted
    in one way."""
    edges, triangle_edges = fine.edge_vertices.copy(), fine.triangle_edges.copy()
    if how == "swapped rows":
        edges[[4, 5]] = edges[[5, 4]]
    elif how == "neighbouring edge":
        # local edge 01 of triangle 0 points at another edge of its vertex 0
        e = triangle_edges[0, 0]
        others = np.flatnonzero((edges == fine.triangles[0, 0]).any(axis=1))
        triangle_edges[0, 0] = others[others != e][0]
    elif how == "unused edge":
        # (0, j) for the first vertex j not joined to 0, in its sorted place
        j = np.setdiff1d(np.arange(1, fine.num_vertices), edges[edges[:, 0] == 0, 1])[0]
        at = np.searchsorted(edges[:, 0] * fine.num_vertices + edges[:, 1], j)
        edges = np.insert(edges, at, [0, j], axis=0)
        triangle_edges += triangle_edges >= at
    return edges.astype(np.int32), triangle_edges


@pytest.mark.parametrize("how, message", [
    ("swapped rows", "not distinct sorted vertex pairs"),
    ("neighbouring edge", "disagree with the triangles' vertex pairs"),
    ("unused edge", "belongs to no triangle"),
])
def test_mesh_rejects_a_corrupted_topology(how, message):
    fine = refine_regular(renumbered_square(3, 7, jitter=0.1))
    args = (fine.vertices, fine.triangles)
    intact = Mesh(*args, topology=(fine.edge_vertices, fine.triangle_edges))
    assert intact.edge_vertices.tobytes() == fine.edge_vertices.tobytes()
    with pytest.raises(MeshError, match=message):
        Mesh(*args, topology=corrupt_topology(fine, how))


def test_cli_import_leaves_out_scipy_spatial():
    code = "import sys, newteig.cli; print('scipy.spatial' in sys.modules)"
    src = str(Path(newteig.mesh.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_hierarchy_build_memory_peak():
    # every level keeps its edge topology from validation as int32 and bool
    # arrays; the coarse level sorts for it, every refined level builds it
    # from its parent's and verifies it without a sort
    coarse = unit_square_mesh(1 / 8)
    tracemalloc.start()
    try:
        build_hierarchy(coarse, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


def test_hierarchy_live_size():
    # int32 triangles: the seven levels of laplace_deep, 524,288 finest triangles
    coarse = unit_square_mesh(1 / 8)
    tracemalloc.start()
    try:
        hierarchy = build_hierarchy(coarse, 7)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(hierarchy) == 7
    assert live <= 42 * 2 ** 20


def test_triangles_stored_as_int32(tmp_path):
    mesh = unit_square_mesh(1 / 3)
    fine = refine_regular(mesh)
    save_mesh(fine, tmp_path / "fine.mesh")
    for m in (mesh, fine, load_mesh(tmp_path / "fine.mesh")):
        assert m.triangles.dtype == np.int32
        assert m.triangles.flags.c_contiguous and not m.triangles.flags.writeable


def test_edge_keys_exact_past_int32_products():
    # 50,000 * 50,001 overflows int32; the keys are formed in int64
    nv = 50_001
    triangles = np.array([[0, 49_999, 50_000], [50_000, 1, 49_998]], dtype=np.int32)
    keys = _edge_keys(triangles, nv)
    assert keys.dtype == np.int64
    expected = [[min(a, b) * nv + max(a, b) for a, b in zip(row, np.roll(row, -1))]
                for row in triangles.tolist()]
    assert keys.tolist() == expected
    edges, _, _ = _edge_topology(triangles, nv)
    assert edges.tolist() == sorted(sorted(map(int, pair))
                                    for row in triangles for pair in zip(row, np.roll(row, -1)))


@pytest.mark.parametrize("index", [3, 2 ** 31, 2 ** 32 + 1, -1, -(2 ** 32) + 1])
def test_mesh_rejects_indices_before_narrowing(index):
    # 2**32 + 1 would wrap to 1 as int32, and -(2**32) + 1 to 1 as well
    with pytest.raises(MeshError, match="triangle 1 references a vertex index out of range"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1]],
             triangles=[[0, 1, 2], [0, 1, index]])


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2.9]], np.array([[0, 1, 2]], dtype=float), np.array([[False, True, True]]),
    np.array([[0, 1, 2]], dtype=object)])
def test_mesh_rejects_non_integer_indices(triangles):
    # 2.9 would be truncated to vertex 2 and a bool read as vertex 0 or 1
    with pytest.raises(MeshError, match="triangle vertex indices must be integers"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1]], triangles=triangles)


def test_l_shaped_boundary_is_its_six_segments():
    # derived from the edges alone, the re-entrant segments included
    for cells in (2, 4, 6):
        mesh = l_shaped_mesh(cells)
        x, y = mesh.vertices.T
        on_segments = ((x == 0) | (y == 0)
                       | ((x == 1) & (y <= 0.5)) | ((y == 1) & (x <= 0.5))
                       | ((x == 0.5) & (y >= 0.5)) | ((y == 0.5) & (x >= 0.5)))
        assert mesh.boundary.tolist() == on_segments.tolist()
        assert mesh.boundary[(x == 0.5) & (y == 0.5)].all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.2))
def test_signed_areas_match_the_cross_product_bit_for_bit(cells, seed, jitter):
    mesh = renumbered_square(cells, seed, jitter)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    t0, t1, t2 = mesh.triangles.T
    dx1, dy1 = x[t1] - x[t0], y[t1] - y[t0]
    dx2, dy2 = x[t2] - x[t0], y[t2] - y[t0]
    expected = 0.5 * (dx1 * dy2 - dy1 * dx2)
    assert mesh.signed_areas().tobytes() == expected.tobytes()


def test_vertex_cap_beyond_int32_refused():
    with pytest.raises(MeshError, match="cap 2147483648 must be below 2\\*\\*31"):
        build_hierarchy(unit_square_mesh(1 / 2), 2, max_vertices=2 ** 31)
    build_hierarchy(unit_square_mesh(1 / 2), 2, max_vertices=2 ** 31 - 1)


def test_mesh_rejects_non_manifold_edge():
    with pytest.raises(MeshError, match="non-manifold"):
        Mesh(vertices=[[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, 3]],
             triangles=[[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def test_save_load_roundtrip(tmp_path):
    mesh = unit_square_mesh(1 / 2)
    path = tmp_path / "square.mesh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert_allclose(back.vertices, mesh.vertices, rtol=0, atol=0)
    assert (back.triangles == mesh.triangles).all()
    assert (back.boundary == mesh.boundary).all()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.2))
def test_save_load_roundtrip_is_bit_identical(tmp_path, cells, seed, jitter):
    mesh = renumbered_square(cells, seed, jitter)
    path = tmp_path / "renumbered.mesh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    for name in ("vertices", "triangles", "boundary", "edge_vertices", "triangle_edges"):
        original, loaded = getattr(mesh, name), getattr(back, name)
        assert loaded.dtype == original.dtype and loaded.shape == original.shape, name
        assert loaded.tobytes() == original.tobytes(), name


def test_load_rejects_zero_area_triangle(tmp_path):
    path = tmp_path / "degenerate.mesh"
    path.write_text("mesh2d 4 2\n"
                    "0 0 1\n1 0 1\n0 1 1\n2 0 1\n"
                    "0 1 2\n"
                    "0 1 3\n")   # collinear
    with pytest.raises(MeshError, match="area"):
        load_mesh(path)


def test_load_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "badindex.mesh"
    path.write_text("mesh2d 3 1\n"
                    "0 0 1\n1 0 1\n0 1 1\n"
                    "0 1 9\n")
    with pytest.raises(MeshFormatError, match="triangle 0"):
        load_mesh(path)


def test_load_rejects_inconsistent_flags(tmp_path):
    path = tmp_path / "badflags.mesh"
    path.write_text("mesh2d 3 1\n"
                    "0 0 1\n1 0 1\n0 1 0\n"   # vertex 2 is on the boundary
                    "0 1 2\n")
    with pytest.raises(MeshFormatError, match="^line 4: boundary flag of vertex 2 is "
                       "inconsistent with the edge topology$"):
        load_mesh(path)


@pytest.mark.parametrize("flag", ["7", "0.5", "-1", "True"])
def test_load_rejects_flags_other_than_zero_or_one(tmp_path, flag):
    # a flag of 7 is not read as True
    path = tmp_path / "flags.mesh"
    path.write_text("mesh2d 3 1\n# vertices\n0 0 1\n1 0 {}\n0 1 1\n0 1 2\n".format(flag))
    with pytest.raises(MeshFormatError, match="^line 4: boundary flag must be 0 or 1$"):
        load_mesh(path)


def test_load_skips_a_byte_order_mark(tmp_path):
    mesh = unit_square_mesh(1 / 2)
    path = tmp_path / "bom.mesh"
    save_mesh(mesh, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_mesh(path)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert back.boundary.tolist() == mesh.boundary.tolist()


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "badline.mesh"
    path.write_text("# comment\nmesh2d 3 1\n0 0 1\nnot a number here\n0 1 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(path)


def test_load_allows_comments(tmp_path):
    mesh = unit_square_mesh(1.0)
    path = tmp_path / "comments.mesh"
    save_mesh(mesh, path)
    text = "# header comment\n" + path.read_text().replace(
        "mesh2d", "mesh2d", 1) + "# trailing comment\n"
    path.write_text(text)
    back = load_mesh(path)
    assert back.num_triangles == 2


@st.composite
def point_sets(draw):
    """(points, radius): a random cloud, points on a lattice of step 0.5r, r
    or 2r (many equal x or y, and exact ties at distance r), or a cloud with
    pairs planted at 0.5r, r and 2r; optionally shifted far from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    radius = draw(st.sampled_from([1e-12, 1e-3, 0.05, 0.2]))
    kind = draw(st.sampled_from(["cloud", "lattice", "planted"]))
    if kind == "lattice":
        step = radius * draw(st.sampled_from([0.5, 1.0, 2.0]))
        points = rng.integers(0, draw(st.integers(1, 12)), (n, 2)) * step
    else:
        points = rng.uniform(0.0, draw(st.sampled_from([radius, 1.0, 50.0])), (n, 2))
    if kind == "planted":
        for factor in (0.5, 1.0, 2.0):
            i, j = rng.choice(n, 2, replace=False)
            angle = draw(st.sampled_from([0.0, np.pi / 2, np.pi / 4, rng.uniform(0, 2 * np.pi)]))
            points[j] = points[i] + factor * radius * np.array([np.cos(angle), np.sin(angle)])
    return points + draw(st.sampled_from([0.0, -3.5, 1e6])), radius


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_coincident_pair_matches_kdtree(case):
    points, radius = case
    pairs = cKDTree(points).query_pairs(radius)
    assert _coincident_pair(points, radius) == (min(pairs) if pairs else None)


@pytest.mark.parametrize("dx", [-1, 0, 1])
@pytest.mark.parametrize("dy", [-1, 0, 1])
def test_coincident_pair_across_every_cell_neighbour(dx, dy):
    # radius 1 and a 4 x 4 bounding box give cells of side 2 from (0, 0): the
    # planted pair straddles the corner (2, 2) towards each neighbour cell
    corner = np.array([2.0, 2.0])
    offset = 0.2 * np.array([dx, dy])
    points = np.array([[0.0, 0.0], [4.0, 4.0], corner - offset, corner + offset + [0, 1e-3]])
    assert _coincident_pair(points, 1.0) == (2, 3)
    assert min(cKDTree(points).query_pairs(1.0)) == (2, 3)


@pytest.mark.parametrize("dx", [-1, 0, 1])
@pytest.mark.parametrize("dy", [-1, 0, 1])
def test_coincident_screen_finds_a_lone_pair(dx, dy):
    # as above with an 8 x 8 box and the pair at (4, 4): no other cell is
    # near the pair's cells, so only the pair itself can fail the screen
    corner = np.array([4.0, 4.0])
    offset = 0.2 * np.array([dx, dy])
    points = np.array([[0.0, 0.0], [8.0, 8.0], corner - offset, corner + offset + [0, 1e-3]])
    assert _coincident_pair(points, 1.0) == (2, 3)
    assert min(cKDTree(points).query_pairs(1.0)) == (2, 3)


def test_mesh_rejects_duplicate_vertices():
    with pytest.raises(MeshError, match="vertices 0 and 3 coincide"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1], [1e-15, 0]],
             triangles=[[0, 1, 2], [3, 1, 2]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_coordinates(value):
    with pytest.raises(MeshError, match="vertex 2 has non-finite coordinates"):
        Mesh(vertices=[[0, 0], [1, 0], [value, 1]],
             triangles=[[0, 1, 2]])


def test_mesh_rejects_coordinates_whose_squares_overflow():
    # left in, the domain diameter overflows and every vertex pair reads as coincident
    with pytest.raises(MeshError, match="vertex 2 has a coordinate beyond 1e\\+150"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1e300]],
             triangles=[[0, 1, 2]])


def test_mesh_rejects_clockwise_triangle():
    with pytest.raises(MeshError, match="area"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1]],
             triangles=[[0, 2, 1]])


def test_mesh_rejects_a_doubled_triangle():
    # every edge is shared twice, so no boundary is found and area() would read 1.0
    with pytest.raises(MeshError, match=r"edge \(0, 1\) runs the same way"):
        Mesh(vertices=[[0, 0], [1, 0], [0, 1]],
             triangles=[[0, 1, 2], [0, 1, 2]])


def test_mesh_rejects_a_folded_square():
    # both triangles are counterclockwise and lie on the same side of edge 01
    with pytest.raises(MeshError, match=r"edge \(0, 1\) runs the same way"):
        Mesh(vertices=[[0, 0], [1, 0], [1, 1], [0, 1]],
             triangles=[[0, 1, 2], [0, 1, 3]])


def test_mesh_is_immutable():
    mesh = unit_square_mesh(1 / 2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
