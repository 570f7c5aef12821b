import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import sparse as sp

import newteig.assemble
from newteig.assemble import (_QUAD_RULES, AssembledForms, AssemblyError, CoefficientSet,
                              _assemble_pencil, _element_entries, a_norm, assemble_forms, b_norm,
                              energy_error_vs_exact, example2_coefficients, free_prolongation,
                              interpolate, laplace_coefficients, rayleigh_quotient)
from newteig.linalg import dense_gen_eig
from newteig.mesh import Mesh, build_hierarchy, refine_regular, unit_square_mesh

from meshgen import l_shaped_mesh, renumbered_square

EXACT_FIRST = 2 * math.pi ** 2


def assemble_all_vertices(mesh, coeffs, quad_order=2):
    """Stiffness and mass over every vertex, boundary included."""
    return _assemble_pencil(mesh, coeffs, quad_order, np.ones(mesh.num_vertices, dtype=bool))


def single_triangle_mesh():
    return Mesh(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                triangles=[[0, 1, 2]],
                boundary=[True, True, True])


def first_mode(x, y):
    return 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)


def first_mode_grad(x, y):
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = 2.0 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    out[..., 1] = 2.0 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    return out


def sympy_element_matrices():
    """Independent symbolic integration of the P1 element matrices on the
    reference triangle (oracle for the assembly kernels)."""
    import sympy as sy

    x, y = sy.symbols("x y")
    basis = [1 - x - y, x, y]
    stiff = sy.zeros(3, 3)
    mass = sy.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            integrand_k = (sy.diff(basis[i], x) * sy.diff(basis[j], x)
                           + sy.diff(basis[i], y) * sy.diff(basis[j], y))
            stiff[i, j] = sy.integrate(sy.integrate(integrand_k, (y, 0, 1 - x)), (x, 0, 1))
            mass[i, j] = sy.integrate(
                sy.integrate(basis[i] * basis[j], (y, 0, 1 - x)), (x, 0, 1))
    return (np.array(stiff, dtype=float), np.array(mass, dtype=float))


def test_element_stiffness_unit_right_triangle():
    stiffness, _ = assemble_all_vertices(single_triangle_mesh(), laplace_coefficients())
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert_allclose(stiffness.toarray(), expected, rtol=0, atol=1e-14)
    oracle_k, _ = sympy_element_matrices()
    assert_allclose(expected, oracle_k, rtol=0, atol=1e-15)


def test_element_mass_matches_exact_integration():
    _, mass = assemble_all_vertices(single_triangle_mesh(), laplace_coefficients())
    area = 0.5
    expected = (area / 12.0) * np.array([[2.0, 1.0, 1.0],
                                         [1.0, 2.0, 1.0],
                                         [1.0, 1.0, 2.0]])
    assert_allclose(mass.toarray(), expected, rtol=0, atol=1e-15)
    _, oracle_m = sympy_element_matrices()
    assert_allclose(expected, oracle_m, rtol=0, atol=1e-15)


@pytest.mark.parametrize("h", [1.0, 1 / 2, 1 / 5])
def test_mass_sums_to_domain_area(h):
    _, mass = assemble_all_vertices(unit_square_mesh(h), laplace_coefficients())
    assert abs(mass.sum() - 1.0) <= 1e-12


def test_example2_mass_sums_to_weight_integral():
    # integral of 1 + (x-1/2)(y-1/2) over the unit square is exactly 1
    _, mass = assemble_all_vertices(unit_square_mesh(1 / 6), example2_coefficients(), 5)
    assert abs(mass.sum() - 1.0) <= 1e-12


def test_stiffness_row_sums_vanish_without_reaction():
    stiffness, _ = assemble_all_vertices(unit_square_mesh(1 / 4), laplace_coefficients())
    rows = np.asarray(stiffness.sum(axis=1)).ravel()
    assert np.abs(rows).max() <= 1e-13


def element_loop_oracle(mesh, coeffs, quad_order):
    """Free-DOF stiffness and mass from a plain loop over the triangles, with
    the barycentric gradients read off the inverse of each vertex matrix."""
    bary, weights = _QUAD_RULES[quad_order]
    n = mesh.num_vertices
    stiffness, mass = np.zeros((n, n)), np.zeros((n, n))
    for tri in mesh.triangles:
        corners = np.vstack([np.ones(3), mesh.vertices[tri].T])   # columns (1, x, y)
        grads = np.linalg.inv(corners)[:, 1:]                      # row i: grad of lambda_i
        area = 0.5 * np.linalg.det(corners)
        for b, w in zip(bary, weights):
            x, y = (np.array([v]) for v in b @ mesh.vertices[tri])
            outer = np.outer(b, b)
            stiffness[np.ix_(tri, tri)] += w * area * (
                grads @ coeffs.diffusion(x, y)[0] @ grads.T + coeffs.reaction(x, y)[0] * outer)
            mass[np.ix_(tri, tri)] += w * area * coeffs.weight(x, y)[0] * outer
    free = ~mesh.boundary
    return stiffness[np.ix_(free, free)], mass[np.ix_(free, free)]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.builds(renumbered_square, st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
                           st.floats(0.0, 0.15)),
                 st.builds(l_shaped_mesh, st.sampled_from([4, 6]))),
       st.sampled_from([2, 5]), st.sampled_from([laplace_coefficients, example2_coefficients]))
def test_edge_scatter_matches_element_loop(mesh, quad_order, make_coeffs):
    forms = assemble_forms(mesh, make_coeffs(), quad_order)
    oracle = element_loop_oracle(mesh, make_coeffs(), quad_order)
    for matrix, dense in zip((forms.stiffness, forms.mass), oracle):
        assert np.abs(matrix.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
        assert np.array_equal(matrix.toarray(), matrix.toarray().T)
        # canonical CSR: int32 indices, columns strictly increasing in every row
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        rows = np.repeat(np.arange(forms.n_free), np.diff(matrix.indptr))
        assert (np.diff(rows * forms.n_free + matrix.indices) > 0).all()
    assert (forms.stiffness.data != 0).all()


def test_matrices_symmetric():
    forms = assemble_forms(unit_square_mesh(1 / 5), example2_coefficients(), quad_order=5)
    for mat in (forms.stiffness, forms.mass):
        assert np.abs((mat - mat.T).toarray()).max() <= 1e-14


def test_pencil_positive_definite():
    forms = assemble_forms(unit_square_mesh(1 / 5), example2_coefficients())
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(forms.n_free)
        assert x @ (forms.mass @ x) > 0
        assert x @ (forms.stiffness @ x) > 0


def test_quad_order_immaterial_for_laplace():
    mesh = unit_square_mesh(1 / 4)
    low = assemble_forms(mesh, laplace_coefficients(), quad_order=2)
    high = assemble_forms(mesh, laplace_coefficients(), quad_order=5)
    assert np.abs((low.stiffness - high.stiffness).toarray()).max() < 1e-13
    assert np.abs((low.mass - high.mass).toarray()).max() < 1e-13


def test_galerkin_nestedness_through_prolongation():
    mesh = unit_square_mesh(1 / 3)
    fine, prolong = refine_regular(mesh)
    coeffs = laplace_coefficients()
    coarse_forms = assemble_forms(mesh, coeffs)
    fine_forms = assemble_forms(fine, coeffs)
    op = free_prolongation(prolong, coarse_forms, fine_forms)
    for coarse, fine_mat in ((coarse_forms.stiffness, fine_forms.stiffness),
                             (coarse_forms.mass, fine_forms.mass)):
        restricted = (op.T @ (fine_mat @ op)).toarray()
        assert_allclose(restricted, coarse.toarray(), rtol=0, atol=1e-12)


def test_rejects_indefinite_diffusion():
    bad = CoefficientSet(
        diffusion=lambda x, y: np.broadcast_to(np.diag([1.0, -1.0]), (len(x), 2, 2)),
        reaction=lambda x, y: np.zeros_like(x),
        weight=lambda x, y: np.ones_like(x))
    with pytest.raises(AssemblyError, match="quadrature point"):
        assemble_forms(unit_square_mesh(1 / 2), bad)


def test_rejects_nonpositive_weight():
    bad = CoefficientSet(
        diffusion=laplace_coefficients().diffusion,
        reaction=lambda x, y: np.zeros_like(x),
        weight=lambda x, y: x - 0.5)
    with pytest.raises(AssemblyError, match="weight"):
        assemble_forms(unit_square_mesh(1 / 2), bad)


@pytest.mark.parametrize("name", ["reaction", "weight"])
def test_rejects_non_finite_coefficients(name):
    # 0/0 gives nan and 1/0 gives inf; both fail no sign test, so they need
    # a finiteness check of their own
    values = {"reaction": lambda x, y: 0.0 / (x - x),      # phi = 0/(x1-x1)
              "weight": lambda x, y: 1.0 / (x - x)}        # rho = 1/(x1-x1)
    good = laplace_coefficients()
    bad = CoefficientSet(
        diffusion=good.diffusion,
        reaction=values["reaction"] if name == "reaction" else good.reaction,
        weight=values["weight"] if name == "weight" else good.weight)
    with pytest.raises(AssemblyError, match=name + " coefficient is not finite at "
                       "quadrature point"):
        assemble_forms(unit_square_mesh(1 / 2), bad)


def test_rejects_non_symmetric_diffusion():
    bad = CoefficientSet(
        diffusion=lambda x, y: np.broadcast_to([[1.0, 0.5], [0.0, 1.0]], (len(x), 2, 2)),
        reaction=lambda x, y: np.zeros_like(x),
        weight=lambda x, y: np.ones_like(x))
    with pytest.raises(AssemblyError, match="diffusion matrix is not symmetric positive "
                       "definite at quadrature point"):
        assemble_forms(unit_square_mesh(1 / 2), bad)


def test_rejects_negative_reaction():
    bad = CoefficientSet(
        diffusion=laplace_coefficients().diffusion,
        reaction=lambda x, y: x - 0.5,
        weight=lambda x, y: np.ones_like(x))
    with pytest.raises(AssemblyError, match="reaction coefficient is negative at "
                       "quadrature point"):
        assemble_forms(unit_square_mesh(1 / 2), bad)


@pytest.mark.parametrize("broken, message", [
    ("finite", "diffusion coefficient is not finite"),
    ("definite", "diffusion matrix is not symmetric positive definite"),
    ("reaction", "reaction coefficient is negative"),
    ("weight", "weight coefficient is not positive"),
])
def test_failure_at_last_quadrature_point_is_named(broken, message):
    # every other point passes, so the cheap all-fine pass must still catch it
    mesh = unit_square_mesh(1 / 4)
    last = _QUAD_RULES[5][0][-1] @ mesh.vertices[mesh.triangles[-1]]
    good = example2_coefficients()

    def at_last(x, y):
        return (np.abs(x - last[0]) < 1e-12) & (np.abs(y - last[1]) < 1e-12)

    def diffusion(x, y):
        d = good.diffusion(x, y)
        if broken in ("finite", "definite"):
            d[at_last(x, y), 1, 1] = np.inf if broken == "finite" else -1.0
        return d

    coeffs = CoefficientSet(
        diffusion=diffusion,
        reaction=lambda x, y: np.where(at_last(x, y) & (broken == "reaction"), -1.0,
                                       good.reaction(x, y)),
        weight=lambda x, y: np.where(at_last(x, y) & (broken == "weight"), 0.0,
                                     good.weight(x, y)))
    with pytest.raises(AssemblyError) as info:
        assemble_forms(mesh, coeffs, quad_order=5)
    assert str(info.value) == "{} at quadrature point ({:.6g}, {:.6g})".format(message, *last)


@pytest.mark.parametrize("make_coeffs, quad_order",
                         [(laplace_coefficients, 2), (example2_coefficients, 5)])
def test_assembly_memory_peak(make_coeffs, quad_order):
    # the element temporaries are gone before the scatter, and stiffness and
    # mass are filled onto one pattern
    mesh = unit_square_mesh(1 / 128)
    coeffs = make_coeffs()
    tracemalloc.start()
    try:
        assemble_forms(mesh, coeffs, quad_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


@pytest.mark.parametrize("make_coeffs, quad_order",
                         [(laplace_coefficients, 2), (example2_coefficients, 5)])
def test_finest_assembly_memory_peak(make_coeffs, quad_order):
    # 131,072 triangles: the element entries are summed block by block, so no
    # (T, 3) array of the whole mesh lives, and the pattern is built from int32 slots
    mesh = unit_square_mesh(1 / 256)
    coeffs = make_coeffs()
    tracemalloc.start()
    try:
        assemble_forms(mesh, coeffs, quad_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2 ** 20


@pytest.mark.parametrize("make_coeffs, quad_order",
                         [(laplace_coefficients, 2), (example2_coefficients, 5)])
def test_matrices_own_exactly_their_entries(make_coeffs, quad_order):
    # the stiffness drops the zeros of the criss-cross diagonals in place and
    # then keeps copies of its nnz entries, not views of the mass-sized buffers
    for mesh in (unit_square_mesh(1 / 16), renumbered_square(9, 3, jitter=0.1)):
        forms = assemble_forms(mesh, make_coeffs(), quad_order)
        for matrix in (forms.stiffness, forms.mass):
            for array in (matrix.data, matrix.indices):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                assert array.size == matrix.nnz


def whole_mesh_entries(mesh, coeffs, quad_order):
    """The element entries of the whole mesh, stiffness and mass each as one
    (2, T, 3) array of contiguous vertex and edge halves."""
    blocks = list(_element_entries(mesh, coeffs, quad_order))
    return [np.concatenate([entries[i] for entries in blocks], axis=1) for i in (1, 2)]


def sorted_pencil(mesh, coeffs, quad_order, keep):
    """Stiffness and mass built by a stable sort of every entry's row, from
    concatenated lower, diagonal and upper entries, each a sum of one
    `np.bincount` over the whole mesh: the oracle of the slots and of the
    blockwise sums."""
    k_entries, m_entries = whole_mesh_entries(mesh, coeffs, quad_order)
    edges = mesh.edge_vertices
    inner = keep[edges[:, 0]] & keep[edges[:, 1]]
    lo, hi = (np.cumsum(keep) - 1)[edges[inner].T]
    n = int(keep.sum())
    rows = np.concatenate([hi, np.arange(n), lo])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([lo, np.arange(n), hi])[order].astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(np.int32)
    matrices = []
    for vertex_entries, edge_entries in (k_entries, m_entries):
        vertex = np.bincount(mesh.triangles.ravel(), vertex_entries.ravel(), len(keep))[keep]
        edge = np.bincount(mesh.triangle_edges.ravel(), edge_entries.ravel(),
                           len(edges))[inner]
        data = np.concatenate([edge, vertex, edge])[order]
        matrices.append(sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n)))
    matrices[0].eliminate_zeros()
    return matrices


@settings(max_examples=25, deadline=None)
@given(st.builds(renumbered_square, st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
                 st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
       st.sampled_from([(laplace_coefficients, 2), (example2_coefficients, 5)]),
       st.booleans(), st.sampled_from([1, 7, 16384]))
def test_slot_pattern_matches_sorted_construction(mesh, case, free_only, block):
    # every pattern array and every data bit, with and without the boundary rows;
    # np.add.at per block of `block` triangles adds each vertex's and edge's
    # terms in the order of the oracle's one bincount over the whole mesh
    make_coeffs, quad_order = case
    keep = ~mesh.boundary if free_only else np.ones(mesh.num_vertices, dtype=bool)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newteig.assemble, "ELEMENT_BLOCK", block)
        got = _assemble_pencil(mesh, make_coeffs(), quad_order, keep)
    for matrix, expected in zip(got, sorted_pencil(mesh, make_coeffs(), quad_order, keep)):
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert matrix.indices.dtype == np.int32
        assert np.array_equal(matrix.indices, expected.indices)
        assert matrix.data.tobytes() == expected.data.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.builds(renumbered_square, st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
                 st.floats(0.0, 0.2)),
       st.sampled_from([(laplace_coefficients, 2), (example2_coefficients, 5)]))
def test_element_blocks_leave_every_bit(mesh, case):
    # each triangle's arithmetic is blockwise; the scatter and the sums see whole arrays
    make_coeffs, quad_order = case
    results = []
    for block in (1, 7, newteig.assemble.ELEMENT_BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(newteig.assemble, "ELEMENT_BLOCK", block)
            forms = assemble_forms(mesh, make_coeffs(), quad_order)
            x = np.random.default_rng(mesh.num_triangles).standard_normal(forms.n_free)
            energy = energy_error_vs_exact(forms, mesh, x, first_mode, first_mode_grad)
        results.append((forms.stiffness, forms.mass, energy))
    for stiffness, mass, energy in results[:2]:
        for matrix, expected in ((stiffness, results[-1][0]), (mass, results[-1][1])):
            assert np.array_equal(matrix.indptr, expected.indptr)
            assert np.array_equal(matrix.indices, expected.indices)
            assert np.array_equal(matrix.data, expected.data)
        assert energy == results[-1][2]


def test_energy_error_memory_peak():
    # the integrand is built block by block; no (T, 3) array of the whole mesh lives
    mesh = build_hierarchy(unit_square_mesh(1 / 8), 6).levels[-1]      # 131,072 triangles
    forms = assemble_forms(mesh, laplace_coefficients())
    x = np.random.default_rng(0).standard_normal(forms.n_free)
    tracemalloc.start()
    try:
        energy_error_vs_exact(forms, mesh, x, first_mode, first_mode_grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_rayleigh_quotient_of_eigenvector():
    forms = assemble_forms(unit_square_mesh(1 / 6), laplace_coefficients())
    values, vectors = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray())
    for i in (0, 3):
        assert_allclose(rayleigh_quotient(forms, vectors[:, i]), values[i], rtol=1e-12)


def test_rayleigh_quotient_scale_invariant():
    forms = assemble_forms(unit_square_mesh(1 / 4), laplace_coefficients())
    rng = np.random.default_rng(5)
    x = rng.standard_normal(forms.n_free)
    base = rayleigh_quotient(forms, x)
    for c in (-1.0, 1e-6, 1e3):
        assert_allclose(rayleigh_quotient(forms, c * x), base, rtol=1e-12)


def test_rayleigh_quotient_rejects_zero():
    forms = assemble_forms(unit_square_mesh(1 / 2), laplace_coefficients())
    with pytest.raises(ValueError):
        rayleigh_quotient(forms, np.zeros(forms.n_free))


def test_rayleigh_quotient_of_interpolated_mode():
    mesh = unit_square_mesh(1 / 64)
    forms = assemble_forms(mesh, laplace_coefficients())
    x = interpolate(first_mode, mesh)
    assert abs(rayleigh_quotient(forms, x) - EXACT_FIRST) <= 0.01 * EXACT_FIRST


def test_norms_identities():
    forms = assemble_forms(unit_square_mesh(1 / 4), laplace_coefficients())
    rng = np.random.default_rng(11)
    x = rng.standard_normal(forms.n_free)
    x /= b_norm(forms, x)
    assert abs(b_norm(forms, x) - 1.0) <= 1e-10
    assert_allclose(a_norm(forms, x) ** 2 / b_norm(forms, x) ** 2,
                    rayleigh_quotient(forms, x), rtol=1e-12)
    basis = np.zeros(forms.n_free)
    basis[2] = 1.0
    assert_allclose(a_norm(forms, basis),
                    math.sqrt(forms.stiffness.diagonal()[2]), rtol=1e-14)


def test_norms_copy_no_matrix():
    # the scale of the semidefiniteness check reads the data array in place
    forms = assemble_forms(unit_square_mesh(1 / 128), laplace_coefficients())
    x = np.random.default_rng(2).standard_normal(forms.n_free)
    for norm, matrix in ((b_norm, forms.mass), (a_norm, forms.stiffness)):
        tracemalloc.start()
        try:
            norm(forms, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.data.nbytes / 2


def test_norm_rejects_indefinite_form():
    forms = assemble_forms(unit_square_mesh(1 / 4), laplace_coefficients())
    negated = AssembledForms(stiffness=-forms.stiffness, mass=forms.mass,
                             free_to_full=forms.free_to_full, n_free=forms.n_free)
    with pytest.raises(ArithmeticError, match="negative stiffness quadratic form"):
        a_norm(negated, np.ones(forms.n_free))


def test_interpolate_zero_and_affine_commute():
    mesh = unit_square_mesh(1 / 3)
    assert_allclose(interpolate(lambda x, y: np.zeros_like(x), mesh), 0.0)
    fine, prolong = refine_regular(mesh)
    f = lambda x, y: 1.5 * x - 0.25 * y + 0.75
    # prolongating the full nodal interpolant reproduces the fine interpolant,
    # and its free-DOF restriction is exactly interpolate() on the fine mesh
    prolonged = prolong @ f(mesh.vertices[:, 0], mesh.vertices[:, 1])
    fine_free = np.flatnonzero(~fine.boundary)
    assert_allclose(prolonged[fine_free], interpolate(f, fine), atol=1e-13)


def test_interpolated_mode_near_unit_b_norm():
    # the mode is b-normalized analytically; discretization error is O(h^2)
    mesh = unit_square_mesh(1 / 16)
    forms = assemble_forms(mesh, laplace_coefficients())
    assert abs(b_norm(forms, interpolate(first_mode, mesh)) - 1.0) <= 0.02


def test_interpolate_rejects_non_finite():
    mesh = unit_square_mesh(1 / 2)
    bad = lambda x, y: np.where(np.abs(x - 0.5) < 1e-9, np.inf, x)
    with pytest.raises(ValueError, match="vertex"):
        interpolate(bad, mesh)


def test_energy_error_of_interpolant_halves_per_level():
    coeffs = laplace_coefficients()
    errors = []
    mesh = unit_square_mesh(1 / 8)
    for _ in range(2):
        forms = assemble_forms(mesh, coeffs)
        x = interpolate(first_mode, mesh)
        x = x / b_norm(forms, x)
        errors.append(energy_error_vs_exact(forms, mesh, x, first_mode, first_mode_grad))
        mesh, _ = refine_regular(mesh)
    ratio = errors[0] / errors[1]
    assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15


def test_energy_error_rejects_zero_reference():
    mesh = unit_square_mesh(1 / 4)
    forms = assemble_forms(mesh, laplace_coefficients())
    x = interpolate(first_mode, mesh)
    zero = lambda x_, y_: np.zeros_like(x_)
    zero_grad = lambda x_, y_: np.zeros(np.shape(x_) + (2,))
    with pytest.raises(ValueError, match="b-normaliz"):
        energy_error_vs_exact(forms, mesh, x, zero, zero_grad)


def test_energy_error_sign_aligned():
    mesh = unit_square_mesh(1 / 8)
    forms = assemble_forms(mesh, laplace_coefficients())
    x = interpolate(first_mode, mesh)
    x = x / b_norm(forms, x)
    plus = energy_error_vs_exact(forms, mesh, x, first_mode, first_mode_grad)
    minus = energy_error_vs_exact(forms, mesh, -x, first_mode, first_mode_grad)
    assert_allclose(plus, minus, rtol=1e-13)
