import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import sparse as sp
from scipy.optimize import brentq

from newteig.assemble import (CoefficientSet, assemble_forms, example2_coefficients,
                              free_prolongation, interpolate, laplace_coefficients,
                              rayleigh_quotient)
import newteig.linalg
from newteig.linalg import (JACOBI_L1_CAP, JACOBI_WEIGHT, BorderedMatrix, SolverError, VCycle,
                            _transpose_product, block_preconditioner, dense_gen_eig, pencil_eigs,
                            solve_bordered)
from newteig.mesh import refine_regular, unit_square_mesh

from meshgen import renumbered_square
from oracle import assembled, lu_solve_bordered


def random_spd(n, rng, shift=0.0):
    m = rng.standard_normal((n, n))
    return m @ m.T + (n + shift) * np.eye(n)


def test_bordered_tiny_hand_solved():
    matrix = BorderedMatrix(sp.identity(2, format="csr"),
                            np.array([[1.0], [0.0]]))
    w, g = solve_bordered(matrix, rhs_top=np.zeros(2), rhs_bottom=np.array([1.0]))
    assert_allclose(w, [1.0, 0.0], atol=1e-14)
    assert_allclose(g, [1.0], atol=1e-14)


def test_bordered_zero_rhs():
    rng = np.random.default_rng(0)
    core = sp.csr_matrix(random_spd(6, rng))
    matrix = BorderedMatrix(core, rng.standard_normal((6, 2)))
    w, g = solve_bordered(matrix, np.zeros(6), np.zeros(2))
    assert_allclose(w, 0.0)
    assert_allclose(g, 0.0)


def test_bordered_matches_dense_oracle():
    rng = np.random.default_rng(1)
    n = 20
    core = random_spd(n, rng)
    border = rng.standard_normal((n, 1))
    rhs_top = rng.standard_normal(n)
    rhs_bottom = rng.standard_normal(1)
    w, g = solve_bordered(BorderedMatrix(sp.csr_matrix(core), border),
                          rhs_top, rhs_bottom)
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = core
    dense[:n, n:] = -border
    dense[n:, :n] = -border.T
    z = np.linalg.solve(dense, np.concatenate([rhs_top, -rhs_bottom]))
    assert_allclose(np.concatenate([w, g]), z, atol=1e-10)


def test_bordered_randomized_against_dense():
    # a core minus a shifted mass, as the Newton step applies it
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 51))
        m = int(rng.integers(1, 5))
        core, mass = random_spd(n, rng), random_spd(n, rng) / n
        shift = rng.uniform(0, 1)
        border = rng.standard_normal((n, m))
        rhs_top = rng.standard_normal(n)
        rhs_bottom = rng.standard_normal(m)
        w, g = lu_solve_bordered(BorderedMatrix(sp.csr_matrix(core), border,
                                                sp.csr_matrix(mass), shift),
                                 rhs_top, rhs_bottom)
        dense = np.block([[core - shift * mass, -border], [-border.T, np.zeros((m, m))]])
        z = np.linalg.solve(dense, np.concatenate([rhs_top, -rhs_bottom]))
        scale = max(1.0, float(np.abs(z).max()))
        assert np.abs(np.concatenate([w, g]) - z).max() <= 1e-10 * scale


def test_bordered_rejects_zero_border_column():
    with pytest.raises(ValueError, match="nonzero"):
        BorderedMatrix(sp.identity(3, format="csr"), np.zeros((3, 1)))


def test_bordered_reports_singular_system():
    # zero core with a single border column leaves the second row of the
    # assembled 3x3 system identically zero
    core = sp.csr_matrix((2, 2))
    matrix = BorderedMatrix(core, np.array([[1.0], [0.0]]))
    with pytest.raises(SolverError):
        solve_bordered(matrix, np.array([0.0, 1.0]), np.array([0.0]))


def test_bordered_unreachable_tolerance_names_both_causes():
    rng = np.random.default_rng(5)
    core = sp.csr_matrix(random_spd(30, rng))
    matrix = BorderedMatrix(core, rng.standard_normal((30, 1)))
    with pytest.raises(SolverError, match="double precision") as info:
        solve_bordered(matrix, rng.standard_normal(30), np.ones(1), tol=1e-30)
    assert "coarse mesh" in str(info.value)


def test_minres_iteration_cap_raises_with_count(monkeypatch):
    import newteig.linalg

    forms, matrix = _shifted_pencil(unit_square_mesh(1 / 8))
    rhs_top = np.random.default_rng(7).standard_normal(forms.n_free)
    stats = {}
    lu_solve_bordered(matrix, rhs_top, np.ones(1), tol=1e-10, stats=stats)
    assert stats["iterations"] == 0 and stats["residual"] <= 1e-10
    monkeypatch.setattr(newteig.linalg, "MINRES_MAX_ITERATIONS", 3)
    with pytest.raises(SolverError, match="after 3 MINRES iterations") as info:
        solve_bordered(matrix, rhs_top, np.ones(1), preconditioner=lambda z: z)
    assert info.value.iterations == 3
    assert info.value.residual > 1e-10 * np.linalg.norm(np.append(rhs_top, 1.0))


def _shifted_pencil(mesh):
    """Newton-step-shaped bordered system on `mesh`: the stiffness shifted by
    the mass times the Rayleigh quotient of the interpolated first mode,
    bordered by its mass."""
    forms = assemble_forms(mesh, laplace_coefficients())
    u0 = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh)
    mu = rayleigh_quotient(forms, u0)
    return forms, BorderedMatrix(forms.stiffness, forms.mass @ u0, forms.mass, mu)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_preconditioned_solve_matches_dense(cells, seed):
    # the coarse mesh gets an exact cycle, its refinement a two-level one
    coarse = renumbered_square(cells, seed, jitter=0.15)
    fine = refine_regular(coarse)
    rng = np.random.default_rng(seed)
    coarse_forms = None
    for mesh in (coarse, fine):
        if mesh.boundary.all():          # one cell per side: no free DOF
            continue
        forms, matrix = _shifted_pencil(mesh)
        if coarse_forms is None:
            cycle = VCycle(forms.stiffness)
        else:
            cycle = VCycle(forms.stiffness,
                           free_prolongation(coarse, fine),
                           VCycle(coarse_forms.stiffness))
        coarse_forms = forms
        n = forms.n_free
        rhs_top = rng.standard_normal(n)
        stats = {}
        # MINRES stops at its gate, and the multiplier's error can exceed the
        # residual by the conditioning of the shifted core (1.5x at 1e-10 for
        # 12 cells, seed 4888), so the gate sits two orders below the assertion
        w, g = solve_bordered(matrix, rhs_top, np.ones(1), tol=1e-12,
                              preconditioner=block_preconditioner(cycle, matrix.border),
                              stats=stats)
        core = forms.stiffness.toarray() - matrix.shift * forms.mass.toarray()
        dense = np.block([[core, -matrix.border], [-matrix.border.T, np.zeros((1, 1))]])
        z = np.linalg.solve(dense, np.concatenate([rhs_top, -np.ones(1)]))
        scale = max(1.0, float(np.abs(z).max()))
        assert np.abs(np.concatenate([w, g]) - z).max() <= 1e-10 * scale
        assert 1 <= stats["iterations"] <= 40 and stats["residual"] <= 1e-10


def test_one_pass_solve_makes_one_residual_product(monkeypatch):
    # MINRES keeps its residual by a recurrence: an iterate whose first
    # recurrence check meets the gate costs one explicit product on top of
    # the one product per iteration
    rng = np.random.default_rng(3)
    matrix = BorderedMatrix(sp.csr_matrix(random_spd(6, rng)), rng.standard_normal((6, 2)))
    rhs_top, rhs_bottom = rng.standard_normal(6), rng.standard_normal(2)
    exact = np.linalg.solve(assembled(matrix).toarray(), np.concatenate([rhs_top, -rhs_bottom]))

    products = []
    apply = BorderedMatrix.apply
    monkeypatch.setattr(BorderedMatrix, "apply",
                        lambda self, z: products.append(None) or apply(self, z))
    stats = {}
    w, g = solve_bordered(matrix, rhs_top, rhs_bottom, preconditioner=lambda z: z, stats=stats)
    assert stats["iterations"] >= 1 and stats["residual"] <= 1e-8
    assert len(products) == stats["iterations"] + 1
    assert_allclose(np.concatenate([w, g]), exact, rtol=0, atol=1e-6 * np.abs(exact).max())


@pytest.mark.parametrize("m", range(1, 7))
def test_transpose_product_sums_in_matmul_order(m):
    # scipy's BLAS computes the border's products by the routine numpy's
    # matmul picks (dot, gemv or gemm), so both give the same bits; at 1500
    # rows OpenBLAS runs none of them threaded
    rng = np.random.default_rng(m)
    border = rng.standard_normal((1500, m))
    vector = rng.standard_normal(1500)
    columns = np.column_stack([rng.standard_normal(1500) for _ in range(m)])
    assert _transpose_product(border, vector).tobytes() == (border.T @ vector).tobytes()
    assert _transpose_product(border, columns).tobytes() == (border.T @ columns).tobytes()


def test_minres_stops_at_the_first_iterate_that_meets_the_gate(monkeypatch):
    # the residual recurrence is exact up to rounding: MINRES stops at the
    # first iteration whose verified residual meets the gate, found here by
    # capping the iterations, verifies no iterate before it, and its last
    # recurrence residual is the verified one
    rng = np.random.default_rng(11)
    for _ in range(5):
        raw = rng.standard_normal((30, 30))
        core = raw @ raw.T + (0.5 - rng.uniform(0.0, 2.0)) * np.eye(30)
        matrix = BorderedMatrix(sp.csr_matrix(core), rng.standard_normal((30, 2)))
        rhs_top, rhs_bottom = rng.standard_normal(30), rng.standard_normal(2)
        weights = 10.0 ** rng.uniform(-2.0, 2.0, 32)
        solve = lambda: solve_bordered(matrix, rhs_top, rhs_bottom,
                                       preconditioner=lambda z: weights * z, stats=stats)
        stats, first = {}, None
        with monkeypatch.context() as patch:
            for cap in range(1, 200):
                patch.setattr(newteig.linalg, "MINRES_MAX_ITERATIONS", cap)
                try:
                    solve()
                except SolverError:
                    continue
                first = cap
                break
        products, residuals = [], []
        apply, gated_norm = BorderedMatrix.apply, newteig.linalg._gated_norm
        with monkeypatch.context() as patch:
            patch.setattr(BorderedMatrix, "apply",
                          lambda self, z: products.append(None) or apply(self, z))
            patch.setattr(newteig.linalg, "_gated_norm",
                          lambda r, n: residuals.append(r.copy()) or gated_norm(r, n))
            solve()
        assert stats["iterations"] == first and len(products) == first + 1
        # the last recurrence residual b - A x against the verified A x - b
        # (gaps of 1e-4 to 7e-3 of it measured; a wrong sign gives 2)
        gap = np.linalg.norm(residuals[-2] + residuals[-1])
        assert gap <= 0.1 * np.linalg.norm(residuals[-1])


@settings(max_examples=25, deadline=None)
@given(st.builds(renumbered_square, st.integers(2, 10), st.integers(0, 2 ** 32 - 1),
                 st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
       st.sampled_from([laplace_coefficients, example2_coefficients]))
def test_smoother_weights_match_the_absolute_row_sums(coarse, make_coeffs):
    # the row sums of |K| come from K's data, without an absolute copy of K
    fine = refine_regular(coarse)
    coarse_forms, forms = (assemble_forms(mesh, make_coeffs())
                           for mesh in (coarse, fine))
    stiffness = forms.stiffness
    cycle = VCycle(stiffness, free_prolongation(coarse, fine),
                   VCycle(coarse_forms.stiffness))
    l1 = np.asarray(abs(stiffness).sum(axis=1)).ravel()
    expected = np.minimum(JACOBI_WEIGHT / stiffness.diagonal(), JACOBI_L1_CAP / l1)
    assert cycle._weights.tobytes() == expected.tobytes()


def test_vcycle_restricts_through_a_view_of_the_prolongation():
    coarse = unit_square_mesh(1 / 4)
    fine = refine_regular(coarse)
    coarse_forms, forms = (assemble_forms(mesh, laplace_coefficients()) for mesh in (coarse, fine))
    prolong = free_prolongation(coarse, fine)
    cycle = VCycle(forms.stiffness, prolong, VCycle(coarse_forms.stiffness))
    assert cycle._restrict.format == "csc"
    for array in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(cycle._restrict, array), getattr(prolong, array))


def _anisotropic(a12):
    def diffusion(x, y):
        return np.ones_like(x), np.full_like(x, a12), np.ones_like(x)

    return CoefficientSet(diffusion=diffusion, reaction=lambda x, y: np.zeros_like(x),
                          weight=lambda x, y: np.ones_like(x))


@settings(max_examples=40, deadline=None)
@given(st.builds(renumbered_square, st.integers(2, 10), st.integers(0, 2 ** 32 - 1),
                 st.floats(0.0, 0.24)),
       st.floats(-0.8, 0.8))
@example(renumbered_square(8, 4, jitter=0.15), -0.8)
def test_smoother_weights_keep_the_cycle_spd(coarse, a12):
    # damped Jacobi with weights w converges, and the V-cycle stays SPD, when
    # 2 diag(1/w) - K is SPD; 0.8 / k_ii alone fails on distorted anisotropic meshes
    fine = refine_regular(coarse)
    coeffs = _anisotropic(a12)
    coarse_forms, forms = assemble_forms(coarse, coeffs), assemble_forms(fine, coeffs)
    cycle = VCycle(forms.stiffness, free_prolongation(coarse, fine),
                   VCycle(coarse_forms.stiffness))
    margin = np.diag(2.0 / cycle._weights) - forms.stiffness.toarray()
    assert np.linalg.eigvalsh(margin)[0] > 0
    assert (cycle._weights <= 0.8 / forms.stiffness.diagonal()).all()


def test_dense_gen_eig_diagonal():
    values, vectors = dense_gen_eig(np.diag([2.0, 4.0]), np.eye(2))
    assert_allclose(values, [2.0, 4.0], atol=1e-14)
    assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)


def test_dense_gen_eig_identical_pencil():
    rng = np.random.default_rng(2)
    b = random_spd(5, rng)
    values, _ = dense_gen_eig(b, b)
    assert_allclose(values, 1.0, rtol=1e-12)


def test_dense_gen_eig_char_poly_oracle():
    # independent oracle: bracket the sign changes of det(A - t B)
    rng = np.random.default_rng(3)
    n = 5
    a = random_spd(n, rng)
    e = rng.standard_normal((n, n)) * 0.1
    b = np.eye(n) + 0.5 * (e + e.T)          # SPD by construction, eigs >= 1/2
    values, vectors = dense_gen_eig(a, b)

    upper = 2.0 * np.trace(a) / 0.5
    grid = np.linspace(0.0, upper, 20001)
    det = np.array([np.linalg.det(a - t * b) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if det[i] == 0.0:
            roots.append(grid[i])
        elif det[i] * det[i + 1] < 0:
            roots.append(brentq(lambda t: np.linalg.det(a - t * b),
                                grid[i], grid[i + 1], xtol=1e-13, rtol=1e-15))
    assert len(roots) == n
    assert_allclose(values, np.array(roots), rtol=1e-8)
    # contract: b-orthonormal, values non-decreasing
    assert (np.diff(values) >= 0).all()
    assert np.abs(vectors.T @ b @ vectors - np.eye(n)).max() <= 1e-10
    assert np.abs(vectors.T @ a @ vectors - np.diag(values)).max() \
        <= 1e-10 * np.abs(a).max()


def test_dense_gen_eig_leading_subset_matches_full():
    rng = np.random.default_rng(4)
    a = random_spd(12, rng)
    b = random_spd(12, rng)
    values, vectors = dense_gen_eig(a, b)
    for count in (1, 5, 12, 20):
        sub_values, sub_vectors = dense_gen_eig(a, b, count=count)
        k = min(count, 12)
        assert sub_values.shape == (k,) and sub_vectors.shape == (12, k)
        assert_allclose(sub_values, values[:k], rtol=1e-12)
        assert_allclose(np.abs(sub_vectors.T @ b @ vectors[:, :k]), np.eye(k), atol=1e-8)


def test_dense_gen_eig_rejects_indefinite_b():
    with pytest.raises(SolverError, match="positive definite"):
        dense_gen_eig(np.eye(2), np.diag([1.0, -1.0]))


def test_dense_gen_eig_leaves_arguments_unmodified():
    # the symmetrized private copies are what the eigensolver overwrites
    rng = np.random.default_rng(7)
    a, b = random_spd(6, rng), random_spd(6, rng)
    a[0, 1] += 1e-14                          # symmetric only to round-off
    saved = a.copy(), b.copy()
    values, _ = dense_gen_eig(a, b)
    sub_values, _ = dense_gen_eig(a, b, count=2)
    assert np.array_equal(a, saved[0]) and np.array_equal(b, saved[1])
    assert_allclose(sub_values, values[:2], rtol=1e-12)


@pytest.mark.parametrize("which", ["a", "b"])
def test_dense_gen_eig_rejects_non_symmetric(which):
    rng = np.random.default_rng(8)
    pencil = {"a": random_spd(4, rng), "b": random_spd(4, rng)}
    pencil[which][0, 3] += 1e-6 * np.abs(pencil[which]).max()
    with pytest.raises(ValueError, match="matrix {} is not symmetric".format(which)):
        dense_gen_eig(pencil["a"], pencil["b"])


def test_dense_gen_eig_rejects_non_finite():
    b = np.eye(3)
    b[1, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_gen_eig(np.eye(3), b)


@settings(max_examples=40, deadline=None)
@given(st.builds(renumbered_square, st.integers(4, 12), st.integers(0, 2 ** 32 - 1),
                 st.floats(0.0, 0.15)),
       st.sampled_from([laplace_coefficients, example2_coefficients]), st.integers(1, 6))
def test_sparse_pencil_eigs_match_dense(mesh, coefficients, count):
    forms = assemble_forms(mesh, coefficients())
    values, vectors = pencil_eigs(forms.stiffness, forms.mass, count, dense_cutoff=0)
    dense_values, _ = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray(),
                                    count=count)
    assert_allclose(values, dense_values, rtol=1e-10)
    gram = vectors.T @ (forms.mass @ vectors)
    assert np.abs(gram - np.eye(count)).max() <= 1e-10
    again = pencil_eigs(forms.stiffness, forms.mass, count, dense_cutoff=0)
    assert np.array_equal(values, again[0]) and np.array_equal(vectors, again[1])


def test_pencil_eigs_reports_singular_stiffness():
    stiffness = sp.diags([1.0, 0.0, 2.0, 3.0]).tocsr()
    with pytest.raises(SolverError, match="stiffness factorization failed"):
        pencil_eigs(stiffness, sp.identity(4, format="csr"), 1, dense_cutoff=0)


def test_core_positive_on_border_complement():
    # coercivity of A - mu B on the b-orthogonal complement of an accurate iterate
    forms = assemble_forms(unit_square_mesh(1 / 8), laplace_coefficients())
    values, vectors = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray())
    mu = values[0]
    u0 = vectors[:, 0]
    border = forms.mass @ u0
    core = forms.stiffness - mu * forms.mass
    rng = np.random.default_rng(6)
    ritz = []
    for _ in range(50):
        v = rng.standard_normal(forms.n_free)
        v -= border * (border @ v) / (border @ border)
        ritz.append(float(v @ (core @ v)) / float(v @ v))
    assert min(ritz) > 0
