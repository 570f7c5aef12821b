import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import newteig.eigen_newton as en
import newteig.multilevel
from newteig.assemble import (assemble_forms, example2_coefficients,
                              laplace_coefficients, rayleigh_quotient)
from newteig.cli import RunConfig
from newteig.eigen_newton import BasinWarning, ClusterGapWarning, coarse_solve
from newteig.linalg import MINRES_MAX_ITERATIONS, SolverError, dense_gen_eig
from newteig.mesh import build_hierarchy, unit_square_mesh
from newteig.multilevel import MultilevelError, SolveOptions, run_multilevel
from newteig.reference import compare_with_direct, evaluate, exact_laplace

from meshgen import l_shaped_mesh, renumbered_square
from oracle import lu_solve_bordered

EXACT_FIRST = 2 * math.pi ** 2


def solve_and_evaluate(hier, coeffs, m=1, options=None):
    return evaluate(hier, coeffs, run_multilevel(hier, coeffs, m, options))


@pytest.fixture(scope="module")
def laplace_run_n4():
    hier = build_hierarchy(unit_square_mesh(1 / 6), 4)
    return solve_and_evaluate(hier, laplace_coefficients())


def test_package_exports_resolve():
    import newteig

    assert [name for name in newteig.__all__ if not hasattr(newteig, name)] == []


def test_single_level_equals_coarse_solve():
    coarse = unit_square_mesh(1 / 4)
    hier = build_hierarchy(coarse, 1)
    levels = run_multilevel(hier, laplace_coefficients(), 2)
    forms = assemble_forms(coarse, laplace_coefficients())
    direct = coarse_solve(forms, 2)
    assert_allclose(levels[0].eigenvalues, direct.values, rtol=0, atol=0)
    assert len(levels) == 1


def test_laplace_first_eigenvalue_rates(laplace_run_n4):
    record = laplace_run_n4
    errors = [e[0] for e in record.eigenvalue_errors]
    for k in range(3):
        assert 3.0 <= errors[k] / errors[k + 1] <= 5.0
    assert record.observed_orders[0] == pytest.approx(2.0, abs=0.2)


def test_laplace_eigenfunction_energy_rate(laplace_run_n4):
    record = laplace_run_n4
    energies = [e[0] for e in record.energy_errors]
    assert all(e is not None for e in energies)
    assert record.energy_orders[0] == pytest.approx(1.0, abs=0.15)


def test_eigenvalues_non_increasing_across_levels(laplace_run_n4):
    values = [r.eigenvalues[0] for r in laplace_run_n4.levels]
    for k in range(1, len(values) - 1):
        assert values[k + 1] <= values[k] + 1e-9


def test_recorded_value_is_rayleigh_quotient_of_vector(laplace_run_n4):
    for rec in laplace_run_n4.levels:
        rq = rayleigh_quotient(rec.forms, rec.pairs.vectors[:, 0])
        assert abs(rq - rec.eigenvalues[0]) <= 1e-10 * abs(rq)


def test_dimension_ratio_tends_to_four(laplace_run_n4):
    sizes = [r.n_free for r in laplace_run_n4.levels]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    for k in range(1, len(sizes) - 1):
        assert 3.5 <= sizes[k + 1] / sizes[k] <= 4.5


def test_compare_with_direct_single_level():
    hier = build_hierarchy(unit_square_mesh(1 / 4), 1)
    comparison = compare_with_direct(solve_and_evaluate(hier, laplace_coefficients()))
    assert comparison.value_diffs[0][0] == 0.0
    assert comparison.energy_diffs[0][0] == 0.0


def test_compare_with_direct_finest_level_closeness():
    hier = build_hierarchy(unit_square_mesh(1 / 6), 4)
    comparison = compare_with_direct(solve_and_evaluate(hier, laplace_coefficients()))
    direct_err = abs(comparison.direct_values[-1][0] - EXACT_FIRST)
    assert comparison.value_diffs[-1][0] <= 0.05 * direct_err


def test_example2_richardson_reference_and_rates():
    hier = build_hierarchy(unit_square_mesh(1 / 6), 3)
    record = solve_and_evaluate(hier, example2_coefficients(), 2)
    assert np.isfinite(record.reference_values).all()
    # first eigenvalue of this operator is near 23.8 (extrapolated)
    assert 20.0 <= record.reference_values[0] <= 28.0
    for order in record.observed_orders:
        assert order == pytest.approx(2.0, abs=0.4)


def test_errors_propagate_with_level_index(monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("synthetic coarse-solve failure")

    monkeypatch.setattr(newteig.multilevel, "coarse_solve", failing)
    hier = build_hierarchy(unit_square_mesh(1 / 8), 2)
    with pytest.raises(MultilevelError) as info:
        run_multilevel(hier, laplace_coefficients(), 1)
    assert info.value.level == 0
    assert info.value.records == []


def test_eigen_count_above_coarse_space_rejected_before_solving():
    hier = build_hierarchy(unit_square_mesh(1 / 2), 2)    # one free coarse DOF
    with pytest.raises(ValueError, match="1 free DOFs of the coarse mesh, got 2"):
        run_multilevel(hier, laplace_coefficients(), 2)


def test_unstructured_mesh_pipeline():
    # union-jack square: 5 vertices, 4 triangles, interior centre vertex
    from newteig.mesh import Mesh

    coarse = Mesh(vertices=[[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
                  triangles=[[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
                  boundary=[True, True, True, True, False])
    hier = build_hierarchy(coarse, 4)
    record = solve_and_evaluate(hier, laplace_coefficients())
    errors = [e[0] for e in record.eigenvalue_errors]
    assert record.observed_orders[0] == pytest.approx(2.0, abs=0.25)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_multi_eigenvalue_run_records_all_columns():
    hier = build_hierarchy(unit_square_mesh(1 / 6), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        record = solve_and_evaluate(hier, laplace_coefficients(), 6)
    assert record.levels[-1].eigenvalues.shape == (6,)
    assert record.eigenvalue_errors[-1].shape == (6,)
    # energy errors only for the simple modes (2 pi^2 and 8 pi^2)
    present = [e is not None for e in record.energy_errors[-1]]
    assert present == [True, False, False, True, False, False]


def custom_coefficients(**expressions):
    config = RunConfig(problem="custom", **expressions)
    config.validate()
    return config.coefficients()


def run_with_lu_oracle(monkeypatch, hier, coeffs, m):
    """`run_multilevel` with every Newton-step bordered solve done by the
    sparse LU instead of preconditioned MINRES."""
    def direct(matrix, rhs_top, rhs_bottom, tol, preconditioner, stats):
        return lu_solve_bordered(matrix, rhs_top, rhs_bottom, tol=tol, stats=stats)

    with monkeypatch.context() as patch:
        patch.setattr(en, "solve_bordered", direct)
        return run_multilevel(hier, coeffs, m)


def assert_matches_lu_oracle(monkeypatch, hier, coeffs, m):
    levels = run_multilevel(hier, coeffs, m)
    oracle = run_with_lu_oracle(monkeypatch, hier, coeffs, m)
    for rec, ref in zip(levels, oracle):
        assert_allclose(rec.eigenvalues, ref.eigenvalues, rtol=1e-10, atol=0)
    counts = [count for rec in levels[1:] for count in rec.pairs.iterations]
    assert max(counts) < MINRES_MAX_ITERATIONS
    return counts


def test_minres_iterations_flat_in_n():
    # the multigrid preconditioner is optimal: iterations do not grow with N
    # (measured 8-9 for laplace up to 261,121 DOFs, 9-20 for example2)
    laplace = run_multilevel(build_hierarchy(unit_square_mesh(1 / 8), 7),
                             laplace_coefficients(), 1)
    counts = [rec.pairs.iterations[0] for rec in laplace[1:]]
    assert laplace[-1].n_free == 261121
    assert all(8 <= count <= 20 for count in counts), counts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        example2 = run_multilevel(build_hierarchy(unit_square_mesh(1 / 6), 5),
                                  example2_coefficients(), 6)
    counts = [rec.pairs.iterations for rec in example2[1:]]
    assert all(len(row) == 6 and max(row) <= 40 for row in counts), counts


@pytest.mark.parametrize("make_coeffs, h, n_levels, m", [
    (laplace_coefficients, 1 / 8, 5, 1), (example2_coefficients, 1 / 6, 4, 6)])
def test_default_gate_saves_iterations(make_coeffs, h, n_levels, m):
    # MINRES stops at the gate it is given: on every level, each eigenpair
    # takes fewer iterations at the default gate than at 1e-10, and the finest
    # eigenvalues agree to 1e-10 (counts only; no times are asserted)
    hier = build_hierarchy(unit_square_mesh(h), n_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        default = run_multilevel(hier, make_coeffs(), m)
        tight = run_multilevel(hier, make_coeffs(), m, SolveOptions(solver_tol=1e-10))
    assert SolveOptions().solver_tol > 1e-10
    for loose, strict in zip(default[1:], tight[1:]):
        assert all(a < b for a, b in zip(loose.pairs.iterations, strict.pairs.iterations)), (
            loose.pairs.iterations, strict.pairs.iterations)
    assert_allclose(default[-1].eigenvalues, tight[-1].eigenvalues, rtol=1e-10, atol=0)


def test_true_residual_gates_every_solve():
    # Strongly varying, cross-coupled diffusion.  Pair 2's coarse iterate lies
    # outside its basin at this h (its Rayleigh quotient rises on level 4,
    # through the sparse LU too), so its shifted core is strongly indefinite.
    # MINRES stops on its residual recurrence only once an explicit product
    # confirms the gate, so every reported residual is a verified one.
    coeffs = custom_coefficients(
        a11="1 + 50*sin(3*pi*x1)^2*sin(3*pi*x2)^2",
        a22="1 + 50*sin(3*pi*x1)^2*sin(3*pi*x2)^2",
        a12="0.9*sin(pi*x1)", phi="20*exp(3*x2)", rho="1 + 5*x1")
    hier = build_hierarchy(unit_square_mesh(1 / 8), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BasinWarning)
        levels = run_multilevel(hier, coeffs, 2)
    assert levels[-1].n_free == 16129
    options = SolveOptions()
    for rec in levels[1:]:
        assert len(rec.pairs.residuals) == 2
        assert max(rec.pairs.residuals) <= options.solver_tol


def test_anisotropic_steps_match_lu_oracle(monkeypatch):
    # 100:1 anisotropy weakens point smoothing; MINRES needs more
    # iterations (28-46 measured) but must reach the same eigenvalues
    coeffs = custom_coefficients(a22="0.01")
    counts = assert_matches_lu_oracle(
        monkeypatch, build_hierarchy(unit_square_mesh(1 / 8), 5), coeffs, 2)
    assert min(counts) > 20


def test_l_shaped_domain_matches_lu_oracle(monkeypatch):
    # the re-entrant corner makes the eigenfunctions singular, the hard
    # case for multigrid (10-11 iterations measured)
    hier = build_hierarchy(l_shaped_mesh(8), 4)
    assert_matches_lu_oracle(monkeypatch, hier, laplace_coefficients(), 2)


@settings(max_examples=20, deadline=None)
@given(st.builds(renumbered_square, st.integers(4, 6), st.integers(0, 2 ** 32 - 1),
                 st.floats(0.0, 0.2)),
       st.integers(2, 3), st.sampled_from([1, 3]),
       st.sampled_from([laplace_coefficients, example2_coefficients]))
def test_values_bound_the_pencil_from_above(coarse, n_levels, m, make_coeffs):
    # min-max: the i-th Ritz value of any trial space is at least the i-th
    # eigenvalue of the pencil, and for a conforming discretization (the
    # exactly integrated laplace pencil) at least the i-th exact eigenvalue
    coeffs = make_coeffs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        warnings.simplefilter("ignore", BasinWarning)
        levels = run_multilevel(build_hierarchy(coarse, n_levels), coeffs, m)
    exact = np.array([mode.value for mode in exact_laplace(m)])
    for rec in levels:
        pencil, _ = dense_gen_eig(rec.forms.stiffness.toarray(), rec.forms.mass.toarray(),
                                  count=m)
        assert (rec.pairs.values >= pencil * (1 - 1e-12)).all(), rec.level
        if coeffs.preset == "laplace":
            assert (rec.pairs.values >= exact).all(), rec.level
