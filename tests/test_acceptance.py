"""Acceptance suite: one test per acceptance criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 5 checks the quadratic contraction of one Newton
step through three clauses: the error over the sharp bound
|dlambda| ||e||_b + ||e||_b^2 is level-independent within 50%, the error over
||e||_a^2 never exceeds its first-level value, and the contraction factor at
least halves per level.  The plain quadratic ratio is not asserted to be
level-independent: ||e||_b ~ h ||e||_a on convex domains makes it decay about
4x per level.  A companion test shows that two steps which are not Newton
steps fail the criterion.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import sparse as sp

import newteig as nt
from newteig.assemble import b_norm, free_prolongation, interpolate, rayleigh_quotient
from newteig.cli import RunConfig, local_exponent, run_bench
from newteig.eigen_newton import ClusterGapWarning, EigenpairSet
from newteig.linalg import BorderedMatrix, dense_gen_eig
from newteig.reference import direct_solve, exact_laplace

from invariants import rayleigh_expansion_check
from oracle import lu_solve_bordered

EXACT = np.array([e.value for e in exact_laplace(6)])
FIRST = EXACT[0]


def check(num, ok, detail):
    print("[{}] criterion {}: {}".format("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion {}: {}".format(num, detail)


@pytest.fixture(scope="module")
def laplace_hierarchy():
    return nt.build_hierarchy(nt.unit_square_mesh(1 / 6), 4)


def solve_and_evaluate(hierarchy, coeffs, m):
    return nt.evaluate(hierarchy, coeffs, nt.run_multilevel(hierarchy, coeffs, m))


@pytest.fixture(scope="module")
def laplace_compare(laplace_hierarchy):
    t0 = time.perf_counter()
    record = solve_and_evaluate(laplace_hierarchy, nt.laplace_coefficients(), 1)
    comparison = nt.compare_with_direct(record)
    return comparison, time.perf_counter() - t0


@pytest.fixture(scope="module")
def laplace_run_m6(laplace_hierarchy):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        return solve_and_evaluate(laplace_hierarchy, nt.laplace_coefficients(), 6)


@pytest.fixture(scope="module")
def example2_compare(laplace_hierarchy):
    record = solve_and_evaluate(laplace_hierarchy, nt.example2_coefficients(), 6)
    return nt.compare_with_direct(record)


@pytest.fixture(scope="module")
def bench_levels():
    return run_bench(RunConfig(bench_max_levels=6, output="unused"))


def test_criterion_1_laplace_convergence(laplace_compare):
    comparison, wall = laplace_compare
    record = comparison.multilevel
    eigen_order = record.observed_orders[0]
    energy_order = record.energy_orders[0]
    ok = (abs(eigen_order - 2.0) <= 0.2
          and abs(energy_order - 1.0) <= 0.15
          and wall <= 60.0)
    check(1, ok, "eigenvalue order {:.3f} (2.0 +/- 0.2), energy order {:.3f} "
          "(1.0 +/- 0.15), runtime {:.2f}s (<= 60s)".format(
              eigen_order, energy_order, wall))


def test_criterion_2_multilevel_equals_direct(laplace_compare, laplace_hierarchy):
    comparison, _ = laplace_compare
    record = comparison.multilevel
    forms = record.levels[-1].forms

    value_gap = comparison.value_diffs[-1][0]
    direct_error = abs(comparison.direct_values[-1][0] - FIRST)
    vector_gap = comparison.energy_diffs[-1][0]

    mode = exact_laplace(1)[0]
    # ||u_dir - interpolant of the exact eigenfunction||_a on the finest level
    direct = direct_solve(forms, 1)
    u_dir = direct.vectors[:, 0]
    ref = interpolate(mode.eigenfunction, laplace_hierarchy.levels[-1])
    if float(u_dir @ (forms.mass @ ref)) < 0:
        u_dir = -u_dir
    interp_gap = nt.a_norm(forms, u_dir - ref)

    ok = (value_gap <= 0.05 * direct_error and vector_gap <= 0.1 * interp_gap)
    check(2, ok, "|lam_ml - lam_dir| = {:.3e} <= 0.05*{:.3e}; "
          "||u_ml - u_dir||_a = {:.3e} <= 0.1*{:.3e}".format(
              value_gap, direct_error, vector_gap, interp_gap))


def test_criterion_3_six_eigenvalues(laplace_run_m6):
    record = laplace_run_m6
    orders = np.array(record.observed_orders)
    errors = record.eigenvalue_errors[-1]
    values = record.levels[-1].eigenvalues
    pair_ok = (abs(values[1] - values[2]) <= 2 * max(errors[1], errors[2])
               and abs(values[4] - values[5]) <= 2 * max(errors[4], errors[5]))
    orders_ok = np.all(np.abs(orders - 2.0) <= 0.3)
    check(3, bool(orders_ok and pair_ok),
          "orders {} all within 2.0 +/- 0.3; degenerate pairs differ by "
          "{:.2e}/{:.2e} within 2x errors".format(
              np.round(orders, 3).tolist(),
              abs(values[1] - values[2]), abs(values[4] - values[5])))


def test_criterion_4_example2(example2_compare):
    comparison = example2_compare
    record = comparison.multilevel
    orders = np.array(record.observed_orders)
    rel = comparison.value_diffs[-1] / np.abs(comparison.direct_values[-1])
    ok = np.all(np.abs(orders - 2.0) <= 0.3) and rel.max() <= 1e-4
    check(4, bool(ok), "orders vs Richardson references {} (2.0 +/- 0.3); "
          "finest |lam_ml - lam_dir|/lam_dir max {:.2e} (<= 1e-4)".format(
              np.round(orders, 3).tolist(), rel.max()))


def lifted_without_correction(forms_fine, prev, prolong):
    """Not a Newton step: the prolonged iterate with its Rayleigh quotient."""
    vector = prolong @ prev.vectors[:, 0]
    vector = vector / b_norm(forms_fine, vector)
    return EigenpairSet([rayleigh_quotient(forms_fine, vector)], vector[:, None])


def newton_step(forms_fine, prev, prolong):
    """The Newton step for one eigenpair, through the m-pair step."""
    return nt.newton_step_multi(forms_fine, prev, prolong)


def newton_step_perturbed_shift(forms_fine, prev, prolong):
    """Not a Newton step: the bordered solve with its shift mu raised by 1%."""
    shifted = EigenpairSet(1.01 * prev.values, prev.vectors)
    return newton_step(forms_fine, shifted, prolong)


@pytest.fixture(scope="module")
def contraction_references(laplace_hierarchy):
    """Forms on levels 0..3, prolongations onto levels 1..3 and the direct
    eigenpairs on levels 1..3 that criterion 5 measures errors against."""
    coeffs = nt.laplace_coefficients()
    forms = [nt.assemble_forms(m, coeffs) for m in laplace_hierarchy.levels]
    prolongs = [free_prolongation(laplace_hierarchy.prolongations[k - 1],
                                  forms[k - 1], forms[k]) for k in (1, 2, 3)]
    directs = [direct_solve(forms[k], 1, tol=1e-13, dense_cutoff=10 ** 9)
               for k in (1, 2, 3)]
    return forms, prolongs, directs


def measure_contraction(references, step):
    """Run `step` from the coarse eigenpair onto levels 1..3.

    Returns three arrays over the levels, each the new energy error
    e_new = ||ubar - u_new||_a divided by a model of it: the quadratic model
    ||ubar - u_prev||_a^2, the sharp bound |lambda_bar - mu| ||e||_b + ||e||_b^2
    and the previous error ||ubar - u_prev||_a (the contraction factor).
    Here u_prev is the previous level's iterate lifted to the level, mu its
    value and (lambda_bar, ubar) the level's direct eigenpair.
    """
    forms, prolongs, directs = references
    prev = nt.coarse_solve(forms[0], 1)
    quadratic, sharp, factor = [], [], []
    for level_forms, prolong, direct in zip(forms[1:], prolongs, directs):
        new = step(level_forms, prev, prolong)
        ubar = direct.vectors[:, 0]
        lifted = prolong @ prev.vectors[:, 0]
        if float(lifted @ (level_forms.mass @ ubar)) < 0:
            lifted = -lifted
        u_new = new.vectors[:, 0]
        if float(u_new @ (level_forms.mass @ ubar)) < 0:
            u_new = -u_new
        e_prev_a = nt.a_norm(level_forms, ubar - lifted)
        e_prev_b = b_norm(level_forms, ubar - lifted)
        e_new = nt.a_norm(level_forms, ubar - u_new)
        quadratic.append(e_new / e_prev_a ** 2)
        sharp.append(e_new / (abs(direct.values[0] - prev.values[0]) * e_prev_b
                              + e_prev_b ** 2))
        factor.append(e_new / e_prev_a)
        prev = new
    return np.array(quadratic), np.array(sharp), np.array(factor)


def contraction_clauses(quadratic, sharp, factor):
    """Clauses (a), (b), (c) of criterion 5, and the spread that (a) bounds."""
    spread = float(np.abs(sharp - sharp.mean()).max() / sharp.mean())
    finite = bool(np.isfinite(np.concatenate([quadratic, sharp, factor])).all())
    clauses = {
        "a": finite and spread <= 0.5,
        "b": finite and bool((quadratic[1:] <= quadratic[0]).all()),
        "c": finite and bool((factor[1:] <= 0.5 * factor[:-1]).all()),
    }
    return clauses, spread


def sci(values):
    return ", ".join("{:.3e}".format(v) for v in values)


def test_criterion_5_quadratic_contraction(contraction_references):
    # One Newton step per level contracts the energy error quadratically:
    # e_new <= C (|lambda_bar - mu| ||e||_b + ||e||_b^2) <= C' ||e||_a^2 with
    # e = ubar - u_prev.  On this convex domain ||e||_b ~ h ||e||_a, so the
    # middle bound is O(h^4) while ||e||_a^2 is only O(h^2): the quadratic
    # bound holds with a level-independent constant but is not attained, and
    # e_new / ||e||_a^2 decays about 4x per level.  Asserted:
    # (a) e_new over the sharp bound stays within +/- 50% of its mean over the
    #     three levels (the level-independent form of the bound);
    # (b) e_new / ||e||_a^2 never exceeds its first-level value (the quadratic
    #     bound holds with a level-independent constant);
    # (c) the contraction factor e_new / ||e||_a at least halves per level,
    #     as quadratic convergence with ||e||_a ~ h requires.
    quadratic, sharp, factor = measure_contraction(contraction_references, newton_step)
    clauses, spread = contraction_clauses(quadratic, sharp, factor)
    for k, row in enumerate(zip(quadratic, sharp, factor), start=1):
        print("  level {}: e_new/||e||_a^2 = {:.3e}, e_new/(|dlam| ||e||_b + "
              "||e||_b^2) = {:.3f}, e_new/||e||_a = {:.3e}".format(k, *row))
    check(5, all(clauses.values()),
          "(a) sharp-bound ratios {} vary {:.0%} of their mean (<= 50%): {}; "
          "(b) quadratic ratios {} <= first: {}; (c) contraction factors {} "
          "at least halve per level: {}".format(
              ", ".join("{:.3f}".format(r) for r in sharp), spread, clauses["a"],
              sci(quadratic), clauses["b"], sci(factor), clauses["c"]))


def test_criterion_5_rejects_non_newton_steps(contraction_references):
    # Criterion 5 must be able to fail.  Without a correction the error does
    # not contract at all (factor 1 on every level), so (c) rejects it; with
    # the shift off by 1% the step loses its quadratic term and the ratio to
    # the sharp bound grows with each level, so (a) rejects it.
    for step, clause in ((lifted_without_correction, "c"),
                         (newton_step_perturbed_shift, "a")):
        quadratic, sharp, factor = measure_contraction(contraction_references, step)
        clauses, spread = contraction_clauses(quadratic, sharp, factor)
        print("  {}: quadratic {}; sharp {} (spread {:.0%}); factor {}; "
              "clauses {}".format(step.__name__, sci(quadratic), sci(sharp),
                                  spread, sci(factor), clauses))
        assert not clauses[clause], step.__name__


def test_criterion_6_rayleigh_expansion_identity():
    forms = nt.assemble_forms(nt.unit_square_mesh(1 / 8), nt.laplace_coefficients())
    exact_pair = nt.coarse_solve(forms, 1)
    value, vector = exact_pair.values[0], exact_pair.vectors[:, 0]
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        psi = vector + 1e-3 * rng.standard_normal(forms.n_free)
        worst = max(worst, rayleigh_expansion_check(forms, psi, value, vector))
    bound = 1e-10 * abs(value)
    check(6, worst <= bound,
          "max expansion residual {:.3e} over 100 perturbations (<= {:.3e})".format(
              worst, bound))


def test_criterion_7_min_max_lower_bound(laplace_compare, laplace_run_m6):
    comparison, _ = laplace_compare
    worst = np.inf
    for record, m in ((comparison.multilevel, 1), (laplace_run_m6, 6)):
        for level in record.levels:
            worst = min(worst, (level.eigenvalues - EXACT[:m]).min())
    for values in comparison.direct_values:
        worst = min(worst, values[0] - FIRST)
    # a direct solve on an independent mesh, sparse path
    forms = nt.assemble_forms(nt.unit_square_mesh(1 / 20), nt.laplace_coefficients())
    pairs = direct_solve(forms, 6)
    worst = min(worst, (pairs.values - EXACT).min())
    check(7, worst >= -1e-9,
          "smallest (computed - exact) over all runs = {:.3e} (>= -1e-9)".format(worst))


def test_criterion_8_oracle_equivalence():
    rel_worst = 0.0
    for h in (1 / 4, 1 / 8, 1 / 12, 1 / 16, 1 / 17):
        forms = nt.assemble_forms(nt.unit_square_mesh(h), nt.laplace_coefficients())
        assert forms.n_free <= 300
        m = min(6, forms.n_free)
        dense_vals, _ = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray())
        sparse_vals = direct_solve(forms, m, tol=1e-12, dense_cutoff=0).values
        rel_worst = max(rel_worst, float(
            np.abs(sparse_vals - dense_vals[:m]).max() / dense_vals[:m].max()))

    rng = np.random.default_rng(2024)
    bordered_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(1, 5))
        raw = rng.standard_normal((n, n))
        core = raw @ raw.T + 0.5 * np.eye(n) - rng.uniform(0.0, 2.0) * np.eye(n)
        border = rng.standard_normal((n, m))
        rhs_top = rng.standard_normal(n)
        rhs_bottom = rng.standard_normal(m)
        w, g = lu_solve_bordered(BorderedMatrix(sp.csr_matrix(core), border),
                                 rhs_top, rhs_bottom)
        dense = np.block([[core, -border], [-border.T, np.zeros((m, m))]])
        z = np.linalg.solve(dense, np.concatenate([rhs_top, -rhs_bottom]))
        scale = max(1.0, float(np.abs(z).max()))
        bordered_worst = max(bordered_worst,
                             float(np.abs(np.concatenate([w, g]) - z).max() / scale))
    ok = rel_worst <= 1e-9 and bordered_worst <= 1e-10
    check(8, ok, "dense vs sparse eigensolver max rel gap {:.2e} (<= 1e-9); "
          "bordered vs dense solve max gap {:.2e} (<= 1e-10, 50 instances)".format(
              rel_worst, bordered_worst))


def test_criterion_9_work_trend(bench_levels):
    sizes = [rec.n_free for rec in bench_levels]
    ratios = [sizes[k + 1] / sizes[k] for k in range(1, len(sizes) - 1)]
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)
    exponent = local_exponent(bench_levels)
    ok = exponent <= 1.5 and ratios_ok
    check(9, ok, "total-time local exponent over the last two doublings of N {:.3f} "
          "(<= 1.5 asserted; 1.0 is the conditional optimal-solver figure, reported "
          "not asserted); N ratios {} within [3.5, 4.5]".format(
              exponent, [round(r, 3) for r in ratios]))
