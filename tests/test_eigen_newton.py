import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse as sp

import newteig.eigen_newton
import newteig.linalg
from newteig.assemble import (assemble_forms, b_norm, example2_coefficients, free_prolongation,
                              laplace_coefficients, rayleigh_quotient)
from newteig.eigen_newton import (BasinWarning, ClusterGapWarning, EigenpairSet,
                                  canonical_sign, coarse_solve, newton_step_multi)
from newteig.linalg import SolverError, VCycle
from newteig.mesh import build_hierarchy, refine_regular, unit_square_mesh
from newteig.reference import direct_solve, exact_laplace

from invariants import check_eigenpairs, rayleigh_expansion_check

EXACT = [e.value for e in exact_laplace(8)]


def forms_for(h, coeffs=None):
    return assemble_forms(unit_square_mesh(h), coeffs or laplace_coefficients())


def two_level(h):
    coarse = unit_square_mesh(h)
    fine, prolong = refine_regular(coarse)
    coeffs = laplace_coefficients()
    cf = assemble_forms(coarse, coeffs)
    ff = assemble_forms(fine, coeffs)
    return cf, ff, free_prolongation(prolong, cf, ff)


def test_coarse_solve_first_value_bracket():
    pairs = coarse_solve(forms_for(1 / 4), 1)
    assert EXACT[0] <= pairs.values[0] <= EXACT[0] + 10.0


def test_coarse_solve_full_spectrum_on_tiny_mesh():
    forms = forms_for(1 / 4)
    pairs = coarse_solve(forms, forms.n_free)
    assert len(pairs) == forms.n_free


def test_coarse_solve_first_six_order():
    pairs = coarse_solve(forms_for(1 / 8), 6)
    values = pairs.values
    assert (np.diff(values) >= 0).all()
    # O(h^2) upper bias at this mesh size measures at most 17 percent
    for got, want in zip(values, EXACT[:6]):
        assert want - 1e-9 <= got <= want * 1.20


def test_coarse_solve_invariants():
    forms = forms_for(1 / 6)
    pairs = coarse_solve(forms, 4)
    check_eigenpairs(pairs, forms)
    assert pairs.vectors.flags.c_contiguous
    vecs = pairs.vectors
    gram = vecs.T @ (forms.mass @ vecs)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_coarse_solve_rejects_oversized_requests():
    forms = forms_for(1 / 4)
    with pytest.raises(ValueError):
        coarse_solve(forms, forms.n_free + 1)


def test_coarse_solve_takes_any_size():
    # 3,969 free DOFs: the coarse solve and the reference solve agree
    forms = forms_for(1 / 64)
    assert forms.n_free == 3969
    assert_allclose(coarse_solve(forms, 2).values, direct_solve(forms, 2).values,
                    rtol=1e-12, atol=0)


def test_coarse_solve_above_cutoff_stays_sparse(monkeypatch):
    # 2,209 free DOFs: a dense pencil alone would take 2 x 39 MB
    def forbidden(*args, **kwargs):
        raise AssertionError("the coarse solve went dense")

    forms = forms_for(1 / 48)
    for module in (newteig.linalg, newteig.eigen_newton):
        monkeypatch.setattr(module, "dense_gen_eig", forbidden)
    tracemalloc.start()
    try:
        pairs = coarse_solve(forms, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    assert_allclose(pairs.values[0], EXACT[0], rtol=2e-3)


def test_coarse_solve_warns_on_cluster_split():
    # a synthetic pencil with an exactly repeated eigenvalue across the cut
    from newteig.assemble import AssembledForms

    diag = sp.diags([1.0, 2.0, 2.0, 3.0]).tocsr()
    eye = sp.identity(4, format="csr")
    forms = AssembledForms(stiffness=diag, mass=eye, free_to_full=np.arange(4), n_free=4,
                           quad_order=2)
    with pytest.warns(ClusterGapWarning):
        coarse_solve(forms, 2)


def test_newton_fixed_point_single():
    _, ff, _ = two_level(1 / 4)
    pair = direct_solve(ff, 1)
    stepped = newton_step_multi(ff, pair, sp.identity(ff.n_free, format="csr"))
    assert abs(stepped.values[0] - pair.values[0]) <= 1e-9
    assert np.abs(stepped.vectors - pair.vectors).max() <= 1e-9


def test_newton_two_steps_error_decay():
    # H = 1/4 -> 1/8 -> 1/16: errors vs the exact value shrink about 4x per
    # step and the distance to the per-level direct value keeps shrinking
    coeffs = laplace_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 4), 3)
    forms = [assemble_forms(m, coeffs) for m in hier.levels]
    prev = coarse_solve(forms[0], 1)
    gaps = []
    errors = [prev.values[0] - EXACT[0]]
    for k in (1, 2):
        op = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        new = newton_step_multi(forms[k], prev, op)
        direct = direct_solve(forms[k], 1).values[0]
        gaps.append(abs(new.values[0] - direct))
        errors.append(new.values[0] - EXACT[0])
        prev = new
    assert gaps[1] <= gaps[0]
    for k in range(2):
        assert 3.0 <= errors[k] / errors[k + 1] <= 5.0


def test_newton_contraction_constant_bounded():
    # the quadratic-contraction ratio stays bounded by its first-level value
    coeffs = laplace_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 6), 4)
    forms = [assemble_forms(m, coeffs) for m in hier.levels]
    prev = coarse_solve(forms[0], 1)
    constants = []
    for k in (1, 2, 3):
        op = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        new = newton_step_multi(forms[k], prev, op)
        ubar = direct_solve(forms[k], 1).vectors[:, 0]
        lifted = op @ prev.vectors[:, 0]
        if float(lifted @ (forms[k].mass @ ubar)) < 0:
            lifted = -lifted
        u_new = new.vectors[:, 0]
        if float(u_new @ (forms[k].mass @ ubar)) < 0:
            u_new = -u_new
        e_prev = math.sqrt(float((ubar - lifted) @ (forms[k].stiffness @ (ubar - lifted))))
        e_new = math.sqrt(float((ubar - u_new) @ (forms[k].stiffness @ (ubar - u_new))))
        constants.append(e_new / e_prev ** 2)
        prev = new
    assert max(constants) == constants[0]
    assert all(c > 0 for c in constants)


def test_newton_single_invariants():
    cf, ff, op = two_level(1 / 4)
    prev = coarse_solve(cf, 1)
    new = newton_step_multi(ff, prev, op)
    check_eigenpairs(new, ff)
    assert new.values[0] >= EXACT[0] - 1e-9
    assert new.values[0] >= direct_solve(ff, 1).values[0] - 1e-9
    # sign flip of the input leaves the value unchanged
    flipped = EigenpairSet(prev.values, -prev.vectors)
    again = newton_step_multi(ff, flipped, op)
    assert abs(again.values[0] - new.values[0]) <= 1e-12 * new.values[0]


def test_newton_warns_outside_basin():
    cf, ff, op = two_level(1 / 4)
    pairs = coarse_solve(cf, 1)
    # a shift below the reachable fine-space minimum forces the new Rayleigh
    # quotient above the previous value, which must trigger the diagnostic
    wrong = EigenpairSet([15.0], pairs.vectors)
    with pytest.warns(BasinWarning):
        newton_step_multi(ff, wrong, op)


def test_newton_multi_fixed_point():
    _, ff, _ = two_level(1 / 4)
    pairs = direct_solve(ff, 3)
    stepped = newton_step_multi(ff, pairs, sp.identity(ff.n_free, format="csr"))
    assert_allclose(stepped.values, pairs.values, rtol=0, atol=1e-9)


def test_newton_multi_degenerate_pair_consistency():
    coeffs = laplace_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 6), 3)
    forms = [assemble_forms(m, coeffs) for m in hier.levels]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        pairs = coarse_solve(forms[0], 6)
    for k in (1, 2):
        op = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        pairs = newton_step_multi(forms[k], pairs, op)
    direct = direct_solve(forms[-1], 6)
    errors = np.abs(pairs.values - np.array(EXACT[:6]))
    # the 5 pi^2 (and 10 pi^2) approximations agree within twice their own
    # error; the structured one-diagonal mesh splits the continuous pair by
    # O(h^2), so exact degeneracy is not available to assert
    values = pairs.values
    assert abs(values[1] - values[2]) <= 2 * max(errors[1], errors[2])
    assert abs(values[4] - values[5]) <= 2 * max(errors[4], errors[5])
    rel = np.abs(pairs.values - direct.values) / direct.values
    assert rel.max() <= 1e-5    # measured 4e-7 at this depth


def test_newton_multi_invariants():
    cf, ff, op = two_level(1 / 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterGapWarning)
        prev = coarse_solve(cf, 5)
    new = newton_step_multi(ff, prev, op)
    vecs = new.vectors
    gram = vecs.T @ (ff.mass @ vecs)
    assert np.abs(gram - np.eye(5)).max() <= 1e-8
    check_eigenpairs(new, ff)
    assert (new.values >= np.array(EXACT[:5]) - 1e-9).all()
    # sign flips of the inputs leave every value unchanged
    flipped = EigenpairSet(prev.values, -prev.vectors)
    again = newton_step_multi(ff, flipped, op)
    assert np.abs(again.values - new.values).max() <= 1e-12 * new.values.max()


def test_newton_multi_rejects_rank_deficient_span(monkeypatch):
    import newteig.eigen_newton as en

    cf, ff, op = two_level(1 / 4)
    prev = coarse_solve(cf, 2)
    basis = op @ prev.vectors
    mass_basis = ff.mass @ basis
    shared = np.ones(ff.n_free)
    for _ in range(2):                             # b-orthogonal to the basis
        shared -= basis @ (mass_basis.T @ shared)

    def collapse(matrix, rhs_top, rhs_bottom, tol=1e-10, preconditioner=None, stats=None):
        # satisfies the constraint rows but spans a 1D-dominated space
        i = int(np.argmax(rhs_bottom))
        return 1e7 * shared + basis[:, i], np.zeros(matrix.m)

    monkeypatch.setattr(en, "solve_bordered", collapse)
    with pytest.raises(SolverError, match="rank deficient"):
        newton_step_multi(ff, prev, op)


def test_finest_newton_step_memory_peak():
    # example2, m = 3, 16,129 finest DOFs: each bordered operator applies the
    # stiffness and the mass as they are, so no shifted core is built (2.97 MiB;
    # 3.93 with one core array on the mass pattern)
    coeffs = example2_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 16), 4)
    forms = [assemble_forms(mesh, coeffs, 5) for mesh in hier.levels]
    pairs, cycle = coarse_solve(forms[0], 3), VCycle(forms[0].stiffness)
    for k in range(1, 4):
        prolong = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        cycle = VCycle(forms[k].stiffness, prolong, cycle)
        if k < 3:
            pairs = newton_step_multi(forms[k], pairs, prolong, cycle=cycle)
    tracemalloc.start()
    try:
        newton_step_multi(forms[3], pairs, prolong, cycle=cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms[3].n_free == 16129
    assert peak <= 3.5 * 2 ** 20


def test_rayleigh_expansion_identity():
    forms = forms_for(1 / 8)
    exact = coarse_solve(forms, 1)
    value, vector = exact.values[0], exact.vectors[:, 0]
    assert rayleigh_expansion_check(forms, vector, value, vector) <= 1e-12

    rng = np.random.default_rng(9)
    psi = vector + 1e-3 * rng.standard_normal(forms.n_free)
    assert rayleigh_expansion_check(forms, psi, value, vector) <= 1e-10 * abs(value)

    # any nonzero trial function satisfies the identity, other eigenvectors too
    others = coarse_solve(forms, 3)
    assert rayleigh_expansion_check(forms, others.vectors[:, 2], value, vector) \
        <= 1e-10 * abs(value)


def test_eigenpair_set_checks_its_arrays():
    vectors = np.asfortranarray(np.eye(3)[:, :2])
    pairs = EigenpairSet([1.0, 2.0], vectors)
    assert pairs.vectors.flags.c_contiguous and len(pairs) == 2
    assert pairs.iterations is None and pairs.residuals is None
    with pytest.raises(ValueError, match="non-empty"):
        EigenpairSet([], np.zeros((3, 0)))
    with pytest.raises(ValueError, match="do not match"):
        EigenpairSet([1.0, 2.0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="ascending"):
        EigenpairSet([2.0, 1.0], vectors)


def test_canonical_sign_flips_columns():
    block = np.array([[0.0, 1e-20, -2.0, 0.0],
                      [-1.0, -1.0, 3.0, 0.0],
                      [2.0, 1.0, 1.0, 0.0]])
    signed = canonical_sign(block)
    # the first entry above 1e-12 of the column's largest decides; zeros stay
    assert_allclose(signed, block * [-1.0, -1.0, -1.0, 1.0], rtol=0, atol=0)
    assert_allclose(block[0], [0.0, 1e-20, -2.0, 0.0])        # input untouched
