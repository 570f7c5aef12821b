import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse as sp

from newteig.assemble import (assemble_forms, b_norm, free_prolongation,
                              laplace_coefficients, rayleigh_quotient)
from newteig.eigen_newton import (BasinWarning, ClusterGapWarning, Eigenpair,
                                  EigenpairSet, coarse_solve, newton_step_multi)
from newteig.linalg import SolverError
from newteig.mesh import build_hierarchy, refine_regular, unit_square_mesh
from newteig.reference import direct_solve, exact_laplace

from invariants import check_eigenpair, rayleigh_expansion_check

EXACT = [e.value for e in exact_laplace(8)]


def newton_step(forms_fine, prev, prolong):
    """The Newton step for one eigenpair, through the m-pair step."""
    return newton_step_multi(forms_fine, EigenpairSet([prev]), prolong)[0]


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
    assert EXACT[0] <= pairs[0].value <= EXACT[0] + 10.0


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
    for pair in pairs:
        check_eigenpair(pair, forms)
    vecs = pairs.vectors
    gram = vecs.T @ (forms.mass @ vecs)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_coarse_solve_rejects_oversized_requests():
    forms = forms_for(1 / 4)
    with pytest.raises(ValueError):
        coarse_solve(forms, forms.n_free + 1)
    with pytest.raises(SolverError, match="cap"):
        coarse_solve(forms_for(1 / 8), 1, dense_cap=10)


def test_coarse_solve_warns_on_cluster_split():
    # a synthetic pencil with an exactly repeated eigenvalue across the cut
    from newteig.assemble import AssembledForms

    diag = sp.diags([1.0, 2.0, 2.0, 3.0]).tocsr()
    eye = sp.identity(4, format="csr")
    forms = AssembledForms(stiffness=diag, mass=eye, free_to_full=np.arange(4), n_free=4,
                           coeffs=laplace_coefficients(), quad_order=2)
    with pytest.warns(ClusterGapWarning):
        coarse_solve(forms, 2)


def test_newton_fixed_point_single():
    _, ff, _ = two_level(1 / 4)
    pair = direct_solve(ff, 1)[0]
    stepped = newton_step(ff, pair, sp.identity(ff.n_free, format="csr"))
    assert abs(stepped.value - pair.value) <= 1e-9
    assert np.abs(stepped.vector - pair.vector).max() <= 1e-9


def test_newton_two_steps_error_decay():
    # H = 1/4 -> 1/8 -> 1/16: errors vs the exact value shrink about 4x per
    # step and the distance to the per-level direct value keeps shrinking
    coeffs = laplace_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 4), 3)
    forms = [assemble_forms(m, coeffs) for m in hier.levels]
    prev = coarse_solve(forms[0], 1)[0]
    gaps = []
    errors = [prev.value - EXACT[0]]
    for k in (1, 2):
        op = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        new = newton_step(forms[k], prev, op)
        direct = direct_solve(forms[k], 1)[0].value
        gaps.append(abs(new.value - direct))
        errors.append(new.value - EXACT[0])
        prev = new
    assert gaps[1] <= gaps[0]
    for k in range(2):
        assert 3.0 <= errors[k] / errors[k + 1] <= 5.0


def test_newton_contraction_constant_bounded():
    # the quadratic-contraction ratio stays bounded by its first-level value
    coeffs = laplace_coefficients()
    hier = build_hierarchy(unit_square_mesh(1 / 6), 4)
    forms = [assemble_forms(m, coeffs) for m in hier.levels]
    prev = coarse_solve(forms[0], 1)[0]
    constants = []
    for k in (1, 2, 3):
        op = free_prolongation(hier.prolongations[k - 1], forms[k - 1], forms[k])
        new = newton_step(forms[k], prev, op)
        ubar = direct_solve(forms[k], 1)[0].vector
        lifted = op @ prev.vector
        if float(lifted @ (forms[k].mass @ ubar)) < 0:
            lifted = -lifted
        u_new = new.vector if float(new.vector @ (forms[k].mass @ ubar)) >= 0 \
            else -new.vector
        e_prev = math.sqrt(float((ubar - lifted) @ (forms[k].stiffness @ (ubar - lifted))))
        e_new = math.sqrt(float((ubar - u_new) @ (forms[k].stiffness @ (ubar - u_new))))
        constants.append(e_new / e_prev ** 2)
        prev = new
    assert max(constants) == constants[0]
    assert all(c > 0 for c in constants)


def test_newton_single_invariants():
    cf, ff, op = two_level(1 / 4)
    prev = coarse_solve(cf, 1)[0]
    new = newton_step(ff, prev, op)
    check_eigenpair(new, ff)
    assert new.value >= EXACT[0] - 1e-9
    assert new.value >= direct_solve(ff, 1)[0].value - 1e-9
    # sign flip of the input leaves the value unchanged
    flipped = Eigenpair(prev.value, -prev.vector, prev.level)
    again = newton_step(ff, flipped, op)
    assert abs(again.value - new.value) <= 1e-12 * new.value


def test_newton_warns_outside_basin():
    cf, ff, op = two_level(1 / 4)
    pairs = coarse_solve(cf, 1)
    # a shift below the reachable fine-space minimum forces the new Rayleigh
    # quotient above the previous value, which must trigger the diagnostic
    wrong = Eigenpair(15.0, pairs[0].vector, pairs[0].level)
    with pytest.warns(BasinWarning):
        newton_step(ff, wrong, op)


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
    assert abs(pairs[1].value - pairs[2].value) <= 2 * max(errors[1], errors[2])
    assert abs(pairs[4].value - pairs[5].value) <= 2 * max(errors[4], errors[5])
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
    for i, pair in enumerate(new):
        check_eigenpair(pair, ff)
        assert pair.value >= EXACT[i] - 1e-9
    # sign flips of the inputs leave every value unchanged
    flipped = EigenpairSet([Eigenpair(p.value, -p.vector, p.level) for p in prev])
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


def test_rayleigh_expansion_identity():
    forms = forms_for(1 / 8)
    exact = coarse_solve(forms, 1)[0]
    assert rayleigh_expansion_check(forms, exact.vector, exact) <= 1e-12

    rng = np.random.default_rng(9)
    psi = exact.vector + 1e-3 * rng.standard_normal(forms.n_free)
    assert rayleigh_expansion_check(forms, psi, exact) <= 1e-10 * abs(exact.value)

    # any nonzero trial function satisfies the identity, other eigenvectors too
    others = coarse_solve(forms, 3)
    assert rayleigh_expansion_check(forms, others[2].vector, exact) \
        <= 1e-10 * abs(exact.value)
