import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import newteig.linalg
from newteig.assemble import assemble_forms, b_norm, interpolate, laplace_coefficients, \
    rayleigh_quotient
from newteig.linalg import SolverError, dense_gen_eig
from newteig.mesh import refine_regular, unit_square_mesh
from newteig.reference import (ExactEigen, direct_solve, exact_laplace,
                               exact_multiplicity, richardson)

PI2 = math.pi ** 2


def test_exact_laplace_first_values():
    assert_allclose([e.value for e in exact_laplace(1)], [2 * PI2], rtol=1e-15)
    assert_allclose([e.value for e in exact_laplace(6)],
                    [2 * PI2, 5 * PI2, 5 * PI2, 8 * PI2, 10 * PI2, 10 * PI2],
                    rtol=1e-15)
    assert exact_laplace(4)[3].value == pytest.approx(8 * PI2, rel=1e-15)


def test_exact_laplace_tie_order():
    modes = exact_laplace(6)
    assert (modes[1].p, modes[1].q) == (1, 2)
    assert (modes[2].p, modes[2].q) == (2, 1)
    with pytest.raises(ValueError):
        exact_laplace(0)


def test_exact_laplace_beyond_twenty_modes():
    brute = sorted(((p, q) for p in range(1, 60) for q in range(1, 60)),
                   key=lambda pq: (pq[0] ** 2 + pq[1] ** 2, pq[0]))
    assert [(e.p, e.q) for e in exact_laplace(40)] == brute[:40]


def test_exact_multiplicity_counts_every_mode_of_the_eigenvalue():
    # the 21st mode (3, 5) pairs with (5, 3), the 22nd; 50 = 1+49 = 25+25 = 49+1
    assert [exact_multiplicity(i) for i in (0, 1, 3, 19, 20, 21)] == [1, 2, 1, 1, 2, 2]
    assert exact_multiplicity([e.p ** 2 + e.q ** 2 for e in exact_laplace(60)].index(50)) == 3


def test_exact_eigenfunction_b_normalized():
    mode = ExactEigen(1, 1)
    mesh = unit_square_mesh(1 / 32)
    forms = assemble_forms(mesh, laplace_coefficients())
    assert abs(b_norm(forms, interpolate(mode.eigenfunction, mesh)) - 1.0) <= 5e-3


def test_exact_mode_rayleigh_quotient_converges_second_order():
    mode = ExactEigen(1, 1)
    errors = []
    mesh = unit_square_mesh(1 / 8)
    for _ in range(3):
        forms = assemble_forms(mesh, laplace_coefficients())
        x = interpolate(mode.eigenfunction, mesh)
        errors.append(abs(rayleigh_quotient(forms, x) - mode.value))
        mesh = refine_regular(mesh)
    for k in range(2):
        assert 4.0 * 0.8 <= errors[k] / errors[k + 1] <= 4.0 * 1.2


def test_direct_matches_dense_small_meshes():
    coeffs = laplace_coefficients()
    for h in (1 / 4, 1 / 8, 1 / 12):
        forms = assemble_forms(unit_square_mesh(h), coeffs)
        assert forms.n_free <= 300
        m = min(6, forms.n_free)
        dense_vals, _ = dense_gen_eig(forms.stiffness.toarray(), forms.mass.toarray())
        pairs = direct_solve(forms, m, tol=1e-12, dense_cutoff=0)
        assert_allclose(pairs.values, dense_vals[:m], rtol=1e-9)


def test_direct_solve_min_max_bound():
    forms = assemble_forms(unit_square_mesh(1 / 16), laplace_coefficients())
    value = direct_solve(forms, 1).values[0]
    assert value >= 2 * PI2
    assert value - 2 * PI2 <= 0.5


def test_direct_solve_b_normalized_ascending():
    forms = assemble_forms(unit_square_mesh(1 / 10), laplace_coefficients())
    pairs = direct_solve(forms, 4, dense_cutoff=0)
    assert (np.diff(pairs.values) >= 0).all()
    gram = pairs.vectors.T @ (forms.mass @ pairs.vectors)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_direct_solve_degenerate_pair_split_is_discretization_sized():
    # the one-diagonal structured mesh splits the continuous 5 pi^2 pair by
    # O(h^2); both members still sit within their discretization error
    forms = assemble_forms(unit_square_mesh(1 / 12), laplace_coefficients())
    pairs = direct_solve(forms, 3, dense_cutoff=0)
    err2 = pairs.values[1] - 5 * PI2
    err3 = pairs.values[2] - 5 * PI2
    assert 0 <= err2 and 0 <= err3
    assert abs(pairs.values[2] - pairs.values[1]) <= 2 * max(err2, err3)


def test_direct_solve_validates_m():
    forms = assemble_forms(unit_square_mesh(1 / 2), laplace_coefficients())
    with pytest.raises(ValueError):
        direct_solve(forms, 0)
    with pytest.raises(ValueError):
        direct_solve(forms, forms.n_free + 1)


def test_direct_solve_nonconvergence_reports(monkeypatch):
    # shift-invert Lanczos converges within one restart on small meshes; six
    # pairs of 361 DOFs at 1e-15 need more than one
    monkeypatch.setattr(newteig.linalg, "ARPACK_MAX_RESTARTS", 1)
    forms = assemble_forms(unit_square_mesh(1 / 20), laplace_coefficients())
    with pytest.raises(SolverError, match="in 1 iterations") as failure:
        direct_solve(forms, 6, tol=1e-15, dense_cutoff=0)
    assert failure.value.iterations == 1


def test_richardson_fixed_point_and_model():
    assert richardson(7.25, 7.25) == pytest.approx(7.25, rel=1e-15)
    lam_star, k = 19.7392, 31.4
    h = 0.125
    lam_h = lam_star + k * h ** 2
    lam_h2 = lam_star + k * (h / 2) ** 2
    assert richardson(lam_h, lam_h2) == pytest.approx(lam_star, rel=1e-14)


def test_richardson_on_direct_values():
    coeffs = laplace_coefficients()
    lam_h = direct_solve(assemble_forms(unit_square_mesh(1 / 8), coeffs), 1).values[0]
    lam_h2 = direct_solve(assemble_forms(unit_square_mesh(1 / 16), coeffs), 1).values[0]
    raw_error = abs(lam_h2 - 2 * PI2)
    extrapolated = abs(richardson(lam_h, lam_h2) - 2 * PI2)
    # measured: 0.19 raw vs 1.34e-3 extrapolated (order h^2 term cancelled)
    assert extrapolated <= 2e-3
    assert raw_error / extrapolated >= 50.0
