"""Eigenpair invariants that the tests check against the library's results."""

import numpy as np

from newteig.assemble import b_norm, rayleigh_quotient


def check_eigenpairs(pairs, forms, tol=1e-10):
    """Assert the normalization and Rayleigh-quotient invariants of every
    eigenpair of the set `pairs`."""
    for value, vector in zip(pairs.values, pairs.vectors.T):
        nb = b_norm(forms, vector)
        if abs(nb - 1.0) > tol:
            raise AssertionError("eigenvector b-norm is {} (expected 1)".format(nb))
        rq = rayleigh_quotient(forms, vector)
        if abs(rq - value) > tol * max(abs(value), 1.0):
            raise AssertionError("stored value {} disagrees with Rayleigh quotient {}".format(
                value, rq))


def rayleigh_expansion_check(forms, psi, value, vector):
    """Residual of the exact Rayleigh-quotient error expansion.

    For a converged discrete eigenpair (value, vector) and any nonzero trial
    function psi, the identity

        RQ(psi) - value = a(e, e)/b(psi, psi) - value * b(e, e)/b(psi, psi)

    with e = vector - psi holds exactly; the returned residual is pure
    round-off plus the eigenpair's own convergence error.
    """
    psi = np.asarray(psi, dtype=float)
    lam_hat = rayleigh_quotient(forms, psi)
    err = vector - psi
    b_psi = float(psi @ (forms.mass @ psi))
    lhs = lam_hat - value
    rhs = (float(err @ (forms.stiffness @ err))
           - value * float(err @ (forms.mass @ err))) / b_psi
    return abs(lhs - rhs)
