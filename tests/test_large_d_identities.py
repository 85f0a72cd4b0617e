"""Closed forms judged against each other beyond the dense oracle's reach.

Two determinant identities hold for gauge-invariant quasi-free states:

    tr(rho_Q E(X)) = det(1 - Q + Q X),
    tr(rho_Q rho_R) = det((1 - Q)(1 - R) + Q R),

so the Schrodinger image, the two Heisenberg forms and the Choi form can be
compared at any d through log-determinants.  Each comparison reads slogdet
moduli and phases against tol = 10 d u kappa_1 max(1, |reference|), with
kappa_1 the 1-norm condition number of the closed form's pivot (or of B),
computed from the instance before the comparison.
"""

import numpy as np
import pytest

from quasifree import (
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
)
from quasifree.channels import _as_lambda, _twist_past
from quasifree.sampling import random_channel, random_symbol

U = np.finfo(float).eps / 2.0
KINDS = ("lambda", "gamma")
DIMS = (100, 200)


def pivot(channel, S, T):
    """The pivot S + (T - S) B of the Heisenberg image of the pair (S, T)."""
    A, B, twisted = _as_lambda(channel)
    if twisted:
        A, B = _twist_past(A, B)
        S, T = T.T, S.T
    return S + (T - S) @ B


def assert_same_log_det(log_det, ref_log_det, kappa, d):
    """Two (phase, log modulus) pairs agree within 10 d u kappa max(1, |ref|)."""
    tol = 10 * d * U * kappa * max(1.0, abs(ref_log_det[1]))
    (phase, modulus), (ref_phase, ref_modulus) = log_det, ref_log_det
    assert abs(modulus - ref_modulus) <= tol
    assert abs(np.angle(phase / ref_phase)) <= tol


def expectation(Q, X):
    """slogdet of det(1 - Q + Q X) = tr(rho_Q E(X))."""
    return np.linalg.slogdet(np.eye(len(Q)) - Q + Q @ X)


def scaled(scale, log_det):
    """slogdet of scale * det, from the slogdet of det."""
    return log_det[0] * scale / abs(scale), log_det[1] + np.log(abs(scale))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_channel_duality_on_exponentials(kind, d):
    # tr(rho_channel(Q) E(X)) = tr(rho_Q channel*(E(X)))
    rng = np.random.default_rng(d)
    c, Q = random_channel(d, rng, kind), random_symbol(d, rng, 0.05, 0.95)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    X = np.eye(d) + 0.3 * G / np.sqrt(d)
    kappa = np.linalg.cond(pivot(c, np.eye(d), X), 1)
    image = apply_heisenberg_exp(c, X)
    ref = expectation(apply_schrodinger(c, Q).matrix, X)
    assert_same_log_det(scaled(image.scale, expectation(Q.matrix, image.argument)), ref, kappa, d)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_channel_duality_on_states(kind, d):
    # tr(rho_channel(Q) rho_R) = tr(rho_Q channel*(rho_R))
    rng = np.random.default_rng(d + 1)
    c = random_channel(d, rng, kind)
    Q, R = random_symbol(d, rng, 0.05, 0.95), random_symbol(d, rng, 0.05, 0.95)
    eye = np.eye(d)
    kappa = np.linalg.cond(pivot(c, eye - R.matrix, R.matrix), 1)
    image = apply_heisenberg_state(c, R)
    Qc = apply_schrodinger(c, Q).matrix
    ref = np.linalg.slogdet((eye - Qc) @ (eye - R.matrix) + Qc @ R.matrix)
    assert_same_log_det(scaled(image.scale, expectation(Q.matrix, image.argument)), ref, kappa, d)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_choi_trace_is_the_fock_dimension(kind, d):
    # tr C = tr channel*(1) = 2^d: log det B + log det(1 + argument) = d log 2
    c = random_channel(d, np.random.default_rng(d + 2), kind)
    kappa = np.linalg.cond(c.B, 1)
    form = choi_exponential_form(c)
    trace = np.linalg.slogdet(np.eye(2 * d) + form.argument)
    assert_same_log_det(scaled(form.scale, trace), (1.0, d * np.log(2.0)), kappa, d)
