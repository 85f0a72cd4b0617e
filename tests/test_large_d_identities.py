"""Closed forms judged against each other beyond the dense oracle's reach.

Two determinant identities hold for gauge-invariant quasi-free states:

    tr(rho_Q E(X)) = det(1 - Q + Q X),
    tr(rho_Q rho_R) = det((1 - Q)(1 - R) + Q R),

so the Schrodinger image, the two Heisenberg forms and the Choi form can be
compared at any d through log-determinants.  Each comparison reads slogdet
moduli and phases, and the closed form's scale in the log form it keeps,
against tol = 10 d u kappa_1 max(1, |reference|), with kappa_1 the 1-norm
condition number of the closed form's pivot (or of B), computed from the
instance before the comparison.

The entropies are judged on two more identities: the data processing
inequality relent(c(Q1), c(Q2)) <= relent(Q1, Q2) (Lindblad 1975; Uhlmann
1977), and invariance under the particle-hole twist Q -> 1 - Q^T, which maps
quasi-free states to quasi-free states by a unitary.
"""

import numpy as np
import pytest
from conftest import heisenberg_pivot

from quasifree import (
    ScaleOutOfRange,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
    new_channel,
    relative_entropy,
    validate_symbol,
    von_neumann_entropy,
)
from quasifree.sampling import random_channel, random_symbol

U = np.finfo(float).eps / 2.0
KINDS = ("lambda", "gamma")
DIMS = (100, 200)


def assert_same_log_det(form, log_det, ref_log_det, kappa, d):
    """form.scale * det, read off the form's (phase, log_abs_scale) and det's
    slogdet pair, agrees with the reference pair within
    10 d u kappa max(1, |ref|), in log modulus and in phase."""
    tol = 10 * d * U * kappa * max(1.0, abs(ref_log_det[1]))
    (phase, modulus), (ref_phase, ref_modulus) = log_det, ref_log_det
    assert abs(form.log_abs_scale + modulus - ref_modulus) <= tol
    assert abs(np.angle(form.phase * phase / ref_phase)) <= tol


def expectation(Q, X):
    """slogdet of det(1 - Q + Q X) = tr(rho_Q E(X))."""
    return np.linalg.slogdet(np.eye(len(Q)) - Q + Q @ X)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_channel_duality_on_exponentials(kind, d):
    # tr(rho_channel(Q) E(X)) = tr(rho_Q channel*(E(X)))
    rng = np.random.default_rng(d)
    c, Q = random_channel(d, rng, kind), random_symbol(d, rng, 0.05, 0.95)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    X = np.eye(d) + 0.3 * G / np.sqrt(d)
    kappa = np.linalg.cond(heisenberg_pivot(c, np.eye(d), X), 1)
    image = apply_heisenberg_exp(c, X)
    ref = expectation(apply_schrodinger(c, Q).matrix, X)
    assert_same_log_det(image, expectation(Q.matrix, image.argument), ref, kappa, d)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_channel_duality_on_states(kind, d):
    # tr(rho_channel(Q) rho_R) = tr(rho_Q channel*(rho_R))
    rng = np.random.default_rng(d + 1)
    c = random_channel(d, rng, kind)
    Q, R = random_symbol(d, rng, 0.05, 0.95), random_symbol(d, rng, 0.05, 0.95)
    eye = np.eye(d)
    kappa = np.linalg.cond(heisenberg_pivot(c, eye - R.matrix, R.matrix), 1)
    image = apply_heisenberg_state(c, R)
    Qc = apply_schrodinger(c, Q).matrix
    ref = np.linalg.slogdet((eye - Qc) @ (eye - R.matrix) + Qc @ R.matrix)
    assert_same_log_det(image, expectation(Q.matrix, image.argument), ref, kappa, d)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_choi_trace_is_the_fock_dimension(kind, d):
    # tr C = tr channel*(1) = 2^d: log det B + log det(1 + argument) = d log 2
    c = random_channel(d, np.random.default_rng(d + 2), kind)
    kappa = np.linalg.cond(c.B, 1)
    form = choi_exponential_form(c)
    trace = np.linalg.slogdet(np.eye(2 * d) + form.argument)
    assert_same_log_det(form, trace, (1.0, d * np.log(2.0)), kappa, d)


@pytest.mark.parametrize("kind", KINDS)
def test_choi_trace_beyond_double_range(kind):
    # 1e-2 B puts det B near exp(-1175.6), far below the smallest double: the
    # form keeps it in log form, the identity holds there, and only a read
    # of the scale as a double refuses
    d = 200
    c = random_channel(d, np.random.default_rng(d + 2), kind)
    c = new_channel(kind, c.A, 1e-2 * c.B)
    kappa = np.linalg.cond(c.B, 1)
    form = choi_exponential_form(c)
    assert form.log_abs_scale < np.log(np.finfo(float).tiny)
    trace = np.linalg.slogdet(np.eye(2 * d) + form.argument)
    assert_same_log_det(form, trace, (1.0, d * np.log(2.0)), kappa, d)
    with pytest.raises(ScaleOutOfRange):
        form.scale


def entropy_tol(d, value, *symbols):
    """10 d u kappa max(1, |value|) for an entropy read off the spectra of the
    symbols, kappa = max 1 / min(q, 1 - q) over their eigenvalues q: the
    entropies' logarithms amplify eigh's rounding of each q by at most kappa."""
    q = np.concatenate([Q.eigenvalues for Q in symbols])
    kappa = 1.0 / np.minimum(q, 1.0 - q).min()
    return 10 * d * U * kappa * max(1.0, abs(value))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_data_processing_inequality(kind, d):
    """relent(c(Q1), c(Q2)) <= relent(Q1, Q2) + tol, tol = entropy_tol over
    all four symbols (Lindblad 1975; Uhlmann 1977)."""
    rng = np.random.default_rng(d + 3)
    c = random_channel(d, rng, kind)
    Q1, Q2 = random_symbol(d, rng, 0.05, 0.95), random_symbol(d, rng, 0.05, 0.95)
    images = apply_schrodinger(c, Q1), apply_schrodinger(c, Q2)
    before = relative_entropy(Q1, Q2)
    tol = entropy_tol(d, before, Q1, Q2, *images)
    assert relative_entropy(*images) <= before + tol


@pytest.mark.parametrize("d", DIMS)
def test_entropies_are_twist_invariant(d):
    """S(Q) = S(1 - Q^T) and relent(Q1, Q2) = relent(1 - Q1^T, 1 - Q2^T),
    each within entropy_tol over the symbols it reads."""
    rng = np.random.default_rng(d + 4)
    Q1, Q2 = random_symbol(d, rng, 0.05, 0.95), random_symbol(d, rng, 0.05, 0.95)
    T1, T2 = (validate_symbol(np.eye(d) - Q.matrix.T) for Q in (Q1, Q2))
    entropy = von_neumann_entropy(Q1)
    assert abs(von_neumann_entropy(T1) - entropy) <= entropy_tol(d, entropy, Q1, T1)
    relent = relative_entropy(Q1, Q2)
    assert abs(relative_entropy(T1, T2) - relent) <= entropy_tol(d, relent, Q1, Q2, T1, T2)
