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

Composition is judged against applying the two channels in turn, and complete
positivity a second time through the Choi form: for B > 0 the Choi matrix is
det B E(argument), positive exactly when the argument is.
"""

import numpy as np
import pytest
from conftest import heisenberg_pivot

from quasifree import (
    NotCompletelyPositive,
    ScaleOutOfRange,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
    compose,
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


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind2", KINDS)
@pytest.mark.parametrize("kind1", KINDS)
def test_composition_acts_as_the_sequence(kind1, kind2, d):
    """apply_schrodinger(compose(c2, c1), Q) equals c2's image of c1's image
    entrywise within 10 d u max(1, max|image|): each side is a few products
    of d x d matrices of norm at most 1, and each product rounds by about d u."""
    rng = np.random.default_rng(d + 5)
    c1, c2 = random_channel(d, rng, kind1), random_channel(d, rng, kind2)
    Q = random_symbol(d, rng, 0.05, 0.95)
    image = apply_schrodinger(c2, apply_schrodinger(c1, Q)).matrix
    tol = 10 * d * U * max(1.0, np.abs(image).max())
    assert np.abs(apply_schrodinger(compose(c2, c1), Q).matrix - image).max() <= tol


def lowest_and_norm(argument):
    """(lambda_min, ||argument||_2) of the Hermitian part of a Choi argument."""
    w = np.linalg.eigvalsh((argument + argument.conj().T) / 2.0)
    return w[0], np.abs(w).max()


@pytest.mark.parametrize("d", (20, *DIMS))
@pytest.mark.parametrize("kind", KINDS)
def test_choi_argument_of_a_channel_is_positive(kind, d):
    """lambda_min(argument) >= -10 d u kappa_1(B) ||argument||_2: the argument
    holds B^-1, which carries B's condition number into its rounding."""
    c = random_channel(d, np.random.default_rng(d + 6), kind)
    low, norm = lowest_and_norm(choi_exponential_form(c).argument)
    assert low >= -10 * d * U * np.linalg.cond(c.B, 1) * norm


@pytest.mark.parametrize("d", (4, 20))
@pytest.mark.parametrize("kind", KINDS)
def test_choi_positivity_judges_cp_as_the_constructor(kind, d):
    """A = 1/2, B = t (1 - A*A): the block argument [[B^-1 - 1, B^-1 A*],
    [A B^-1, 1 + A B^-1 A*]] is positive for t < 1, singular at t = 1 within
    10 d u kappa_1(B) ||argument||_2 (kappa_1(B) = 1) and indefinite for t > 1,
    where the constructor refuses; where a channel exists, the block
    argument is the Choi form's within the same tolerance."""
    eye = np.eye(d)
    A = 0.5 * eye
    for t in (0.9, 1.0, 1.1):
        B = t * (eye - A.conj().T @ A)
        Binv = np.linalg.inv(B)
        BA, AB = Binv @ A.conj().T, A @ Binv
        argument = np.block([[Binv - eye, BA], [AB, eye + AB @ A.conj().T]])
        low, norm = lowest_and_norm(argument)
        tol = 10 * d * U * norm
        if t > 1.0:
            assert low < -tol
            with pytest.raises(NotCompletelyPositive):
                new_channel(kind, A, B)
            continue
        assert low > tol if t < 1.0 else abs(low) <= tol
        form = choi_exponential_form(new_channel(kind, A, B))
        assert np.abs(form.argument - argument).max() <= tol


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
