"""The screens that skip an eigendecomposition, SVD or re-validation decide
exactly as the exact tests they stand in front of.

Each case is built at a chosen distance from a threshold and compared with the
exact test computed here directly (eigvalsh for the CP inequality,
np.linalg.cond for pivots and B), so a screen that accepted one input too
many would show as a disagreement.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from quasifree import (
    NotCompletelyPositive,
    QuasiFreeChannel,
    SingularB,
    SingularPivot,
    SpectrumOutOfRange,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
    jamiolkowski_symbol,
    mix_symbols,
    new_channel,
    relative_entropy,
    spectral,
    validate_symbol,
)
from quasifree.channels import CP_TOL, PIVOT_COND_MAX, _certified_psd, cp_bound
from quasifree.choi import B_COND_MAX
from quasifree.sampling import random_channel, random_symbol, random_unitary

KINDS = ("lambda", "gamma")
CONDS = (0.5e12, 0.99e12, 1.01e12, 2e12)


def exact_min_eig(H):
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2.0)[0])


def lowest_mode(H, target):
    """(gap, P): H - gap P has lambda_min exactly target, up to rounding, with
    P = v v* the projector on the lowest eigenvector of H."""
    w, V = np.linalg.eigh(H)
    v = V[:, 0]
    return w[0] - target, np.outer(v, v.conj())


def boundary_channels(kind, rng, d=6):
    """(label, A, B) with lambda_min(B) or lambda_min(bound - B) placed at
    -1.1 tol, -0.9 tol and 0, plus B = 0 and B = bound."""
    c = random_channel(d, rng, kind, contraction=(0.3, 0.8))
    A, B = np.array(c.A), np.array(c.B)
    bound = cp_bound(kind, A)
    out = [("B = 0", A, np.zeros((d, d))), ("B = bound", A, bound)]
    for t in (-1.1, -0.9, 0.0):
        target = t * CP_TOL
        # lower constraint: B - (lambda_min(B) - target) v v* has lambda_min = target;
        # it only grows bound - B
        gap, P = lowest_mode(B, target)
        out.append((f"lambda_min(B) = {t} tol", A, B - gap * P))
        # upper constraint: B + (lambda_min(bound - B) - target) v v*
        gap, P = lowest_mode(bound - B, target)
        out.append((f"lambda_min(bound - B) = {t} tol", A, B + gap * P))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_new_channel_decides_as_eigen_test(kind, rng):
    for label, A, B in boundary_channels(kind, rng):
        B = (B + B.conj().T) / 2.0
        expect = exact_min_eig(B) >= -CP_TOL and exact_min_eig(cp_bound(kind, A) - B) >= -CP_TOL
        try:
            new_channel(kind, A, B)
            accepted = True
        except NotCompletelyPositive:
            accepted = False
        assert accepted == expect, label
        assert accepted == ("-1.1" not in label), label


def test_new_channel_boundary_error_messages(rng):
    cases = {label: (A, B) for label, A, B in boundary_channels("lambda", rng)}
    A, B = cases["lambda_min(B) = -1.1 tol"]
    with pytest.raises(NotCompletelyPositive, match=r"B has eigenvalue -1\.[01]\d*e-10 < 0"):
        new_channel("lambda", A, B)
    A, B = cases["lambda_min(bound - B) = -1.1 tol"]
    with pytest.raises(NotCompletelyPositive, match=r"upper CP constraint violated by eigenvalue -1\.[01]\d*e-10"):
        new_channel("lambda", A, B)


def test_certificate_declines_below_rounding():
    # the Cholesky certificate proves lambda_min >= -tol only when its
    # backward-error bound fits in tol/2; for a tol far below rounding it
    # must leave the decision to the eigenvalue test
    H = 0.5 * np.eye(4)
    assert _certified_psd(H, CP_TOL)
    assert not _certified_psd(H, 1e-30)
    assert not _certified_psd(-1e-3 * np.eye(4), CP_TOL)


def with_condition(d, cond, rng):
    """U diag(s) W* with singular values from 1 down to 1/cond."""
    s = np.geomspace(1.0, 1.0 / cond, d)
    return (random_unitary(d, rng) * s) @ random_unitary(d, rng).conj().T


@pytest.mark.parametrize("kind", KINDS)
def test_heisenberg_exp_pivot_decides_as_cond(kind, rng):
    d = 8
    eye = np.eye(d)
    c = new_channel(kind, 0.5 * eye, 0.5 * eye)
    for cond in CONDS:
        P = with_condition(d, cond, rng)
        if kind == "lambda":  # pivot 1 - B + X B = P
            X = 2.0 * P - eye
            pivot = eye - c.B + X @ c.B
        else:  # M = B^T + A*A = 0.75; pivot 1 - M + X^T M = P
            X = ((P - 0.25 * eye) / 0.75).T
            M = c.B.T + c.A.conj().T @ c.A
            pivot = eye - M + X.T @ M
        singular = np.linalg.cond(pivot) >= PIVOT_COND_MAX
        assert singular == (cond > 1e12)
        if singular:
            with pytest.raises(SingularPivot):
                apply_heisenberg_exp(c, X)
        else:
            out = apply_heisenberg_exp(c, X)
            assert np.all(np.isfinite(out.argument))


@pytest.mark.parametrize("kind", KINDS)
def test_heisenberg_state_pivot_decides_as_cond(kind, rng):
    # A = 0, B = 1 makes the pivot Q (lambda) or Q^T (gamma)
    d = 8
    c = new_channel(kind, np.zeros((d, d)), np.eye(d))
    for cond in CONDS:
        U = random_unitary(d, rng)
        Q = validate_symbol((U * np.geomspace(1.0, 1.0 / cond, d)) @ U.conj().T)
        singular = np.linalg.cond(Q.matrix) >= PIVOT_COND_MAX
        assert singular == (cond > 1e12)
        if singular:
            with pytest.raises(SingularPivot, match="pivot condition number"):
                apply_heisenberg_state(c, Q)
        else:
            apply_heisenberg_state(c, Q)


@pytest.mark.parametrize("kind", KINDS)
def test_choi_b_decides_as_cond(kind, rng):
    d = 8
    for cond in CONDS:
        U = random_unitary(d, rng)
        c = new_channel(kind, np.zeros((d, d)), (U * np.geomspace(0.9, 0.9 / cond, d)) @ U.conj().T)
        singular = np.linalg.cond(c.B) >= B_COND_MAX
        assert singular == (cond > 1e12)
        if singular:
            with pytest.raises(SingularB):
                choi_exponential_form(c)
        else:
            choi_exponential_form(c)


def test_singular_b_error_does_not_pin_the_caller():
    # the LU breakdown on B = 0 must not leave a reference cycle through its
    # traceback: it would keep every caller frame (and its arrays) alive
    # until the next garbage collection
    c = new_channel("lambda", np.zeros((3, 3)), np.zeros((3, 3)))

    class Marker:
        pass

    def caller():
        marker = Marker()
        with pytest.raises(SingularB):
            choi_exponential_form(c)
        return weakref.ref(marker)

    gc.disable()
    try:
        assert caller()() is None
    finally:
        gc.enable()


def test_well_conditioned_pivot_skips_svd(rng, monkeypatch):
    c = random_channel(5, rng, "lambda")
    X = 0.3 * random_unitary(5, rng)

    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called for a well-conditioned pivot")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    apply_heisenberg_exp(c, X)
    apply_heisenberg_state(c, random_symbol(5, rng, 0.1, 0.9))
    choi_exponential_form(c)


def old_relative_entropy(Q1, Q2):
    """The triple-product formula the symbol calculus used before, on an
    interior spectrum (no kernel branches)."""
    w2, V2 = np.linalg.eigh(Q2.matrix)
    M1 = Q1.matrix
    eye = np.eye(Q1.dim)
    diag_q1 = np.einsum("ij,jk,ki->i", V2.conj().T, M1, V2).real
    diag_c1 = np.einsum("ij,jk,ki->i", V2.conj().T, eye - M1, V2).real
    q1 = Q1.eigenvalues
    own = np.sum(q1 * np.log(q1)) + np.sum((1.0 - q1) * np.log(1.0 - q1))
    cross = np.sum(diag_q1 * np.log(w2)) + np.sum(diag_c1 * np.log(1.0 - w2))
    return float(own - cross)


def test_relative_entropy_matches_triple_product(rng):
    d = 40
    Q1 = random_symbol(d, rng, 0.05, 0.95)
    Q2 = random_symbol(d, rng, 0.05, 0.95)
    ref = old_relative_entropy(Q1, Q2)
    assert abs(relative_entropy(Q1, Q2) - ref) < 1e-12
    spectral(Q2)  # cached eigenvectors take the other path
    assert abs(relative_entropy(Q1, Q2) - ref) < 1e-12


def test_trusted_outputs_report_eigenvalues_in_unit_interval(rng):
    d = 5
    for kind in KINDS:
        c = random_channel(d, rng, kind)
        edge = new_channel(kind, c.A, cp_bound(kind, c.A))  # B on the CP boundary
        U = random_unitary(d, rng)
        projector = validate_symbol((U * np.array([1.0, 1.0, 0.0, 0.0, 1.0])) @ U.conj().T)
        for channel in (c, edge):
            for Q in (projector, random_symbol(d, rng)):
                w = apply_schrodinger(channel, Q).eigenvalues
                assert w.min() >= 0.0 and w.max() <= 1.0
                assert np.all(np.diff(w) <= 0.0)
        w = jamiolkowski_symbol(edge).symbol.eigenvalues
        assert w.min() >= 0.0 and w.max() <= 1.0
    ident = new_channel("lambda", np.eye(d), np.zeros((d, d)))
    w = jamiolkowski_symbol(ident).symbol.eigenvalues
    assert np.allclose(w, [1.0] * d + [0.0] * d, atol=1e-12)
    assert w.min() >= 0.0 and w.max() <= 1.0
    # projectors differing in one mode: a rank-one difference
    smaller = validate_symbol((U * np.array([0.0, 1.0, 0.0, 0.0, 1.0])) @ U.conj().T)
    w = mix_symbols(projector, smaller, 0.3).eigenvalues
    assert w.min() >= 0.0 and w.max() <= 1.0
    assert np.allclose(w, [1.0, 1.0, 0.3, 0.0, 0.0], atol=1e-12)


def test_trusted_symbol_is_lazy_cached_and_frozen(rng, monkeypatch):
    c = random_channel(4, rng, "lambda")
    Q = random_symbol(4, rng)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(1) or eigvalsh(H))
    out = apply_schrodinger(c, Q)
    J = jamiolkowski_symbol(c).symbol
    assert calls == []  # no eigendecomposition until the spectrum is read
    w = out.eigenvalues
    assert out.eigenvalues is w and len(calls) == 1
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(c.A.conj().T @ Q.matrix @ c.A + c.B))
    assert not w.flags.writeable and not out.matrix.flags.writeable
    assert np.array_equal(out.matrix, out.matrix.conj().T)
    assert np.array_equal(J.matrix, J.matrix.conj().T)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.matrix = Q.matrix


def hand_built_violations(rng, d=3):
    """Channels that bypass new_channel, one per violated side of the CP test."""
    for kind in KINDS:
        c = random_channel(d, rng, kind)
        bound = cp_bound(kind, c.A)
        w, V = np.linalg.eigh(bound - c.B)
        v = V[:, 0]
        yield kind, "upper", QuasiFreeChannel(kind, c.A, c.B + (w[0] + 1e-3) * np.outer(v, v.conj()))
        w, V = np.linalg.eigh(c.B)
        v = V[:, 0]
        yield kind, "lower", QuasiFreeChannel(kind, c.A, c.B - (w[0] + 1e-3) * np.outer(v, v.conj()))


def test_hand_built_non_cp_channel_still_raises(rng):
    d = 3
    for kind, side, bad in hand_built_violations(rng, d):
        with pytest.raises(SpectrumOutOfRange):
            jamiolkowski_symbol(bad)
        # the violating direction shows in the image of 1 (upper) or 0 (lower),
        # for the lambda kind; the gamma kind reads the particle-hole image
        full = validate_symbol(np.eye(d))
        empty = validate_symbol(np.zeros((d, d)))
        worst = empty if (side == "lower") == (kind == "lambda") else full
        with pytest.raises(SpectrumOutOfRange):
            apply_schrodinger(bad, worst)


def test_loose_tolerance_channel_is_not_trusted(rng):
    # accepted at tol 1e-6 with lambda_min(B) = -1e-7; the image of the empty
    # state is B itself, which the Schrodinger range test (1e-8) must reject
    # at once, as before
    d = 3
    c = random_channel(d, rng, "lambda")
    w, V = np.linalg.eigh(c.B)
    v = V[:, 0]
    B = c.B - (w[0] + 1e-7) * np.outer(v, v.conj())
    loose = new_channel("lambda", c.A, B, tol=1e-6)
    with pytest.raises(SpectrumOutOfRange):
        apply_schrodinger(loose, validate_symbol(np.zeros((d, d))))
