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
from conftest import count_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifree import (
    AffineSymbolMap,
    NotCompletelyPositive,
    QuasiFreeChannel,
    SingularB,
    SingularPivot,
    SpectrumOutOfRange,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
    classify_affine_map,
    jamiolkowski_symbol,
    mix_symbols,
    new_channel,
    relative_entropy,
    spectral,
    validate_symbol,
)
from quasifree.channels import COND_MAX, CP_TOL, cp_bound
from quasifree.sampling import random_channel, random_symbol, random_unitary
from quasifree.symbols import HERMITIAN_TOL, _certified_psd, _gram_bound

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


def old_classify(m, tol=CP_TOL):
    """The decision classify_affine_map made with four eigenvalue tests of its
    own: sign + needs 0 <= B <= 1 - A*A, sign - needs A*A <= B <= 1, and a
    transposed congruence needs rank(A) <= 1 besides."""
    A, B = np.asarray(m.A, dtype=complex), np.asarray(m.B, dtype=complex)
    if np.abs(B - B.conj().T).max() > tol:
        return "NotCP"
    sv = np.linalg.svd(A, compute_uv=False)
    rank = 0 if sv[0] == 0.0 else int(np.count_nonzero(sv > 1e-10 * sv[0]))
    if (m.sign == 1) == bool(m.transpose_input) and rank > 1:
        return "NotCP"
    eye = np.eye(A.shape[0])
    gram = A.conj().T @ A
    if m.sign == 1:
        ok = exact_min_eig(B) >= -tol and exact_min_eig(eye - gram - B) >= -tol
    else:
        ok = exact_min_eig(B - gram) >= -tol and exact_min_eig(eye - B) >= -tol
    return "CP" if ok else "NotCP"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("rank", [1, 2])
def test_classify_decides_as_eigen_tests(sign, transpose, rank, rng, d=4):
    eye = np.eye(d)
    for _ in range(3):
        s = rng.uniform(0.3, 0.8, rank)
        A = (random_unitary(d, rng)[:, :rank] * s) @ random_unitary(d, rng)[:, :rank].conj().T
        gram = A.conj().T @ A
        w, V = np.linalg.eigh(eye - gram)
        root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        # the two constraints as (lower, upper): lower(B) >= 0 and upper(B) >= 0
        offset = 0.0 if sign == 1 else 1.0
        lower = (lambda B: B) if sign == 1 else (lambda B: B - gram)
        upper = (lambda B: eye - gram - B) if sign == 1 else (lambda B: eye - B)
        base = offset * gram + root @ random_symbol(d, rng, 0.1, 0.9).matrix @ root
        cases = []
        for t in (-1.1, -0.9, 0.0, 1.0):
            gap, P = lowest_mode(lower(base), t * CP_TOL)
            cases.append(base - gap * P)
            gap, P = lowest_mode(upper(base), t * CP_TOL)
            cases.append(base + gap * P)
        for B in cases:
            m = AffineSymbolMap(sign, transpose, A, (B + B.conj().T) / 2.0)
            assert classify_affine_map(m) == old_classify(m)


def test_clamped_symbol_pays_one_eigh_through_relative_entropy(rng, monkeypatch):
    d = 6
    U = random_unitary(d, rng)
    # dust of 0.8 tol lies beyond the certificate's tol/2 shift: the clamp path
    w = np.array([1.0 + 8e-11, 1.0, 0.7, 0.2, 0.0, -8e-11])
    Q1 = validate_symbol((U * np.array([1.0, 1.0, 0.4, 0.5, 0.0, 0.0])) @ U.conj().T)
    Q1.eigenvalues
    calls = count_calls(monkeypatch, ("eigh", "eigvalsh"))
    Q2 = validate_symbol((U * w) @ U.conj().T)
    assert calls == ["eigvalsh", "eigh"]
    value = relative_entropy(Q1, Q2)
    s = spectral(Q2)
    assert calls == ["eigvalsh", "eigh"]  # relative entropy reads the clamp's spectrum
    assert s is spectral(Q2) and np.array_equal(s.eigenvalues, Q2.eigenvalues)
    assert np.abs(s.eigenvalues - np.clip(np.sort(w)[::-1], 0.0, 1.0)).max() < 1e-14
    assert np.abs(Q2.matrix - (U * np.clip(w, 0.0, 1.0)) @ U.conj().T).max() < 1e-14
    # Q1 and Q2 commute; modes at 0 or 1 in both contribute nothing
    q1, q2 = np.array([0.4, 0.5]), np.array([0.7, 0.2])
    expect = np.sum(q1 * np.log(q1 / q2) + (1 - q1) * np.log((1 - q1) / (1 - q2)))
    assert abs(value - expect) < 1e-12


@pytest.mark.parametrize(
    "label, w",
    [
        ("interior", [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]),
        ("exact 0 and 1", [1.0, 1.0, 0.6, 0.0, 0.0, 0.0]),
        ("dust below tol/2", [1.0 + 4e-11, 1.0, 0.6, 0.3, 1e-12, -4e-11]),
    ],
)
def test_certified_symbol_validates_without_eigendecomposition(label, w, rng, monkeypatch):
    U = random_unitary(len(w), rng)
    M = (U * np.array(w)) @ U.conj().T
    calls = count_calls(monkeypatch, ("eigh", "eigvalsh"))
    Q = validate_symbol(M)
    assert calls == [], label
    # kept as given: the Hermitian part, not rebuilt from a spectrum
    assert np.array_equal(Q.matrix, (M + M.conj().T) / 2.0), label
    q = Q.eigenvalues
    assert calls == ["eigvalsh"] and Q.eigenvalues is q, label
    assert q.min() >= 0.0 and q.max() <= 1.0 and np.all(np.diff(q) <= 0.0), label
    assert np.abs(q - np.clip(np.sort(w)[::-1], 0.0, 1.0)).max() < 1e-14, label


def test_certified_symbol_read_never_raises(rng):
    # a tol far above the default: dust within HERMITIAN_TOL/2 is certified
    # and kept, and neither read may test the range again at another tolerance
    d = 5
    U = random_unitary(d, rng)
    w = np.array([1.0 + 4e-11, 0.8, 0.5, 0.2, -4e-11])
    M = (U * w) @ U.conj().T
    for read in (lambda Q: Q.eigenvalues, lambda Q: spectral(Q).eigenvalues):
        Q = validate_symbol(M, tol=1e-6)
        assert np.array_equal(Q.matrix, (M + M.conj().T) / 2.0)  # kept as given
        q = read(Q)
        assert q.min() == 0.0 and q.max() == 1.0
        assert np.abs(q - np.clip(w, 0.0, 1.0)).max() < 1e-14


@pytest.mark.parametrize("dust", [8e-11, 4e-7])
def test_large_tol_clamps_dust_beyond_the_certificate(dust, rng, monkeypatch):
    # the certificate runs at min(tol, HERMITIAN_TOL) whatever tol is, so
    # dust beyond HERMITIAN_TOL/2 is clamped, and the symbol feeds consumers
    # that test against their own fixed tolerances
    d = 5
    U = random_unitary(d, rng)
    w = np.array([1.0 + dust, 0.8, 0.5, 0.2, -dust])
    calls = count_calls(monkeypatch, ("eigvalsh",))
    Q = validate_symbol((U * w) @ U.conj().T, tol=1e-6)
    assert calls == ["eigvalsh"]
    clean = np.clip(w, 0.0, 1.0)
    assert np.abs(Q.matrix - (U * clean) @ U.conj().T).max() < 1e-14
    assert abs(relative_entropy(Q, Q)) < 1e-12
    image = apply_schrodinger(new_channel("lambda", np.eye(d), np.zeros((d, d))), Q)
    assert np.abs(image.eigenvalues - clean).max() < 1e-14
    other = validate_symbol((U * np.array([1.0, 0.6, 0.5, 0.2, 0.0])) @ U.conj().T)
    mixed = mix_symbols(Q, other, 0.5)
    assert np.abs(mixed.eigenvalues - [1.0, 0.7, 0.5, 0.2, 0.0]).max() < 1e-14
    with pytest.raises(SpectrumOutOfRange):
        validate_symbol((U * w) @ U.conj().T, tol=dust / 2.0)


def test_validation_tries_cholesky_before_eigvalsh(monkeypatch):
    calls = count_calls(monkeypatch, ("cholesky", "eigvalsh"))
    Q = validate_symbol(np.diag([0.75, 0.5, 0.25]), tol=1e-18)  # no bound fits in tol/2
    assert calls == ["cholesky", "eigvalsh"]
    assert np.array_equal(Q.eigenvalues, [0.75, 0.5, 0.25])
    calls.clear()
    validate_symbol(np.diag([0.75, 0.5, 0.25]))
    assert calls == ["cholesky", "cholesky"]
    calls.clear()
    with pytest.raises(SpectrumOutOfRange):
        validate_symbol(np.diag([1.5, 0.5, 0.25]))
    assert calls == ["cholesky", "cholesky", "eigvalsh"]  # 1 - H declines; eigvalsh decides


def bench_matrix(d, rng):
    """The interior symbol matrix of the ``bench`` command, built here
    because ``_bench_instance`` reads its spectrum."""
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (M + M.conj().T) / 2.0
    H *= 0.4 / float(np.abs(H).sum(axis=1).max())
    return 0.5 * np.eye(d) + H


def test_dense_interior_symbols_certify_beyond_the_frobenius_form(rng, monkeypatch):
    # ||L||_F^2 would be too large from d ~ 800 on; the row-sum bound certifies,
    # for symbols and for both CP inequalities of a channel
    calls = count_calls(monkeypatch, ("eigh", "eigvalsh"))
    symbols = [random_symbol(1000, rng, 0.05, 0.95)]
    symbols += [validate_symbol(bench_matrix(d, rng)) for d in (1000, 2000)]
    channels = [random_channel(1000, rng, kind) for kind in KINDS]  # each a new_channel
    assert calls == []
    assert all(Q._cache["tol"] == np.inf for Q in symbols)  # certified, kept as given
    assert [c.kind for c in channels] == list(KINDS)


def test_gram_bound_on_a_fixed_factor():
    absL = np.array([[1.0, 0.0], [3.0, 1.0]])
    grow = 1.0 + 2.0 * (2 * 2 + 5) * (np.finfo(float).eps / 2.0)  # as in _gram_bound
    rho = (11.0 + np.sqrt(117.0)) / 2.0  # spectral radius of |L|^T |L| = [[10, 3], [3, 1]]
    assert _gram_bound(absL) == 13.0 * grow > rho  # 13: the largest row sum of N
    # a pivot whose square underflows: tol 0 certifies nothing, eigvalsh decides
    assert validate_symbol(np.diag([1e-320, 0.5]), tol=0.0).eigenvalues[1] == 1e-320


ENTRY = st.one_of(st.just(0.0), st.floats(1e-150, 1e150))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_gram_bound_is_at_least_the_spectral_radius(d, data):
    """_gram_bound(absL) >= rho(N), N = absL^T absL, checked against the
    computed eigvalsh(N)[-1], which can exceed rho(N) by rounding alone: the
    product N of nonnegative terms is within gamma_d ~ d u of the exact one
    entrywise, so its spectral radius within d u relatively, and eigvalsh is
    backward stable, off by a small multiple of u ||N||_2.  So the check allows
    a relative margin of 10 d u on top of the bound."""
    n = d * (d + 1) // 2
    absL = np.zeros((d, d))
    absL[np.tril_indices(d)] = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
    top = float(np.linalg.eigvalsh(absL.T @ absL)[-1])
    assert top <= _gram_bound(absL) * (1.0 + 10.0 * d * np.finfo(float).eps / 2.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    d=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 0.9, 1.1, 3.0, -0.1, -0.9, -1.1, -3.0]),
    fraction=st.sampled_from([None, 0.2, 0.5, 0.8]),
)
def test_certificate_is_sound(d, seed, scale, fraction):
    # lambda_min = scale * tol; a fraction sets tol/2 below c tr H, about
    # c ||L||_F^2, so that the certificate works near its rounding floor
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.5, 1.0, d - 1)
    c = np.sqrt(2.0) * (d + 3) * np.finfo(float).eps / 2.0  # as in _certified_psd
    tol = CP_TOL if fraction is None else fraction * 2.0 * c * rest.sum()
    U = random_unitary(d, rng)
    H = (U * np.append(rest, scale * tol)) @ U.conj().T
    H = (H + H.conj().T) / 2.0
    if _certified_psd(H, tol):
        assert np.linalg.eigvalsh(H)[0] >= -tol


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
        singular = np.linalg.cond(pivot) >= COND_MAX
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
        singular = np.linalg.cond(Q.matrix) >= COND_MAX
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
        singular = np.linalg.cond(c.B) >= COND_MAX
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


def test_lu_breakdown_is_singular_without_svd(monkeypatch):
    # an exactly zero pivot of the LU is the verdict: cond, a full SVD, is not asked
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called after an LU breakdown")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    with pytest.raises(SingularB):
        choi_exponential_form(new_channel("lambda", np.zeros((3, 3)), np.zeros((3, 3))))
    # lambda(0, 1) on X = 0: the pivot 1 + (X - 1) B is 0
    with pytest.raises(SingularPivot, match="pivot condition number inf"):
        apply_heisenberg_exp(new_channel("lambda", np.zeros((2, 2)), np.eye(2)), np.zeros((2, 2)))


def test_well_conditioned_pivot_skips_svd(rng, monkeypatch):
    c = random_channel(5, rng, "lambda")
    X = 0.3 * random_unitary(5, rng)

    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called for a well-conditioned pivot")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    apply_heisenberg_exp(c, X)
    apply_heisenberg_state(c, random_symbol(5, rng, 0.1, 0.9))
    choi_exponential_form(c)


def test_closed_forms_pay_one_inverse_and_one_slogdet(rng, monkeypatch):
    # the scale is slogdet's pair alone: det is never paid, not even to refuse
    calls = count_calls(monkeypatch, ("inv", "slogdet", "det"))
    for kind in KINDS:
        c = random_channel(5, rng, kind)
        X = 0.3 * random_unitary(5, rng)
        Q = random_symbol(5, rng, 0.1, 0.9)
        for form in (lambda: apply_heisenberg_exp(c, X), lambda: apply_heisenberg_state(c, Q),
                     lambda: choi_exponential_form(c)):
            calls.clear()
            form()
            assert calls == ["inv", "slogdet"]


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


def test_symbols_by_theorem_report_eigenvalues_in_unit_interval(rng):
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


def test_symbols_by_theorem_are_lazy_cached_and_frozen(rng, monkeypatch):
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


def cp_violations(rng, d=3):
    """(kind, side, channel, B): B breaks one side of the channel's CP test."""
    for kind in KINDS:
        c = random_channel(d, rng, kind)
        w, V = np.linalg.eigh(cp_bound(kind, c.A) - c.B)
        v = V[:, 0]
        yield kind, "upper", c, c.B + (w[0] + 1e-3) * np.outer(v, v.conj())
        w, V = np.linalg.eigh(c.B)
        v = V[:, 0]
        yield kind, "lower", c, c.B - (w[0] + 1e-3) * np.outer(v, v.conj())


def test_hand_built_non_cp_channel_still_raises(rng):
    # every way of making a channel runs the CP test, so none bypasses it
    for kind, side, c, bad_B in cp_violations(rng):
        match = "upper CP" if side == "upper" else "B has eigenvalue"
        with pytest.raises(NotCompletelyPositive, match=match):
            QuasiFreeChannel(kind, c.A, bad_B)
        with pytest.raises(NotCompletelyPositive, match=match):
            new_channel(kind, c.A, bad_B)
        with pytest.raises(NotCompletelyPositive, match=match):
            dataclasses.replace(c, B=bad_B)
