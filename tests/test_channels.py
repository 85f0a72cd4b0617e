import dataclasses
import re

import numpy as np
import pytest
from conftest import heisenberg_pivot

from quasifree import (
    AffineSymbolMap,
    DimensionMismatch,
    InvalidArgument,
    NotCompletelyPositive,
    QuasiFreeChannel,
    ScaledExponential,
    ScaleOutOfRange,
    SingularPivot,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    choi_exponential_form,
    classify_affine_map,
    compose,
    density_matrix,
    exp_element,
    fock_basis,
    mix_symbols,
    new_channel,
    stinespring_heisenberg,
    stinespring_schrodinger,
    validate_symbol,
    von_neumann_entropy,
)
from quasifree.channels import _as_lambda, _twist_past, cp_bound
from quasifree.sampling import random_channel, random_symbol, random_unitary

KINDS = ("lambda", "gamma")


def identity_channel(d):
    return new_channel("lambda", np.eye(d), np.zeros((d, d)))


def test_new_channel_examples():
    identity_channel(2)
    with pytest.raises(NotCompletelyPositive):
        new_channel("lambda", np.eye(2), 0.1 * np.eye(2))
    new_channel("lambda", np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", KINDS)
def test_new_channel_rejects_non_finite_entries(kind, bad):
    A, B = 0.5 * np.eye(2), 0.25 * np.eye(2)
    for name, args in (("A", (np.where(A, bad, 0.0), B)), ("B", (A, np.where(B, bad, 0.0)))):
        with pytest.raises(InvalidArgument, match=f"{name} has non-finite"):
            new_channel(kind, *args)


@pytest.mark.parametrize(
    "kind, A, B, error",
    [
        ("lambda", np.diag([np.nan, 0.5]), 0.1 * np.eye(2), InvalidArgument),
        ("gamma", np.diag([0.5, np.inf]), 0.1 * np.eye(2), InvalidArgument),
        ("lambda", 0.5 * np.eye(2), np.diag([0.1, np.nan]), InvalidArgument),
        ("gamma", 0.5 * np.eye(2), np.diag([-np.inf, 0.1]), InvalidArgument),
        ("foo", 0.5 * np.eye(2), 0.1 * np.eye(2), InvalidArgument),
        ("lambda", np.zeros((2, 3)), np.zeros((2, 3)), DimensionMismatch),
        ("gamma", 0.5 * np.eye(2), 0.1 * np.eye(3), DimensionMismatch),
        ("lambda", [[0.5, 0.0], [0.0, 0.5]], 0.1 * np.eye(2), None),
    ],
    ids=["nan-A", "inf-A", "nan-B", "inf-B", "kind-foo", "non-square", "mismatched", "list-A"],
)
def test_direct_construction_is_validated(kind, A, B, error):
    # the constructor itself gates its operands, as new_channel does
    if error is not None:
        with pytest.raises(error):
            QuasiFreeChannel(kind, A, B)
        return
    c = QuasiFreeChannel(kind, A, B)
    assert c.dim == 2 and c.A.dtype == complex and not c.A.flags.writeable


def test_cp_bound_reads_operands_as_the_constructor_does():
    with pytest.raises(InvalidArgument, match="kind"):
        cp_bound("foo", 0.5 * np.eye(2))
    with pytest.raises(InvalidArgument, match="non-finite"):
        cp_bound("lambda", np.diag([np.nan, 0.5]))
    bound = cp_bound("gamma", [[0.5, 0.0], [0.0, 0.5j]])
    assert bound.dtype == complex and np.array_equal(bound, 0.75 * np.eye(2))


def test_records_compare_by_identity(rng):
    # array-holding records use object identity for == and hash
    for x in (random_channel(2, rng, "lambda"), random_symbol(2, rng)):
        copy = dataclasses.replace(x)
        assert (x == copy) is False and x == x
        assert hash(x) == hash(x) and len({x, copy}) == 2


def test_new_channel_rejects_empty_matrices():
    with pytest.raises(DimensionMismatch, match="positive dimension"):
        new_channel("lambda", np.zeros((0, 0)), np.zeros((0, 0)))


def test_classify_rejects_non_finite_and_empty():
    A, B = 0.5 * np.eye(2), 0.25 * np.eye(2)
    for sign, transpose in ((1, False), (-1, True)):
        with pytest.raises(InvalidArgument):
            classify_affine_map(AffineSymbolMap(sign, transpose, A, np.full((2, 2), np.nan)))
        with pytest.raises(InvalidArgument):
            classify_affine_map(AffineSymbolMap(sign, transpose, np.full((2, 2), np.inf), B))
        with pytest.raises(DimensionMismatch):
            classify_affine_map(AffineSymbolMap(sign, transpose, np.zeros((0, 0)), np.zeros((0, 0))))


@pytest.mark.parametrize(
    "A, B",
    [
        (1e200 * np.eye(2), 0.1 * np.eye(2)),
        (1e200 * (1 + 1j) * np.eye(2), 0.1 * np.eye(2)),
        (0.5 * np.eye(2), np.diag([1e308, 0.1])),
    ],
    ids=["A*A-inf", "A*A-nan", "B+B*-inf"],
)
@pytest.mark.parametrize("kind", KINDS)
def test_an_overflowing_cp_slack_is_not_cp(kind, A, B):
    # the slack held inf or NaN, which passed every < / > test: the channel was accepted
    with pytest.raises(NotCompletelyPositive, match="^B or its CP slack cp_bound - B overflows"):
        new_channel(kind, A, B)


def test_a_huge_finite_b_is_refused_without_a_warning():
    # finite, but the certificate's bounds on B overflow; they certify nothing
    B = 1e307 * (np.eye(20) + 0.5 * np.ones((20, 20)))
    with pytest.raises(NotCompletelyPositive, match="upper CP constraint violated"):
        new_channel("lambda", 0.5 * np.eye(20), B)


@pytest.mark.parametrize("d", [1, 3, 20])
@pytest.mark.parametrize("kind", KINDS)
def test_the_twist_exchanges_b_with_the_transposed_slack(kind, d, rng):
    At, B, _ = _as_lambda(random_channel(d, rng, kind))
    Ac, Bt = _twist_past(At, B)
    tol = 1e-14 * max(1.0, np.abs(B).max())
    assert np.abs(cp_bound("lambda", Ac) - Bt - B.T).max() <= tol
    back, again = _twist_past(Ac, Bt)
    assert np.array_equal(back, At) and np.abs(again - B).max() <= tol
    QuasiFreeChannel("lambda", Ac, Bt)


@pytest.mark.parametrize("kind", KINDS)
def test_random_channels_up_to_the_unit_ball_are_cp(kind):
    # the root of the CP bound is read off A's own SVD; a wrong one leaves B outside it
    for d in (2, 5):
        for seed in range(50):
            random_channel(d, np.random.default_rng(seed), kind, contraction=(0.1, 0.999))


def test_new_channel_rejects_non_hermitian_b():
    with pytest.raises(NotCompletelyPositive):
        new_channel("lambda", np.zeros((2, 2)), np.array([[0.0, 0.1], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mix_symbols(validate_symbol(np.eye(1) / 2), validate_symbol(np.eye(1) / 2), 1.5),
        lambda: mix_symbols(validate_symbol(np.eye(1) / 2), validate_symbol(np.eye(1) / 2), None),
        lambda: mix_symbols(validate_symbol(np.eye(1) / 2), validate_symbol(np.eye(1) / 2), [0.5]),
        lambda: new_channel("delta", np.eye(2), np.zeros((2, 2))),
        lambda: classify_affine_map(AffineSymbolMap(2, False, np.eye(2), np.zeros((2, 2)))),
        lambda: classify_affine_map(AffineSymbolMap(True, False, 0.5 * np.eye(2), np.zeros((2, 2)))),
    ],
    ids=["mix-weight", "mix-weight-none", "mix-weight-list", "channel-kind", "affine-sign",
         "affine-sign-bool"],
)
def test_invalid_arguments_are_typed(call):
    # a domain error, still catchable as the ValueError it used to be
    with pytest.raises(InvalidArgument):
        call()
    with pytest.raises(ValueError):
        call()


def test_gamma_bound_uses_transposed_gram():
    # A^T conj(A) is the entrywise conjugate of A*A, so any A with a non-real
    # column overlap separates the two bounds; B saturating the gamma bound
    # must validate as gamma and fail as lambda
    A = np.array([[0.8, 0.4j], [0.0, 0.0]], dtype=complex)
    B_gamma = np.eye(2) - A.T @ np.conj(A)
    new_channel("gamma", A, B_gamma)
    with pytest.raises(NotCompletelyPositive):
        new_channel("lambda", A, B_gamma)


def test_schrodinger_identity_and_constant(rng):
    d = 3
    Q = random_symbol(d, rng)
    out = apply_schrodinger(identity_channel(d), Q)
    assert np.abs(out.matrix - Q.matrix).max() < 1e-12
    Q0 = random_symbol(d, rng)
    constant = new_channel("lambda", np.zeros((d, d)), Q0.matrix)
    out = apply_schrodinger(constant, Q)
    assert np.abs(out.matrix - Q0.matrix).max() < 1e-12


def test_schrodinger_worked_example():
    c = new_channel("lambda", np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))
    out = apply_schrodinger(c, validate_symbol(np.diag([1.0, 0.0])))
    assert np.abs(out.matrix - np.diag([1.0, 0.5])).max() < 1e-12


def test_schrodinger_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        apply_schrodinger(identity_channel(2), random_symbol(3, rng))


def test_heisenberg_exp_identity_and_contraction(rng):
    d = 3
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    se = apply_heisenberg_exp(identity_channel(d), X)
    assert abs(se.scale - 1.0) < 1e-12
    assert np.abs(se.argument - X).max() < 1e-12
    B = np.diag([0.3, 0.5, 0.7])
    replacer = new_channel("lambda", np.zeros((d, d)), B)
    se = apply_heisenberg_exp(replacer, X)
    expect = np.linalg.det(np.eye(d) - B + X @ B)
    assert abs(se.scale - expect) < 1e-10
    assert np.abs(se.argument - np.eye(d)).max() < 1e-12


def test_heisenberg_exp_singular_pivot():
    # A = 0, B = 1 makes the pivot equal to X itself
    c = new_channel("lambda", np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularPivot):
        apply_heisenberg_exp(c, np.zeros((2, 2)))


def test_heisenberg_scale_out_of_range_is_typed():
    # a well-conditioned pivot whose determinant overflows at d = 500: the
    # closed form keeps it as slogdet's pair, and reading the scale refuses
    rng = np.random.default_rng(0)
    c = random_channel(500, rng, "lambda")
    X = rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))
    pivot = np.eye(500) + (X - np.eye(500)) @ c.B
    logabsdet = np.linalg.slogdet(pivot)[1]
    assert logabsdet > np.log(np.finfo(float).max)
    image = apply_heisenberg_exp(c, X)
    assert image.log_abs_scale == logabsdet
    with pytest.raises(ScaleOutOfRange, match=re.escape(f"log|det| = {logabsdet:.6e}")):
        image.scale


def test_heisenberg_refuses_a_subnormal_scale():
    # pivot = 1 - Q + Q B = B for Q = 1, whose determinant 1e-320 is subnormal:
    # the log form holds it, and reading it as a double refuses
    c = new_channel("lambda", 0.5 * np.eye(2), 1e-160 * np.eye(2))
    image = apply_heisenberg_state(c, validate_symbol(np.eye(2)))
    assert image.log_abs_scale == np.linalg.slogdet(c.B)[1]
    with pytest.raises(ScaleOutOfRange, match=re.escape(f"log|det| = {2 * np.log(1e-160):.6e}")):
        image.scale
    with pytest.raises(ScaleOutOfRange, match=re.escape("log|det| = nan")):
        dataclasses.replace(image, log_abs_scale=np.nan).scale


def test_scale_judges_only_its_modulus():
    # a normal modulus whose phase carries rounding, 7.3e-17 off the real axis:
    # the imaginary part, that rounding times the modulus, is subnormal and is
    # kept as numpy's det from slogdet gives it; a modulus below tiny refuses
    image = ScaledExponential(1.0000000000000002 + 7.3e-17j, -702.69, np.eye(1))
    assert image.scale == 6.69284105692099e-306 + 4.9e-322j
    assert abs(image.scale.imag) < np.finfo(float).tiny <= abs(image.scale)
    with pytest.raises(ScaleOutOfRange, match=re.escape(f"log|det| = {-709.0:.6e}")):
        dataclasses.replace(image, log_abs_scale=-709.0).scale


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("d", [1, 3, 20, 100])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("form", ["exp", "state", "choi"])
def test_heisenberg_finite_scale_is_plain_det(form, kind, d, rng):
    # a normal scale is np.linalg.det bit for bit: of the pivot S + (T - S) B
    # for the Heisenberg forms, of B (its real part) for the Choi form
    c = random_channel(d, rng, kind)
    eye = np.eye(d)
    if form == "choi":
        assert same_bits(choi_exponential_form(c).scale, np.linalg.det(c.B).real)
        return
    if form == "exp":
        X = eye + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
        image, S, T = apply_heisenberg_exp(c, X), eye, X
    else:
        Q = random_symbol(d, rng, 0.05, 0.95)
        image, S, T = apply_heisenberg_state(c, Q), eye - Q.matrix, Q.matrix
    assert same_bits(image.scale, np.linalg.det(heisenberg_pivot(c, S, T)))


def test_heisenberg_duality_dense(rng):
    for kind in KINDS:
        for d in (1, 2, 3, 4):
            c = random_channel(d, rng, kind)
            Q = random_symbol(d, rng, 0.05, 0.95)
            X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            se = apply_heisenberg_exp(c, X)
            out = apply_schrodinger(c, Q)
            lhs = complex(np.trace(density_matrix(out) @ exp_element(X)))
            rhs = se.scale * complex(np.trace(density_matrix(Q) @ exp_element(se.argument)))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_heisenberg_exp_unitality_dense(rng):
    for kind in KINDS:
        c = random_channel(3, rng, kind)
        se = apply_heisenberg_exp(c, np.eye(3))
        dense = se.scale * exp_element(se.argument)
        assert np.abs(dense - np.eye(8)).max() < 1e-10


def test_heisenberg_lemma_both_pivot_sides(rng):
    # (1-B+XB)^{-1}(X-1) = (X-1)(1-B+BX)^{-1} and the gamma analogue
    for kind in KINDS:
        for d in (2, 3):
            c = random_channel(d, rng, kind)
            X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            se = apply_heisenberg_exp(c, X)
            eye = np.eye(d)
            A, B = c.A, c.B
            if kind == "lambda":
                pivot = eye - B + B @ X
                arg = eye + A @ (X - eye) @ np.linalg.inv(pivot) @ A.conj().T
            else:
                M = B.T + A.conj().T @ A
                pivot = eye - M + M @ X.T
                arg = eye + A @ (eye - X.T) @ np.linalg.inv(pivot) @ A.conj().T
            scale = complex(np.linalg.det(pivot))
            lhs = se.scale * exp_element(se.argument)
            rhs = scale * exp_element(arg)
            assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


def test_heisenberg_state_identity_is_density(rng):
    d = 3
    Q = random_symbol(d, rng, 0.05, 0.95)
    ss = apply_heisenberg_state(identity_channel(d), Q)
    assert np.abs(ss.scale * exp_element(ss.argument) - density_matrix(Q)).max() < 1e-10


def test_heisenberg_state_unitality_at_half(rng):
    for kind in KINDS:
        d = 2
        c = random_channel(d, rng, kind)
        Q = validate_symbol(0.5 * np.eye(d))
        ss = apply_heisenberg_state(c, Q)
        dense = ss.scale * exp_element(ss.argument)
        assert np.abs(dense - np.eye(2**d) / 2**d).max() < 1e-10


def test_heisenberg_state_matches_exp_form(rng):
    for kind in KINDS:
        for d in (2, 3):
            c = random_channel(d, rng, kind)
            Q = random_symbol(d, rng, 0.1, 0.9)
            eye = np.eye(d)
            X = Q.matrix @ np.linalg.inv(eye - Q.matrix)
            se = apply_heisenberg_exp(c, X)
            ss = apply_heisenberg_state(c, Q)
            det_factor = complex(np.linalg.det(eye - Q.matrix))
            assert abs(ss.scale - det_factor * se.scale) < 1e-9 * max(1.0, abs(ss.scale))
            assert np.abs(ss.argument - se.argument).max() < 1e-9


def test_heisenberg_state_matches_stinespring(rng):
    for kind in KINDS:
        for d in (1, 2, 3):
            c = random_channel(d, rng, kind)
            Q = random_symbol(d, rng, 0.05, 0.95)
            ss = apply_heisenberg_state(c, Q)
            dense = stinespring_heisenberg(c, density_matrix(Q))
            assert np.abs(ss.scale * exp_element(ss.argument) - dense).max() < 1e-8


def test_heisenberg_state_projector_limit(rng):
    # symbols approaching a projector stay consistent with the dense oracle
    d = 2
    for kind in KINDS:
        c = random_channel(d, rng, kind)
        for eps in (1e-2, 1e-4):
            Q = validate_symbol((1.0 - eps) * np.diag([1.0, 0.0]))
            ss = apply_heisenberg_state(c, Q)
            dense = stinespring_heisenberg(c, density_matrix(Q))
            assert np.abs(ss.scale * exp_element(ss.argument) - dense).max() < 1e-8


def test_trace_preservation_dense(rng):
    for kind in KINDS:
        for d in (2, 3):
            c = random_channel(d, rng, kind)
            rho = density_matrix(random_symbol(d, rng))
            out = stinespring_schrodinger(c, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-9


def test_covariance_dense(rng):
    for kind in KINDS:
        for d in (1, 2, 3, 4):
            c = random_channel(d, rng, kind)
            Q = random_symbol(d, rng)
            lhs = stinespring_schrodinger(c, density_matrix(Q))
            rhs = density_matrix(apply_schrodinger(c, Q))
            assert np.abs(lhs - rhs).max() < 1e-8


def test_compose_identity_neutral(rng):
    for kind in KINDS:
        d = 3
        c = random_channel(d, rng, kind)
        Q = random_symbol(d, rng)
        for combo in (compose(identity_channel(d), c), compose(c, identity_channel(d))):
            assert combo.kind == kind
            lhs = apply_schrodinger(combo, Q).matrix
            rhs = apply_schrodinger(c, Q).matrix
            assert np.abs(lhs - rhs).max() < 1e-10


def test_compose_worked_example():
    c = new_channel("lambda", np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))
    cc = compose(c, c)
    assert np.abs(cc.A - 0.5 * np.eye(2)).max() < 1e-12
    assert np.abs(cc.B - 0.75 * np.eye(2)).max() < 1e-12
    Q = validate_symbol(np.diag([1.0, 0.0]))
    two = apply_schrodinger(c, apply_schrodinger(c, Q)).matrix
    one = apply_schrodinger(cc, Q).matrix
    assert np.abs(two - one).max() < 1e-12


def test_compose_all_kind_pairs(rng):
    expected_kind = {
        ("lambda", "lambda"): "lambda",
        ("lambda", "gamma"): "gamma",
        ("gamma", "lambda"): "gamma",
        ("gamma", "gamma"): "lambda",
    }
    d = 3
    for k1 in KINDS:
        for k2 in KINDS:
            c1 = random_channel(d, rng, k1)
            c2 = random_channel(d, rng, k2)
            combo = compose(c2, c1)
            assert combo.kind == expected_kind[(k1, k2)]
            Q = random_symbol(d, rng)
            two = apply_schrodinger(c2, apply_schrodinger(c1, Q)).matrix
            one = apply_schrodinger(combo, Q).matrix
            assert np.abs(two - one).max() < 1e-10


def test_unitary_channel_preserves_entropy(rng):
    d = 4
    U = random_unitary(d, rng)
    c = new_channel("lambda", U, np.zeros((d, d)))
    Q = random_symbol(d, rng, 0.05, 0.95)
    out = apply_schrodinger(c, Q)
    assert abs(von_neumann_entropy(out) - von_neumann_entropy(Q)) < 1e-10


# --- classify_affine_map ----------------------------------------------------


def gicar_project(M, d):
    basis = fock_basis(d)
    out = np.zeros_like(M)
    for k in range(d + 1):
        sl = basis.sector(k)
        out[sl, sl] = M[sl, sl]
    return out


def dense_choi_min_eigenvalue(m, d, rng, window=(0.02, 0.98)):
    """Least-squares realization of the state-level map over random quasi-free
    states, then the minimum eigenvalue of its Choi matrix."""
    n = 2**d
    samples = 4 * n * n
    X = np.zeros((n * n, samples), dtype=complex)
    Y = np.zeros((n * n, samples), dtype=complex)
    for s in range(samples):
        Q = random_symbol(d, rng, *window)
        image = m.sign * (m.A.conj().T @ (Q.matrix.T if m.transpose_input else Q.matrix) @ m.A) + m.B
        X[:, s] = density_matrix(Q).reshape(-1)
        Y[:, s] = density_matrix(validate_symbol(image, tol=1e-8)).reshape(-1)
    S = np.linalg.lstsq(X.T, Y.T, rcond=None)[0].T
    assert np.abs(X.T @ S.T - Y.T).max() < 1e-10  # the extension really is linear
    C = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            img = (S @ gicar_project(unit, d).reshape(-1)).reshape(n, n)
            C[i * n : (i + 1) * n, j * n : (j + 1) * n] = img
    return float(np.linalg.eigvalsh((C + C.conj().T) / 2.0)[0])


def test_classify_canonical_examples():
    eye = np.eye(2)
    assert classify_affine_map(AffineSymbolMap(1, False, eye, np.zeros((2, 2)))) == "CP"
    assert classify_affine_map(AffineSymbolMap(-1, True, eye, eye)) == "CP"
    assert classify_affine_map(AffineSymbolMap(-1, True, eye, 0.5 * eye)) == "NotCP"


def test_an_overflowing_a_star_a_is_not_cp():
    # A*A <= B <= 1 needs ||A|| <= 1: an A*A beyond double range is NotCP, with
    # no warning and no refusal of the finite B the caller gave
    huge = 1e200 * np.eye(1)
    for transpose in (True, False):
        assert classify_affine_map(AffineSymbolMap(-1, transpose, huge, np.eye(1))) == "NotCP"
    rank_one = np.array([[1e200, 1e200], [0.0, 0.0]])
    assert classify_affine_map(AffineSymbolMap(-1, False, rank_one, np.eye(2))) == "NotCP"


def test_classify_non_canonical_needs_rank_one():
    eye = np.eye(2)
    # full transpose: rank-2 A, never CP even though the eigenvalue test holds
    assert classify_affine_map(AffineSymbolMap(1, True, eye, np.zeros((2, 2)))) == "NotCP"
    assert classify_affine_map(AffineSymbolMap(1, True, np.sqrt(0.5) * eye, 0.25 * eye)) == "NotCP"
    # rank-1 A: the transpose is absorbed by conjugating the factors
    A = np.outer([0.6, 0.3j], [1.0, 1.0]) / np.sqrt(2)
    gram = A.conj().T @ A
    assert classify_affine_map(AffineSymbolMap(1, True, A, 0.5 * (eye - gram))) == "CP"
    assert classify_affine_map(AffineSymbolMap(1, True, A, eye - 0.5 * gram)) == "NotCP"
    assert classify_affine_map(AffineSymbolMap(-1, False, A, gram + 0.4 * (eye - gram))) == "CP"
    assert classify_affine_map(AffineSymbolMap(-1, False, A, 0.4 * gram)) == "NotCP"
    # constant maps are the rank-0 case
    assert classify_affine_map(AffineSymbolMap(-1, False, np.zeros((2, 2)), 0.3 * eye)) == "CP"


@pytest.mark.parametrize("d", [2, 3])
def test_classify_matches_dense_choi(d, rng):
    eye = np.eye(d)
    w = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 0.4
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u /= np.linalg.norm(u)
    A1 = np.outer(w, u.conj())
    gram1 = A1.conj().T @ A1
    cases = [
        (AffineSymbolMap(1, False, np.sqrt(0.5) * eye, 0.25 * eye), (0.02, 0.98)),
        (AffineSymbolMap(-1, True, eye, 0.5 * eye), (0.05, 0.45)),
        (AffineSymbolMap(1, True, np.sqrt(0.3) * eye, 0.2 * eye), (0.02, 0.98)),
        (AffineSymbolMap(1, True, A1, 0.5 * (eye - gram1)), (0.02, 0.98)),
        (AffineSymbolMap(-1, False, A1, gram1 + 0.4 * (eye - gram1)), (0.02, 0.98)),
    ]
    for m, window in cases:
        verdict = classify_affine_map(m)
        min_eig = dense_choi_min_eigenvalue(m, d, rng, window)
        assert (verdict == "CP") == (min_eig > -1e-6), (m.sign, m.transpose_input, min_eig)
