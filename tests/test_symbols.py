import dataclasses

import numpy as np
import pytest
from conftest import count_calls

from quasifree import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    NotQuasiFreeMixture,
    SpectrumOutOfRange,
    apply_schrodinger,
    conjugate_matrix,
    density_matrix,
    exp_element,
    mix_symbols,
    new_channel,
    spectral,
    validate_symbol,
)
from quasifree.sampling import random_channel, random_hermitian, random_symbol, random_unitary
from quasifree.symbols import MIX_RANK_TOL, Symbol, _operand, _read_spectrum


def test_validate_accepts_scalar_symbol():
    sym = validate_symbol(np.array([[0.5]]))
    assert sym.dim == 1
    assert np.allclose(sym.eigenvalues, [0.5])


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_symbol(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_rejects_out_of_range_spectrum():
    with pytest.raises(SpectrumOutOfRange):
        validate_symbol(np.diag([1.2, 0.3]), tol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_validate_rejects_non_finite_entries(bad):
    for M in ([[bad]], [[0.5, 0.0], [0.0, bad]]):
        with pytest.raises(InvalidArgument, match="non-finite"):
            validate_symbol(M)


NON_NUMERIC = {"numeric string": [["0.5"]], "string": [["a"]], "ragged": [[0.5, 0.0], [0.0]],
               "object": [[{}]]}


@pytest.mark.parametrize("entries", sorted(NON_NUMERIC))
@pytest.mark.parametrize(
    "site, name",
    [(validate_symbol, "matrix"), (lambda M: new_channel("lambda", M, M), "A"), (exp_element, "X"),
     (conjugate_matrix, "A")],
    ids=["validate_symbol", "new_channel", "exp_element", "conjugate_matrix"],
)
def test_non_numeric_operand_is_invalid_argument(site, name, entries):
    # a string is not read as a number, as the CLI does not read one
    with pytest.raises(InvalidArgument, match=f"^{name} (is ragged|has entries that are not numbers)"):
        site(NON_NUMERIC[entries])


def test_complex_operand_passes_without_a_copy():
    M = np.eye(2, dtype=complex)
    assert _operand(M, "M") is M


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10, True, "x", None])
def test_validate_rejects_bad_tolerance(tol):
    # with tol = NaN every range comparison would be False and diag(5, -3) pass
    with pytest.raises(InvalidArgument, match="tol"):
        validate_symbol(np.diag([5.0, -3.0]), tol=tol)


@pytest.mark.parametrize(
    "draw",
    [lambda rng: random_symbol(2.5, rng), lambda rng: random_symbol(-1, rng),
     lambda rng: random_channel(True, rng, "lambda"), lambda rng: random_hermitian(0, rng),
     lambda rng: random_unitary(np.float64(3.0), rng)],
    ids=["float", "negative", "bool", "zero", "numpy-float"],
)
def test_samplers_refuse_a_dimension_that_is_no_count(draw):
    # a typed error before any draw, not numpy's TypeError or ValueError
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch, match=r"^dimension must be an integer >= 1, got "):
        draw(rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("producer", ["validated", "channel image"])
def test_replace_starts_a_fresh_spectrum(producer):
    # the spectrum cache and the tolerance are each instance's own: replace
    # neither returns the source's spectrum nor inherits its proof
    Q = validate_symbol(np.diag([0.25, 0.5]))
    if producer == "channel image":
        Q = apply_schrodinger(new_channel("lambda", np.eye(2), np.zeros((2, 2))), Q)
    R = dataclasses.replace(Q, matrix=np.diag([5.0, -3.0]))
    with pytest.raises(SpectrumOutOfRange):
        R.eigenvalues
    assert np.array_equal(Q.eigenvalues, [0.5, 0.25])
    R = dataclasses.replace(Q, matrix=np.diag([0.9, 0.1]))
    assert np.array_equal(R.eigenvalues, [0.9, 0.1])
    assert np.array_equal(spectral(R).eigenvalues, [0.9, 0.1])
    assert np.array_equal(Q.eigenvalues, [0.5, 0.25])
    assert np.array_equal(spectral(Q).eigenvalues, [0.5, 0.25])


@pytest.mark.parametrize(
    "M", [np.diag([1e308, 1e308]), [[0.5, 1e308], [1e308, 0.5]]], ids=["diagonal", "off-diagonal"]
)
def test_an_overflowing_hermitian_part_is_out_of_range(M):
    # (M + M*)/2 overflowed to inf and NaN, which passed every < / > test: a valid symbol
    with pytest.raises(SpectrumOutOfRange, match=r"^the Hermitian part \(M \+ M\*\)/2 overflows"):
        validate_symbol(M)


def test_huge_finite_matrices_are_refused_without_a_warning():
    # the certificate's bounds overflow and certify nothing; eigvalsh decides
    with pytest.raises(SpectrumOutOfRange, match=r"leave \[0, 1\]"):
        validate_symbol(1e307 * (np.eye(20) + 0.5 * np.ones((20, 20))))
    with pytest.raises(NotHermitian, match="inf exceeds"):
        validate_symbol([[0.0, 1e308], [-1e308, 0.0]])


def test_a_nan_spectrum_is_out_of_range():
    with pytest.raises(SpectrumOutOfRange):
        _read_spectrum(Symbol(np.diag([0.5, 0.5])), np.array([np.nan, 0.5]))


def test_validate_rejects_empty_matrix():
    with pytest.raises(DimensionMismatch, match="positive dimension"):
        validate_symbol(np.zeros((0, 0)))


def test_validate_clamps_dust():
    sym = validate_symbol(np.diag([1.0 + 5e-11, -5e-11]))
    assert sym.eigenvalues.max() <= 1.0
    assert sym.eigenvalues.min() >= 0.0
    assert np.abs(sym.matrix - np.diag([1.0, 0.0])).max() < 1e-10


def test_spectral_diagonal():
    s = spectral(validate_symbol(np.diag([0.25, 0.5])))
    assert np.allclose(s.eigenvalues, [0.5, 0.25])


def test_spectral_rank_one_projector():
    s = spectral(validate_symbol(np.full((2, 2), 0.5)))
    assert np.allclose(s.eigenvalues, [1.0, 0.0], atol=1e-12)


def test_spectral_reconstruction_and_unitarity(rng):
    for d in (2, 3, 5):
        Q = random_symbol(d, rng)
        s = spectral(Q)
        recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        assert np.abs(recon - Q.matrix).max() < 1e-9
        assert np.abs(s.eigenvectors.conj().T @ s.eigenvectors - np.eye(d)).max() < 1e-10
        assert np.all(np.diff(s.eigenvalues) <= 1e-15)


def test_conjugate_scalar_and_real():
    assert conjugate_matrix(np.array([[1j]]))[0, 0] == -1j
    R = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(conjugate_matrix(R), R)


def test_conjugate_hermitian_is_transpose(rng):
    H = random_hermitian(4, rng)
    assert np.abs(conjugate_matrix(H) - H.T).max() < 1e-14


def test_conjugate_involution_and_multiplicative(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(conjugate_matrix(conjugate_matrix(A)), A)
    lhs = conjugate_matrix(A @ B)
    rhs = conjugate_matrix(A) @ conjugate_matrix(B)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_mix_rank_one_difference():
    Q1 = validate_symbol(np.diag([1.0, 0.0]))
    Q2 = validate_symbol(np.diag([0.0, 0.0]))
    mixed = mix_symbols(Q1, Q2, 0.5)
    assert np.abs(mixed.matrix - np.diag([0.5, 0.0])).max() < 1e-12


def test_mix_rank_zero_difference(rng):
    Q = random_symbol(3, rng)
    mixed = mix_symbols(Q, Q, 0.3)
    assert np.abs(mixed.matrix - Q.matrix).max() < 1e-12


def test_mix_rank_two_error():
    Q1 = validate_symbol(np.diag([1.0, 1.0]))
    Q2 = validate_symbol(np.diag([0.0, 0.0]))
    with pytest.raises(NotQuasiFreeMixture):
        mix_symbols(Q1, Q2, 0.5)
    # a difference with zero diagonal has no pivot; the SVD finds rank 2
    Q1 = validate_symbol(np.array([[0.5, 0.1], [0.1, 0.5]]))
    Q2 = validate_symbol(np.diag([0.5, 0.5]))
    with pytest.raises(NotQuasiFreeMixture, match="numerical rank 2"):
        mix_symbols(Q1, Q2, 0.5)


def test_mix_rank_one_difference_skips_svd(rng, monkeypatch):
    d = 6
    Q2 = random_symbol(d, rng, 0.1, 0.8)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    Q1 = validate_symbol(Q2.matrix + 0.15 * np.outer(v, v.conj()))
    calls = count_calls(monkeypatch, ("svd",))
    for lam in (0.2, 0.7):
        for a, b in ((Q1, Q2), (Q2, Q1)):
            mixed = mix_symbols(a, b, lam)
            assert np.abs(mixed.matrix - (lam * a.matrix + (1 - lam) * b.matrix)).max() < 1e-15
    assert calls == []


@pytest.mark.parametrize("ratio, accepted", [(1.05, False), (0.9, True), (0.3, True)])
def test_mix_second_singular_value_near_threshold(ratio, accepted, rng, monkeypatch):
    # D = U diag(a, sigma2, 0, 0) U*: the rank rule counts singular values above
    # MIX_RANK_TOL max|D|, and only sigma2 <= half that skips the SVD
    d = 4
    U = random_unitary(d, rng)
    P = [np.outer(U[:, k], U[:, k].conj()) for k in range(2)]
    base = 0.3 * P[0]
    scale = np.abs(base).max()
    for _ in range(3):  # max|D| moves with sigma2; settle it
        D = base + ratio * MIX_RANK_TOL * scale * P[1]
        scale = np.abs(D).max()
    sv = np.linalg.svd(D, compute_uv=False)
    assert (sv[1] <= MIX_RANK_TOL * scale) == accepted
    Q2 = validate_symbol(0.5 * np.eye(d))
    Q1 = validate_symbol(Q2.matrix + D)
    calls = count_calls(monkeypatch, ("svd",))
    if accepted:
        mix_symbols(Q1, Q2, 0.5)
    else:
        with pytest.raises(NotQuasiFreeMixture, match="numerical rank 2"):
            mix_symbols(Q1, Q2, 0.5)
    assert len(calls) == (0 if ratio < 0.5 else 1)


def test_mix_oracle_identity(rng):
    # rank-1 perturbations: the dense mixture is exactly the affine symbol
    for d in (2, 3, 5):
        Q2 = random_symbol(d, rng, 0.1, 0.8)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        Q1 = validate_symbol(Q2.matrix + 0.15 * np.outer(v, v.conj()))
        lam = 0.4
        mixed = mix_symbols(Q1, Q2, lam)
        dense = lam * density_matrix(Q1) + (1 - lam) * density_matrix(Q2)
        assert np.abs(density_matrix(mixed) - dense).max() < 1e-9


def test_mix_rank_two_dense_witness(rng):
    # the error branch flags combinations that genuinely fail on the dense side
    for d in (2, 3, 4):
        Q1 = random_symbol(d, rng, 0.1, 0.9)
        Q2 = random_symbol(d, rng, 0.1, 0.9)
        lam = 0.5
        with pytest.raises(NotQuasiFreeMixture):
            mix_symbols(Q1, Q2, lam)
        affine = validate_symbol(lam * Q1.matrix + (1 - lam) * Q2.matrix)
        dense = lam * density_matrix(Q1) + (1 - lam) * density_matrix(Q2)
        assert np.abs(density_matrix(affine) - dense).max() >= 1e-6
