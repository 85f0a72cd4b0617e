import numpy as np
import pytest

from quasifree import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    NotQuasiFreeMixture,
    SpectrumOutOfRange,
    conjugate_matrix,
    density_matrix,
    mix_symbols,
    spectral,
    validate_symbol,
)
from quasifree.sampling import random_hermitian, random_symbol


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
def test_validate_rejects_bad_tolerance(tol):
    # with tol = NaN every range comparison would be False and diag(5, -3) pass
    with pytest.raises(InvalidArgument, match="tol"):
        validate_symbol(np.diag([5.0, -3.0]), tol=tol)


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
