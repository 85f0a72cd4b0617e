import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from conftest import brute_subset_products, random_density

from quasifree import (
    DimensionCap,
    DimensionMismatch,
    InvalidArgument,
    NotEvenState,
    NotOrthonormal,
    ScaleOutOfRange,
    ZeroVector,
    annihilation_operator,
    apply_heisenberg_state,
    compose,
    conjugate_matrix,
    creation_operator,
    dense_choi,
    density_matrix,
    exp_element,
    exp_spectrum,
    fock_basis,
    is_elementary,
    k_particle_projector,
    mix_symbols,
    new_channel,
    number_operator,
    parity_operator,
    partial_trace,
    particle_hole_unitary,
    relative_entropy,
    split_isomorphism,
    validate_symbol,
    wedge_state_product,
)
import quasifree.choi
import quasifree.fock
from quasifree.fock import HARD_ORACLE_CAP, _subset_weights, _wedge_map
from quasifree.channels import apply_heisenberg_exp
from quasifree.choi import stinespring_heisenberg, stinespring_schrodinger
from quasifree.sampling import random_channel, random_symbol, random_unitary


def basis_vector(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def test_basis_order_is_graded_lexicographic():
    # (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2) as bitmasks
    assert fock_basis(3).masks.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]


def test_creation_two_level():
    adag = creation_operator([1.0])
    assert np.allclose(adag, [[0, 0], [1, 0]])
    vac = np.array([1.0, 0.0])
    assert np.allclose(adag @ adag @ vac, 0.0)


def creation_operator_reference(phi):
    """a*(phi) by a loop over the modes with phi[mode] != 0: each state without
    the mode goes to the state with it, signed by the occupied modes below."""
    basis = fock_basis(phi.shape[0])
    occ = basis.occupation
    below = np.cumsum(occ, axis=1) - occ
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for mode in np.flatnonzero(phi):
        cols = np.flatnonzero(occ[:, mode] == 0)
        rows = basis.position[basis.masks[cols] | (1 << mode)]
        out[rows, cols] = np.where(below[cols, mode] % 2, -phi[mode], phi[mode])
    return out


def test_creation_operator_matches_the_per_mode_loop_bit_for_bit(rng):
    # bytes, not values: a zero phi entry (also -0.0) gives +0.0 and a negated
    # real entry keeps its -0.0 imaginary part, which no CAR test can see
    for d in range(1, 7):
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi[rng.integers(d)] = 0.0
        for v in (phi, phi.real, -phi.real, *np.eye(d), *-np.eye(d)):
            expect = creation_operator_reference(np.asarray(v, dtype=complex))
            assert creation_operator(v).tobytes() == expect.tobytes()


def test_sector_offsets_are_the_binomial_sums():
    for d in range(HARD_ORACLE_CAP + 1):
        basis = fock_basis(d)
        assert not basis.starts.flags.writeable
        for k in range(d + 1):
            start = sum(comb(d, j) for j in range(k))
            assert basis.sector(k) == slice(start, start + comb(d, k))


def test_car_anticommutators():
    d = 3
    eye = np.eye(2**d)
    for i in range(d):
        for j in range(d):
            a = creation_operator(basis_vector(d, i)).conj().T
            adag = creation_operator(basis_vector(d, j))
            acomm = a @ adag + adag @ a
            expect = eye if i == j else np.zeros_like(eye)
            assert np.abs(acomm - expect).max() < 1e-12
            cc = creation_operator(basis_vector(d, i)) @ adag
            cc += adag @ creation_operator(basis_vector(d, i))
            assert np.abs(cc).max() < 1e-12


def test_annihilation_car_with_creation():
    # {a(phi), a*(psi)} = <phi, psi> 1, a(phi) antilinear in phi
    rng = np.random.default_rng(3)
    phi, psi = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    a, adag = annihilation_operator(phi), creation_operator(psi)
    assert np.abs(a @ adag + adag @ a - np.vdot(phi, psi) * np.eye(8)).max() < 1e-12
    assert np.abs(annihilation_operator(1j * phi) + 1j * a).max() < 1e-15


def test_number_operator_diagonal():
    assert np.allclose(np.diag(number_operator(2)).real, [0, 1, 1, 2])


def test_number_counts_two_particle_vector():
    d = 3
    vec = creation_operator(basis_vector(d, 0)) @ creation_operator(basis_vector(d, 1))
    vec = vec @ np.eye(2**d)[:, 0]
    assert np.abs(number_operator(d) @ vec - 2.0 * vec).max() < 1e-12


def test_number_equals_mode_sum():
    d = 4
    total = sum(
        creation_operator(basis_vector(d, i)) @ creation_operator(basis_vector(d, i)).conj().T
        for i in range(d)
    )
    assert np.abs(total - number_operator(d)).max() < 1e-12


def test_exp_identity_and_trace():
    assert np.abs(exp_element(np.eye(3)) - np.eye(8)).max() < 1e-14
    assert abs(np.trace(exp_element(np.diag([1.0, 2.0]))) - 6.0) < 1e-12


def test_exp_product_adjoint_positivity(rng):
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.abs(exp_element(X) @ exp_element(Y) - exp_element(X @ Y)).max() < 1e-10
    assert np.abs(exp_element(X).conj().T - exp_element(X.conj().T)).max() < 1e-12
    P = X @ X.conj().T
    assert np.linalg.eigvalsh(exp_element(P))[0] > -1e-10


def test_exp_block_diagonal_over_sectors(rng):
    d = 3
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    E = exp_element(X)
    N = number_operator(d)
    assert np.abs(E @ N - N @ E).max() < 1e-12


def test_exp_direct_sum_factorizes(rng):
    d1, d2 = 2, 2
    X1 = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
    X2 = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
    X = np.block([[X1, np.zeros((d1, d2))], [np.zeros((d2, d1)), X2]])
    U = split_isomorphism(d1, d2)
    lhs = U @ exp_element(X) @ U.conj().T
    assert np.abs(lhs - np.kron(exp_element(X1), exp_element(X2))).max() < 1e-10


def minors_reference(X):
    """exp_element by its definition: every k x k minor det X[K, L] as a
    determinant, zero between sectors."""
    d = X.shape[0]
    subsets = [s for k in range(d + 1) for s in combinations(range(d), k)]
    E = np.zeros((2**d, 2**d), dtype=complex)
    for r, K in enumerate(subsets):
        for c, L in enumerate(subsets):
            if len(K) == len(L):
                E[r, c] = np.linalg.det(X[np.ix_(K, L)]) if K else 1.0
    return E


@pytest.mark.parametrize("d", range(1, 8))
def test_exp_element_matches_determinant_minors(rng, d):
    full = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    low_rank = full[:, : max(1, d // 2)] @ full[: max(1, d // 2), :]
    cases = [full, rng.standard_normal((d, d)), low_rank, np.zeros((d, d))]
    sizes = [comb(d, k) for k in range(d + 1)]
    in_sector = np.repeat(np.arange(d + 1), sizes)
    off_sector = in_sector[:, None] != in_sector[None, :]
    for X in cases:
        E = exp_element(X)
        ref = minors_reference(X)
        # vanishing minors of the low-rank X cancel terms of size |E|
        assert np.abs(E - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.all(E[off_sector] == 0.0)


def test_exp_spectrum_examples():
    got = np.sort(exp_spectrum(np.diag([2.0, 3.0])).real)
    assert np.allclose(got, [1, 2, 3, 6])
    got = exp_spectrum(np.zeros((3, 3)))
    assert np.isclose(sorted(got.real)[-1], 1.0) and np.count_nonzero(got) == 1
    lam = 0.37 - 0.2j
    got = np.sort_complex(exp_spectrum(np.array([[lam]])))
    assert np.allclose(got, np.sort_complex(np.array([1.0, lam])))
    # an eigenvalue far below the largest still enters every product
    got = np.sort(exp_spectrum(np.diag([1e10, 0.1])).real)
    assert np.allclose(got, [0.1, 1.0, 1e9, 1e10], rtol=1e-15, atol=0.0)


def test_exp_spectrum_refuses_a_product_beyond_double_range():
    with pytest.raises(ScaleOutOfRange, match=r"log\|\.\| = 9\.210340e\+02"):
        exp_spectrum(np.diag([1e200, 1e200]))  # the product 1e400 overflows
    for pair, largest in (([1e150, 1e145], 1e295), ([1e200, 1e100], 1e300)):  # in range
        got = exp_spectrum(np.diag(pair))
        assert np.isfinite(got).all() and abs(np.sort(got.real)[-1] / largest - 1.0) < 1e-12
    with pytest.raises(ScaleOutOfRange, match=r"log\|\.\| = 1\.381551e\+03"):
        exp_spectrum(np.diag([1e300, 1e300, 0.0]))  # a zero eigenvalue adds no log term


def test_exp_element_refuses_a_minor_beyond_double_range():
    # as exp_spectrum of the same X does: its sector-2 minor is -2e400
    X = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
    for build in (exp_element, exp_spectrum):
        with pytest.raises(ScaleOutOfRange):
            build(X)
    with pytest.raises(ScaleOutOfRange, match="sector-2 minor outside double range"):
        exp_element(X)
    assert np.isfinite(exp_element(1e150 * np.array([[1.0, 1.0], [1.0, -1.0]]))).all()


def test_exp_spectrum_matches_dense(rng):
    for d in (2, 3, 4, 5):
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dense = np.sort_complex(np.linalg.eigvals(exp_element(X)))
        sym = np.sort_complex(exp_spectrum(X))
        assert np.abs(dense - sym).max() < 1e-8


def test_projector_single_mode():
    P = k_particle_projector([basis_vector(2, 0)])
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.abs(P - expect).max() < 1e-14


def test_projector_full_sector():
    P = k_particle_projector([basis_vector(2, 0), basis_vector(2, 1)])
    expect = np.zeros((4, 4))
    expect[3, 3] = 1.0
    assert np.abs(P - expect).max() < 1e-14


def test_projector_superposed_mode():
    P = k_particle_projector([np.array([1.0, 1.0]) / np.sqrt(2)])
    assert abs(np.trace(P) - 1.0) < 1e-12
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P[0, :]).max() < 1e-14 and np.abs(P[3, :]).max() < 1e-14


def test_projector_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        k_particle_projector([np.array([1.0, 0.0]), np.array([1.0, 1e-3])])


@pytest.mark.parametrize("d", range(1, 8))
def test_projector_matches_determinant_minors(rng, d):
    for k in range(1, d + 1):
        V = random_unitary(d, rng)[:, :k]
        psi = np.zeros(2**d, dtype=complex)
        psi[fock_basis(d).sector(k)] = [
            np.linalg.det(V[list(K), :]) for K in combinations(range(d), k)
        ]
        P = k_particle_projector(list(V.T))
        assert np.abs(P - np.outer(psi, psi.conj())).max() < 1e-14


def test_density_single_mode():
    rho = density_matrix(validate_symbol(np.array([[0.3]])))
    assert np.allclose(rho, np.diag([0.7, 0.3]))


def test_density_two_modes_eigenvalues():
    rho = density_matrix(validate_symbol(np.diag([0.25, 0.5])))
    got = np.sort(np.linalg.eigvalsh(rho))
    assert np.abs(got - np.sort([0.375, 0.125, 0.375, 0.125])).max() < 1e-12


def test_density_projector_symbol_is_pure():
    Q = validate_symbol(np.full((2, 2), 0.5))
    P = k_particle_projector([np.array([1.0, 1.0]) / np.sqrt(2)])
    assert np.abs(density_matrix(Q) - P).max() < 1e-10


def test_density_oracle_properties(rng):
    for d in (1, 2, 3, 4):
        Q = random_symbol(d, rng)
        rho = density_matrix(Q)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho)[0] > -1e-12
        N = number_operator(d)
        assert np.abs(rho @ N - N @ rho).max() < 1e-12
        dense = np.sort(np.linalg.eigvalsh(rho))
        brute = np.sort(brute_subset_products(Q.eigenvalues))
        assert np.abs(dense - brute).max() < 1e-10


def test_density_matches_det_exp_form(rng):
    # det(1-Q) E(Q/(1-Q)) agrees with the eigenform on the open interval
    for d in (2, 3):
        Q = random_symbol(d, rng, 0.05, 0.95)
        eye = np.eye(d)
        X = Q.matrix @ np.linalg.inv(eye - Q.matrix)
        alt = np.linalg.det(eye - Q.matrix).real * exp_element(X)
        assert np.abs(alt - density_matrix(Q)).max() < 1e-9


def test_density_matches_full_eigenform(rng):
    # the per-sector assembly equals E(V) diag(q_L) E(V)* taken over the full space
    for d in (1, 2, 3, 4, 5, 6):
        for lo, hi in ((0.05, 0.95), (0.0, 1.0)):
            Q = random_symbol(d, rng, lo, hi)
            w, V = np.linalg.eigh(Q.matrix)
            EV = exp_element(V)
            full = (EV * _subset_weights(np.clip(w, 0.0, 1.0))) @ EV.conj().T
            assert np.abs(density_matrix(Q) - full).max() < 1e-14
    pure = validate_symbol(np.diag([1.0, 0.0, 1.0]))
    expect = np.zeros((8, 8))
    expect[5, 5] = 1.0  # modes {0, 2} occupied
    assert np.abs(density_matrix(pure) - expect).max() < 1e-15


def wedge_map_reference(phi, d, k):
    """chi -> chi ^ phi built one subset and mode at a time."""
    index_up = {s: i for i, s in enumerate(combinations(range(d), k + 1))}
    T = np.zeros((comb(d, k + 1), d), dtype=complex)
    for row, subset in enumerate(combinations(range(d), k)):
        for mode in set(range(d)) - set(subset):
            sign = -1 if sum(1 for j in subset if j < mode) % 2 else 1
            T[index_up[tuple(sorted(subset + (mode,)))], mode] += sign * phi[row]
    return T


def test_wedge_map_matches_subset_loop(rng):
    for d in range(1, 8):
        for k in range(d):
            n = comb(d, k)
            phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            phi[rng.integers(n)] = 0.0
            assert np.array_equal(_wedge_map(phi, d, k), wedge_map_reference(phi, d, k))


def test_elementary_sector_one(rng):
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert is_elementary(phi, 4, 1)


def test_elementary_wedge_and_sum():
    # over d=4, sector-2 subsets order: (01),(02),(03),(12),(13),(23)
    phi = np.zeros(6)
    phi[0] = 1.0
    assert is_elementary(phi, 4, 2)
    phi[5] = 1.0  # e0^e1 + e2^e3
    assert not is_elementary(phi, 4, 2)


def test_elementary_zero_vector():
    with pytest.raises(ZeroVector):
        is_elementary(np.zeros(6), 4, 2)


def test_elementary_top_sector():
    assert is_elementary(np.array([2.0]), 3, 3)


def test_elementary_negative_sector_is_typed():
    with pytest.raises(InvalidArgument):
        is_elementary(np.array([1.0]), 3, -1)
    for k in (1.5, 1.0, True):  # a sector that is no integer, as the bool True
        with pytest.raises(InvalidArgument, match=f"sector must be an integer >= 0, got {k}"):
            is_elementary(np.ones(3), 3, k)


def test_partial_trace_bad_factor_is_typed():
    with pytest.raises(InvalidArgument):
        partial_trace(np.eye(4), (2, 2), keep=2)
    with pytest.raises(InvalidArgument, match="keep must be 0 or 1, got True"):
        partial_trace(np.eye(4), (2, 2), True)  # not the keep = 1 trace


def test_split_isomorphism_one_one():
    U = split_isomorphism(1, 1)
    expect = np.zeros((4, 4))
    for tensor_idx, fock_idx in ((0, 0), (2, 1), (1, 2), (3, 3)):
        expect[tensor_idx, fock_idx] = 1.0
    assert np.abs(U - expect).max() < 1e-14


def test_split_isomorphism_conjugations():
    d1 = d2 = 2
    U = split_isomorphism(d1, d2)
    assert np.abs(U @ U.conj().T - np.eye(16)).max() < 1e-12
    e0 = basis_vector(2, 0)
    first = np.concatenate([e0, np.zeros(2)])
    lhs = U @ creation_operator(first) @ U.conj().T
    assert np.abs(lhs - np.kron(creation_operator(e0), np.eye(4))).max() < 1e-12
    second = np.concatenate([np.zeros(2), e0])
    lhs = U @ creation_operator(second) @ U.conj().T
    rhs = np.kron(parity_operator(2), creation_operator(e0))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_split_isomorphism_associative():
    left = np.kron(split_isomorphism(1, 1), np.eye(2)) @ split_isomorphism(2, 1)
    right = np.kron(np.eye(2), split_isomorphism(1, 1)) @ split_isomorphism(1, 2)
    assert np.abs(left - right).max() < 1e-12


def test_inner_product_determinant(rng):
    for d, k in ((3, 2), (5, 3), (4, 2)):
        phis = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]
        psis = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(k)]
        vac = np.zeros(2**d)
        vac[0] = 1.0
        wedge_phi = vac
        wedge_psi = vac
        for v, w in zip(reversed(phis), reversed(psis)):
            wedge_phi = creation_operator(v) @ wedge_phi
            wedge_psi = creation_operator(w) @ wedge_psi
        gram = np.array([[np.vdot(p, q) for q in psis] for p in phis])
        assert abs(np.vdot(wedge_phi, wedge_psi) - np.linalg.det(gram)) < 1e-10


def test_parity_operator():
    assert np.allclose(parity_operator(1), np.diag([1.0, -1.0]))
    assert np.abs(parity_operator(4) @ parity_operator(4) - np.eye(16)).max() < 1e-14
    assert np.abs(parity_operator(3) - exp_element(-np.eye(3))).max() < 1e-12


def test_parity_anticommutes_with_creation(rng):
    d = 3
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    adag = creation_operator(phi)
    theta = parity_operator(d)
    assert np.abs(theta @ adag + adag @ theta).max() < 1e-12


def test_wedge_state_product_direct_sum():
    Q1 = validate_symbol(np.array([[0.3]]))
    Q2 = validate_symbol(np.array([[0.8]]))
    lhs = wedge_state_product(density_matrix(Q1), density_matrix(Q2))
    rhs = density_matrix(validate_symbol(np.diag([0.3, 0.8])))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_wedge_state_product_vacuum():
    vac1 = k_particle_projector([], d=1)
    vac2 = k_particle_projector([], d=2)
    out = wedge_state_product(vac1, vac2)
    assert np.abs(out - k_particle_projector([], d=3)).max() < 1e-14


def test_wedge_state_product_trace_and_marginals(rng):
    rho1 = density_matrix(random_symbol(2, rng))  # gauge-invariant, hence even
    rho2 = random_density(4, rng)
    out = wedge_state_product(rho1, rho2)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    U = split_isomorphism(2, 2)
    tensor = U @ out @ U.conj().T
    assert np.abs(partial_trace(tensor, (4, 4), keep=0) - rho1).max() < 1e-12
    assert np.abs(partial_trace(tensor, (4, 4), keep=1) - rho2).max() < 1e-12


def test_nested_list_operands_match_arrays(rng):
    rho1 = density_matrix(random_symbol(1, rng))
    rho2 = random_density(4, rng)
    expect = wedge_state_product(rho1, rho2)
    assert np.array_equal(wedge_state_product(rho1.tolist(), rho2), expect)
    assert np.array_equal(wedge_state_product(rho1, rho2.tolist()), expect)
    for keep in (0, 1):
        assert np.array_equal(
            partial_trace(expect.tolist(), (2, 4), keep), partial_trace(expect, (2, 4), keep)
        )


def test_wedge_state_product_is_split_conjugation(rng):
    for d1, d2 in ((1, 1), (2, 1), (1, 3), (2, 2), (3, 2)):
        rho1 = density_matrix(random_symbol(d1, rng))
        rho2 = random_density(2**d2, rng)
        U = split_isomorphism(d1, d2)
        expect = U.conj().T @ np.kron(rho1, rho2) @ U
        assert np.array_equal(wedge_state_product(rho1, rho2), expect)


def test_wedge_state_product_rejects_odd_first_factor():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)  # vacuum + one-particle coherence
    odd = np.outer(psi, psi)
    with pytest.raises(NotEvenState):
        wedge_state_product(odd, np.eye(2) / 2)


def test_evenness_deviation_is_the_dense_commutator(rng):
    # read off the parity diagonal, the deviation is max |[rho1, parity]| bit for bit
    for d in (1, 2, 3):
        rho = random_density(2**d, rng)
        theta = parity_operator(d)
        dev = np.abs(rho @ theta - theta @ rho).max()
        with pytest.raises(NotEvenState, match=re.escape(f"max |[rho1, parity]| = {dev:.3e}")):
            wedge_state_product(rho, np.eye(2) / 2)


def test_particle_hole_unitary():
    for d in range(1, 9):
        W = particle_hole_unitary(d)
        # the definition: prod_i (a*_i + a_i), times the parity when d is even
        product = np.eye(2**d, dtype=complex)
        for i in range(d):
            c = creation_operator(basis_vector(d, i))
            product = product @ (c + c.conj().T)
        if d % 2 == 0:
            product = parity_operator(d) @ product
        assert np.array_equal(W, product)
        assert np.abs(W @ W.conj().T - np.eye(2**d)).max() < 1e-12
        for i in range(d):
            a = creation_operator(basis_vector(d, i)).conj().T
            assert np.abs(W @ a @ W.conj().T - creation_operator(basis_vector(d, i))).max() < 1e-12


def test_complement_reverses_basis_order():
    # particle_hole_unitary and the oracle's gamma twist rest on this
    for d in range(15):
        basis = fock_basis(d)
        n = basis.size
        assert np.array_equal(basis.position[basis.masks ^ (n - 1)], n - 1 - np.arange(n))


def test_oracle_cap_refusal():
    # refused before its 2^15 masks are built, naming the bytes of one operator
    with pytest.raises(DimensionCap, match=r"d=15 modes \(cap 14\).* is 17\.2 GB"):
        fock_basis(HARD_ORACLE_CAP + 1)
    with pytest.raises(DimensionCap, match="inf GB"):
        fock_basis(600)  # beyond double range, still the typed refusal
    with pytest.raises(DimensionCap):
        exp_element(np.eye(15))
    with pytest.raises(DimensionCap):
        number_operator(15)
    with pytest.raises(DimensionCap):
        exp_spectrum(np.eye(15))


def test_warm_builders_refuse_a_lowered_cap(monkeypatch, rng):
    # the tables are cached per d, but every builder reaches them through
    # fock_basis (or the dense Choi gate), which reads its cap on every call
    d = 5
    X = rng.standard_normal((d, d))
    Q = random_symbol(d, rng)
    vectors = list(random_unitary(d, rng)[:, :2].T)
    phi = rng.standard_normal(comb(d, 2))
    rho1, rho2 = density_matrix(random_symbol(2, rng)), density_matrix(random_symbol(3, rng))
    channel = random_channel(3, rng, "lambda")
    builders = {
        "fock_basis": lambda: fock_basis(d),
        "number_operator": lambda: number_operator(d),
        "parity_operator": lambda: parity_operator(d),
        "particle_hole_unitary": lambda: particle_hole_unitary(d),
        "exp_element": lambda: exp_element(X),
        "exp_spectrum": lambda: exp_spectrum(X),
        "density_matrix": lambda: density_matrix(Q),
        "k_particle_projector": lambda: k_particle_projector(vectors),
        "creation_operator": lambda: creation_operator(vectors[0]),
        "is_elementary": lambda: is_elementary(phi, d, 2),
        "split_isomorphism": lambda: split_isomorphism(2, 3),
        "wedge_state_product": lambda: wedge_state_product(rho1, rho2),
        "dense_choi": lambda: dense_choi(channel),
    }
    for build in builders.values():
        build()
    monkeypatch.setattr(quasifree.fock, "HARD_ORACLE_CAP", 4)
    monkeypatch.setattr(quasifree.choi, "DENSE_CHOI_CAP", 2)
    built = []
    for name, build in builders.items():
        try:
            build()
        except DimensionCap:
            continue
        built.append(name)
    assert built == []


NON_FINITE_SITES = {
    "conjugate_matrix": lambda c, bad: conjugate_matrix(bad((2, 2))),
    "exp_element": lambda c, bad: exp_element(bad((2, 2))),
    "exp_spectrum": lambda c, bad: exp_spectrum(bad((2, 2))),
    "creation_operator": lambda c, bad: creation_operator(bad(2)),
    "k_particle_projector": lambda c, bad: k_particle_projector([bad(2)]),
    "is_elementary": lambda c, bad: is_elementary(bad(2), 2, 1),
    "wedge_state_product rho1": lambda c, bad: wedge_state_product(bad((2, 2)), np.eye(2) / 2),
    "wedge_state_product rho2": lambda c, bad: wedge_state_product(np.eye(2) / 2, bad((2, 2))),
    "partial_trace": lambda c, bad: partial_trace(bad((4, 4)), (2, 2), keep=0),
    "apply_heisenberg_exp": lambda c, bad: apply_heisenberg_exp(c, bad((2, 2))),
    "stinespring_heisenberg": lambda c, bad: stinespring_heisenberg(c, bad((4, 4))),
    "stinespring_schrodinger": lambda c, bad: stinespring_schrodinger(c, bad((4, 4))),
}


@pytest.mark.parametrize("site", sorted(NON_FINITE_SITES))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_is_typed(rng, site, value):
    c = random_channel(2, rng, "lambda")

    def bad(shape):
        M = np.zeros(shape, dtype=complex)
        M.flat[0] = 1.0
        M.flat[-1] = value
        return M

    with pytest.raises(InvalidArgument, match="non-finite"):
        NON_FINITE_SITES[site](c, bad)


HALF = {d: validate_symbol(0.5 * np.eye(d)) for d in (2, 3)}
CHANNEL = {d: new_channel("lambda", 0.5 * np.eye(d), 0.25 * np.eye(d)) for d in (2, 3)}

REFUSALS = {
    "apply_heisenberg_exp": (
        lambda: apply_heisenberg_exp(CHANNEL[2], np.eye(3)), "X shape (3, 3) vs channel dim 2"
    ),
    "apply_heisenberg_state": (
        lambda: apply_heisenberg_state(CHANNEL[2], HALF[3]), "channel dim 2 vs symbol dim 3"
    ),
    "compose": (lambda: compose(CHANNEL[2], CHANNEL[3]), "channel dims differ: 3 vs 2"),
    "stinespring_heisenberg": (
        lambda: stinespring_heisenberg(CHANNEL[2], np.eye(2)),
        "operator shape (2, 2), expected (4, 4)",
    ),
    "relative_entropy": (lambda: relative_entropy(HALF[2], HALF[3]), "symbol dims differ: 2 vs 3"),
    "mix_symbols": (lambda: mix_symbols(HALF[2], HALF[3], 0.5), "symbol dims differ: 2 vs 3"),
    "fock_basis": (lambda: fock_basis(-1), "mode number must be >= 0, got -1"),
    "k_particle_projector negative d": (
        lambda: k_particle_projector([], d=-1), "mode number must be >= 0, got -1"
    ),
    "creation_operator matrix": (
        lambda: creation_operator(np.eye(2)), "expected a one-dimensional phi, got shape (2, 2)"
    ),
    "k_particle_projector vacuum": (
        lambda: k_particle_projector([]), "vacuum projector needs an explicit d"
    ),
    "k_particle_projector lengths": (
        lambda: k_particle_projector([[1.0, 0.0], [0.0, 1.0, 0.0]]),
        "vectors must have length d=2, got lengths [2, 3]",
    ),
    "k_particle_projector d": (
        lambda: k_particle_projector([[1.0, 0.0]], d=3),
        "vectors must have length d=3, got lengths [2]",
    ),
    "is_elementary": (
        lambda: is_elementary(np.ones(2), 3, 1), "sector-1 vector over 3 modes has length 3, got 2"
    ),
    "partial_trace": (
        lambda: partial_trace(np.eye(4), (2, 3), keep=0),
        "matrix shape (4, 4) does not match dims (2, 3)",
    ),
    "is_elementary column": (
        lambda: is_elementary(np.ones((3, 1)), 3, 1),
        "expected a one-dimensional phi, got shape (3, 1)",
    ),
    "partial_trace negative dims": (
        lambda: partial_trace(np.eye(4), (-2, -2), keep=0),
        "dims must be two positive integers, got (-2, -2)",
    ),
    "partial_trace bool dims": (
        lambda: partial_trace(np.eye(4), (True, 4), keep=0),
        "dims must be two positive integers, got (True, 4)",
    ),
    "is_elementary negative d": (
        lambda: is_elementary(np.ones(1), -1, 0), "mode number must be >= 0, got -1"
    ),
    "wedge_state_product": (
        lambda: wedge_state_product(np.eye(3) / 3, np.eye(2) / 2),
        "operator shape (3, 3) is not 2^d x 2^d",
    ),
    "fock_basis float": (lambda: fock_basis(2.5), "mode number must be an integer, got 2.5"),
    "fock_basis bool": (lambda: fock_basis(True), "mode number must be an integer, got True"),
    "number_operator float": (
        lambda: number_operator(2.0), "mode number must be an integer, got 2.0"
    ),
    "split_isomorphism bool": (
        lambda: split_isomorphism(True, 2), "mode number must be an integer, got True"
    ),
}


@pytest.mark.parametrize("site", sorted(REFUSALS))
def test_shape_refusals_are_typed_and_worded(site):
    call, message = REFUSALS[site]
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


def test_exp_element_of_zero_modes_is_one():
    assert np.array_equal(exp_element(np.zeros((0, 0))), [[1.0]])
