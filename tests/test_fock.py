from itertools import combinations
from math import comb

import numpy as np
import pytest
from conftest import brute_subset_products, random_density

from quasifree import (
    DimensionCap,
    InvalidArgument,
    NotEvenState,
    NotOrthonormal,
    ZeroVector,
    creation_operator,
    density_matrix,
    exp_element,
    exp_spectrum,
    fock_basis,
    is_elementary,
    k_particle_projector,
    number_operator,
    oracle_cap,
    parity_operator,
    partial_trace,
    particle_hole_unitary,
    split_isomorphism,
    validate_symbol,
    wedge_state_product,
)
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


def test_partial_trace_bad_factor_is_typed():
    with pytest.raises(InvalidArgument):
        partial_trace(np.eye(4), (2, 2), keep=2)


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
    with pytest.raises(DimensionCap):
        fock_basis(HARD_ORACLE_CAP + 1)  # refused before its 2^15 masks are built
    with pytest.raises(DimensionCap):
        exp_element(np.eye(15))
    with pytest.raises(DimensionCap):
        number_operator(15)
    with pytest.raises(DimensionCap):
        exp_spectrum(np.eye(15))


def test_oracle_cap_env_override(monkeypatch):
    monkeypatch.setenv("QUASIFREE_MAX_ORACLE_D", "3")
    assert oracle_cap() == 3
    with pytest.raises(DimensionCap):
        number_operator(4)
    monkeypatch.setenv("QUASIFREE_MAX_ORACLE_D", "99")
    assert oracle_cap() == 14  # hard cap wins
    monkeypatch.setenv("QUASIFREE_MAX_ORACLE_D", "nonsense")
    with pytest.raises(DimensionCap):
        oracle_cap()


NON_FINITE_SITES = {
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


def test_exp_element_of_zero_modes_is_one():
    assert np.array_equal(exp_element(np.zeros((0, 0))), [[1.0]])
