import numpy as np
import pytest
from conftest import brute_subset_products, dense_relative, dense_renyi, dense_von_neumann

from quasifree import (
    InvalidOrder,
    KernelConditionViolated,
    density_matrix,
    exp_element,
    relative_entropy,
    renyi_entropy,
    validate_symbol,
    von_neumann_entropy,
)
from quasifree.sampling import random_symbol, random_unitary


def sym(values):
    return validate_symbol(np.diag(np.atleast_1d(values)).astype(complex))


def test_renyi_scalar_example():
    # (1/(1-2)) log(0.25 + 0.25) = log 2
    assert abs(renyi_entropy(sym([0.5]), 2.0) - np.log(2.0)) < 1e-12


def test_renyi_pure_state_vanishes():
    Q = validate_symbol(np.full((2, 2), 0.5))
    for p in (0.5, 2.0, 3.0):
        assert abs(renyi_entropy(Q, p)) < 1e-12


def test_renyi_two_mode_frozen():
    # dense oracle: sum of squared subset products 0.375^2*2 + 0.125^2*2 = 0.3125
    assert abs(renyi_entropy(sym([0.25, 0.5]), 2.0) - (-np.log(0.3125))) < 1e-12


def test_renyi_large_orders_stay_finite():
    # (1-q)^p + q^p underflows from p ~ 1075 at q = 1/2; the entropy tends to
    # p/(p-1) sum(-log max(q, 1-q)), within sum log 2 / (p-1) at every p
    Q = sym([0.5, 0.3])
    limit = np.sum(-np.log([0.5, 0.7]))
    at_1000 = renyi_entropy(Q, 1000.0)
    for p in (2000.0, 1e6):
        value = renyi_entropy(Q, p)
        assert np.isfinite(value) and value <= at_1000
        assert abs(value - p / (p - 1.0) * limit) <= 2 * np.log(2.0) / (p - 1.0)


def test_renyi_invalid_orders():
    Q = sym([0.5])
    for p in (1.0, 0.0, -2.0, np.nan, np.inf, -np.inf, None, [2]):
        with pytest.raises(InvalidOrder):
            renyi_entropy(Q, p)


def test_von_neumann_maximally_mixed():
    for d in (1, 3, 5):
        Q = validate_symbol(0.5 * np.eye(d))
        assert abs(von_neumann_entropy(Q) - d * np.log(2.0)) < 1e-12


def test_von_neumann_pure_and_frozen():
    assert abs(von_neumann_entropy(validate_symbol(np.full((2, 2), 0.5)))) < 1e-12
    def h(q):
        return -q * np.log(q) - (1 - q) * np.log(1 - q)
    assert abs(von_neumann_entropy(sym([0.25, 0.5])) - (h(0.25) + h(0.5))) < 1e-12


def test_relative_entropy_identical_states(rng):
    Q = random_symbol(3, rng)
    assert abs(relative_entropy(Q, Q)) < 1e-10


def test_relative_entropy_scalar_frozen():
    # 0.5 log(0.5/0.25) + 0.5 log(0.5/0.75) = 0.5 log(4/3)
    got = relative_entropy(sym([0.5]), sym([0.25]))
    assert abs(got - 0.5 * np.log(4.0 / 3.0)) < 1e-12


def test_relative_entropy_kernel_violations():
    with pytest.raises(KernelConditionViolated):
        relative_entropy(sym([0.5]), sym([0.0]))
    with pytest.raises(KernelConditionViolated):
        relative_entropy(sym([0.5]), sym([1.0]))
    # aligned kernels are fine even on the boundary
    assert abs(relative_entropy(sym([1.0]), sym([1.0]))) < 1e-12
    assert abs(relative_entropy(sym([0.0, 1.0]), sym([0.0, 1.0]))) < 1e-12


def test_entropies_match_dense(rng):
    for d in range(1, 7):
        Q = random_symbol(d, rng, 0.05, 0.95)
        rho = density_matrix(Q)
        for p in (0.5, 2.0, 3.0):
            assert abs(renyi_entropy(Q, p) - dense_renyi(rho, p)) < 1e-9
        assert abs(von_neumann_entropy(Q) - dense_von_neumann(rho)) < 1e-9


def test_relative_entropy_matches_dense(rng):
    for d in range(1, 6):
        Q1 = random_symbol(d, rng, 0.05, 0.95)
        Q2 = random_symbol(d, rng, 0.05, 0.95)
        got = relative_entropy(Q1, Q2)
        want = dense_relative(density_matrix(Q1), density_matrix(Q2))
        assert abs(got - want) < 1e-8
        assert got >= -1e-8


@pytest.mark.parametrize("d", [3, 4, 5])
def test_certified_dust_symbol_matches_dense(d, rng):
    # the certificate keeps a matrix with +-1e-12 dust at exact 0 and 1 as
    # given and clips its eigenvalues on read; every functional stays within
    # the oracle-check tolerances of the dense references
    U = random_unitary(d, rng)
    w = np.array([1.0 + 1e-12, -1e-12, 0.35, 1.0, 0.0])[:d]
    M = (U * w) @ U.conj().T
    Q = validate_symbol(M)
    assert np.array_equal(Q.matrix, (M + M.conj().T) / 2.0)  # certified, not clamped
    q = np.clip(w, 0.0, 1.0)
    EU = exp_element(U)
    full = (EU * brute_subset_products(q)) @ EU.conj().T
    rho = density_matrix(Q)
    assert np.abs(rho - full).max() < 1e-10
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    # no p < 1: there the dense reference's q^p turns rounding-level zero
    # eigenvalues of rho into deviations of order 1e-8, with or without dust
    # (the closed form snaps them: test_renyi_exact_zero_one_spectrum)
    for p in (2.0, 3.0):
        assert abs(renyi_entropy(Q, p) - dense_renyi(full, p)) < 1e-9
    assert abs(von_neumann_entropy(Q) - dense_von_neumann(full)) < 1e-9
    # Q as the reference: kernels of Q1 contain those of Q (the kernel branches)
    Q1 = validate_symbol((U * np.array([1.0, 0.0, 0.8, 1.0, 0.0])[:d]) @ U.conj().T)
    R = random_symbol(d, rng, 0.05, 0.95)
    for a, b in ((Q1, Q), (Q, Q), (Q, R)):
        want = dense_relative(density_matrix(a), density_matrix(b))
        assert abs(relative_entropy(a, b) - want) < 1e-8


@pytest.mark.parametrize("d", [3, 4, 5])
def test_renyi_exact_zero_one_spectrum(d, rng):
    # rounding-level eigenvalues at an exact 0 or 1 add no entropy, also at
    # p < 1 where q^p would turn 1e-17 into 3e-9; only 0.35 contributes
    U = random_unitary(d, rng)
    Q = validate_symbol((U * np.array([1.0, 0.0, 0.35, 1.0, 0.0])[:d]) @ U.conj().T)
    for p in (0.5, 2.0, 3.0):
        exact = np.log(0.65**p + 0.35**p) / (1.0 - p)
        assert abs(renyi_entropy(Q, p) - exact) < 1e-12


def test_renyi_limit_is_von_neumann(rng):
    Q = random_symbol(4, rng, 0.1, 0.9)
    vn = von_neumann_entropy(Q)
    for eps in (1e-3, 1e-4):
        assert abs(renyi_entropy(Q, 1.0 + eps) - vn) <= 10.0 * eps


def test_unitary_invariance(rng):
    d = 4
    Q = random_symbol(d, rng, 0.05, 0.95)
    U = random_unitary(d, rng)
    Qu = validate_symbol(U.conj().T @ Q.matrix @ U)
    assert abs(renyi_entropy(Q, 2.0) - renyi_entropy(Qu, 2.0)) < 1e-10
    assert abs(von_neumann_entropy(Q) - von_neumann_entropy(Qu)) < 1e-10
    Q2 = random_symbol(d, rng, 0.05, 0.95)
    Q2u = validate_symbol(U.conj().T @ Q2.matrix @ U)
    assert abs(relative_entropy(Q, Q2) - relative_entropy(Qu, Q2u)) < 1e-10


def test_von_neumann_additive_over_direct_sum(rng):
    Q1 = random_symbol(2, rng)
    Q2 = random_symbol(3, rng)
    direct = validate_symbol(
        np.block(
            [
                [Q1.matrix, np.zeros((2, 3))],
                [np.zeros((3, 2)), Q2.matrix],
            ]
        )
    )
    total = von_neumann_entropy(Q1) + von_neumann_entropy(Q2)
    assert abs(von_neumann_entropy(direct) - total) < 1e-10
