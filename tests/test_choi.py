import dataclasses
import re
from math import comb

import numpy as np
import pytest

from quasifree import (
    DimensionCap,
    InconsistentB,
    InvalidArgument,
    NotCompletelyPositive,
    NotQuasiFreeMixture,
    QuasiFreeChannel,
    QuasifreeError,
    ScaleOutOfRange,
    SingularB,
    apply_schrodinger,
    choi_exponential_form,
    dense_choi,
    dense_jamiolkowski,
    density_matrix,
    exp_element,
    fock_basis,
    jamiolkowski_symbol,
    new_channel,
    parity_operator,
    partial_trace,
    particle_hole_unitary,
    split_isomorphism,
    stinespring_heisenberg,
    stinespring_schrodinger,
    validate_symbol,
)
from quasifree.channels import _as_lambda, cp_bound
import quasifree.channels
import quasifree.checks
import quasifree.choi
from quasifree.checks import run_oracle_checks
from quasifree.choi import _environment_symbol as environment_spectrum
from quasifree.choi import (
    _charge_blocks,
    _check_cover,
    _choi_blocks,
    _kraus_entries,
    _stinespring_roots,
)
from quasifree.fock import _particle_hole_signs, _split_permutation, _subset_weights
from quasifree.sampling import random_channel, random_symbol, random_unitary

KINDS = ("lambda", "gamma")


def identity_channel(d):
    return new_channel("lambda", np.eye(d), np.zeros((d, d)))


def test_jamiolkowski_identity_channel():
    d = 2
    J = jamiolkowski_symbol(identity_channel(d))
    eye = np.eye(d)
    expect = 0.5 * np.block([[eye, eye], [eye, eye]])
    assert np.abs(J.symbol.matrix - expect).max() < 1e-12
    # pure maximally entangled symbol: eigenvalues {1, 0}
    assert np.allclose(np.sort(J.symbol.eigenvalues), [0, 0, 1, 1], atol=1e-12)


def test_jamiolkowski_depolarizing_channel():
    d = 2
    c = new_channel("lambda", np.zeros((d, d)), 0.5 * np.eye(d))
    J = jamiolkowski_symbol(c)
    assert np.abs(J.symbol.matrix - 0.5 * np.eye(2 * d)).max() < 1e-12


def test_jamiolkowski_marginal_block(rng):
    for kind in KINDS:
        for d in (1, 2, 3):
            J = jamiolkowski_symbol(random_channel(d, rng, kind))
            assert np.abs(J.symbol.matrix[:d, :d] - 0.5 * np.eye(d)).max() < 1e-10


def test_jamiolkowski_spectrum_matches_dense(rng):
    for kind in KINDS:
        for d in (1, 2, 3):
            c = random_channel(d, rng, kind)
            dense = np.sort(np.linalg.eigvalsh(dense_jamiolkowski(c)))
            sym = np.sort(np.linalg.eigvalsh(density_matrix(jamiolkowski_symbol(c).symbol)))
            assert np.abs(dense - sym).max() < 1e-8
            if d <= 2:
                # the definition: (1/n) sum_ij e_ij (x) channel(e_ij)
                n = 2**d
                ref = np.zeros((n * n, n * n), dtype=complex)
                for i in range(n):
                    for j in range(n):
                        unit = np.zeros((n, n), dtype=complex)
                        unit[i, j] = 1.0
                        ref += np.kron(unit, stinespring_schrodinger(c, unit))
                assert np.abs(dense_jamiolkowski(c) - ref / n).max() < 1e-12


def test_jamiolkowski_extended_pair_identity(rng):
    # the doubled channel diag(1, A), diag(0, B) applied to the maximally
    # entangled symbol reproduces the block formula exactly
    d = 2
    c = random_channel(d, rng, "lambda")
    zero = np.zeros((d, d))
    eye = np.eye(d)
    ext = new_channel(
        "lambda",
        np.block([[eye, zero], [zero, c.A]]),
        np.block([[zero, zero], [zero, c.B]]),
    )
    Qmax = validate_symbol(0.5 * np.block([[eye, eye], [eye, eye]]))
    out = apply_schrodinger(ext, Qmax)
    assert np.abs(out.matrix - jamiolkowski_symbol(c).symbol.matrix).max() < 1e-12


def test_jamiolkowski_detects_cp_violation(rng):
    # no channel exists whose Jamiolkowski symbol leaves [0, 1]: the CP
    # violation is refused however the channel is built
    for kind in KINDS:
        d = 2
        c = random_channel(d, rng, kind)
        bound = cp_bound(kind, c.A)
        w, V = np.linalg.eigh(bound - c.B)
        v = V[:, 0]
        bad_B = c.B + (w[0] + 1e-3) * np.outer(v, v.conj())
        for build in (QuasiFreeChannel, new_channel, lambda k, A, B: dataclasses.replace(c, B=B)):
            with pytest.raises(NotCompletelyPositive, match="upper CP"):
                build(kind, c.A, bad_B)


def test_choi_form_replacer_channel():
    d = 2
    c = new_channel("lambda", np.zeros((d, d)), np.eye(d))
    form = choi_exponential_form(c)
    assert abs(form.scale - 1.0) < 1e-12
    expect = np.block(
        [[np.zeros((d, d)), np.zeros((d, d))], [np.zeros((d, d)), np.eye(d)]]
    )
    assert np.abs(form.argument - expect).max() < 1e-12
    dense = np.sort(np.linalg.eigvalsh(form.scale * exp_element(form.argument)))
    direct = np.sort(np.linalg.eigvalsh(dense_choi(c)))
    assert np.abs(dense - direct).max() < 1e-8


def test_choi_form_singular_b():
    with pytest.raises(SingularB):
        choi_exponential_form(identity_channel(2))


def test_choi_form_scale_out_of_range_is_typed():
    # B = 0.01 * 1 is perfectly conditioned, but det B = 1e-400 underflows: the
    # form keeps log|det B|, and reading the scale as a double refuses
    d = 200
    c = new_channel("lambda", np.zeros((d, d)), 0.01 * np.eye(d))
    form = choi_exponential_form(c)
    assert form.log_abs_scale == np.linalg.slogdet(c.B)[1]
    with pytest.raises(ScaleOutOfRange, match=re.escape(f"log|det| = {d * np.log(0.01):.6e}")):
        form.scale


def test_choi_form_refuses_a_subnormal_scale():
    # det B = 1e-310 is a subnormal double: it carries too few digits to scale
    # a form, so the log form holds it and reading the scale refuses
    c = new_channel("lambda", np.zeros((2, 2)), 1e-155 * np.eye(2))
    form = choi_exponential_form(c)
    assert form.log_abs_scale == np.linalg.slogdet(c.B)[1]
    with pytest.raises(ScaleOutOfRange, match=re.escape(f"log|det| = {2 * np.log(1e-155):.6e}")):
        form.scale


def test_choi_form_matches_dense(rng):
    for kind in KINDS:
        for d in (1, 2, 3):
            c = random_channel(d, rng, kind)
            form = choi_exponential_form(c)
            dense = form.scale * exp_element(form.argument)
            w_form = np.sort(np.linalg.eigvalsh(dense))
            w_direct = np.sort(np.linalg.eigvalsh(dense_choi(c)))
            assert np.abs(w_form - w_direct).max() < 1e-8
            # CP source: dense realization is positive semidefinite
            assert w_form[0] > -1e-9
            # UPCP normalization in tensor coordinates
            n = 2**d
            U = split_isomorphism(d, d)
            tensor = U @ dense @ U.conj().T
            tr1 = partial_trace(tensor, (n, n), keep=1)
            assert np.abs(tr1 - np.eye(n)).max() < 1e-9


def test_dense_choi_identity_channel():
    C = dense_choi(identity_channel(1))
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0  # |vac,vac> + |occ,occ>
    assert np.abs(C - np.outer(omega, omega.conj())).max() < 1e-10


def test_dense_choi_depolarizing_eigenvalues():
    c = new_channel("lambda", np.zeros((1, 1)), 0.5 * np.eye(1))
    w = np.linalg.eigvalsh(dense_choi(c))
    assert np.allclose(w, [0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_dense_choi_partial_trace(rng):
    for kind in KINDS:
        d = 2
        C = dense_choi(random_channel(d, rng, kind))
        n = 2**d
        assert np.abs(partial_trace(C, (n, n), keep=1) - np.eye(n)).max() < 1e-9


def row_charges(d, kind):
    """Charge N(a) - |i| of Choi row (i, a), with N(a) = |a|, or d - |a| for
    gamma, whose particle-hole reversal sends a to its complement."""
    size = np.array([bin(int(m)).count("1") for m in fock_basis(d).masks])
    out = d - size if kind == "gamma" else size
    return (out[None, :] - size[:, None]).ravel()


@pytest.mark.parametrize("kind", KINDS)
def test_dense_choi_is_the_full_product_by_charge_blocks(rng, kind):
    for d in (1, 2, 3, 4, 5):
        n = 2**d
        c = random_channel(d, rng, kind)
        C = dense_choi(c)
        M = kraus_entries_reference(c).transpose(2, 0, 1, 3).reshape(n * n, n * n)
        full = M @ M.conj().T
        assert np.abs(C - full).max() < 1e-13 * max(1.0, np.abs(full).max())
        charge = row_charges(d, kind)
        assert not C[charge[:, None] != charge[None, :]].any()


def charge_blocks_reference(d):
    """The tables of _charge_blocks as built from the inverted split
    permutation and the binomial widths of the 2d-mode sectors."""
    n = 2**d
    size = fock_basis(d).occupation.sum(axis=1)
    outer, inner = np.divmod(np.arange(n * n), n)
    charge = size[inner] - size[outer]
    state = np.empty(n * n, dtype=np.intp)
    state[_split_permutation(d, d)] = np.arange(n * n)
    sector = (size[:, None] + size).ravel()
    width = np.array([comb(2 * d, k) for k in range(2 * d + 1)])
    place = state - (np.cumsum(width) - width)[sector]
    starts = np.cumsum(width * width) - width * width
    blocks = []
    for m in range(-d, d + 1):
        rows = np.flatnonzero(charge == m)
        r = inner[rows, None] * n + outer[rows]
        s = outer[rows, None] * n + inner[rows]
        k = sector[r]
        blocks.append((rows, (starts[k] + place[r] * width[k] + place[s]).astype(np.int32)))
    return blocks


def test_charge_blocks_match_the_split_permutation_construction():
    for d in range(1, 7):
        for got, expect in zip(_charge_blocks(d), charge_blocks_reference(d), strict=True):
            for table, reference in zip(got, expect):
                assert table.dtype == reference.dtype and np.array_equal(table, reference)


@pytest.mark.parametrize("kind", KINDS)
def test_charge_block_cover_refuses_a_table_that_misses_an_entry(rng, kind):
    d = 2
    count = comb(4 * d, 2 * d)
    gathers = [gather.copy() for _, gather in _charge_blocks(d)]
    _check_cover(gathers, count)  # the one table set holds every entry once
    # the gamma twist relabels rows: either kind's blocks hold each row of C once
    rows = np.concatenate([rows for rows, _ in _choi_blocks(random_channel(d, rng, kind))])
    assert np.array_equal(np.sort(rows), np.arange(4**d))
    central = gathers[d]  # charge 0, C(2d, d) rows and columns
    central[0, 0] = central[0, 1]  # entry central[0, 0] is missed, central[0, 1] read twice
    with pytest.raises(QuasifreeError, match="exactly once"):
        _check_cover(gathers, count)
    with pytest.raises(QuasifreeError, match="exactly once"):
        _check_cover(gathers[1:], count)  # the charge -d block left out


def test_dense_choi_dimension_cap():
    with pytest.raises(DimensionCap, match=r"d=7: .* 2d=14 modes, and they reach d=6"):
        dense_choi(identity_channel(7))
    with pytest.raises(DimensionCap, match="d=7"):
        stinespring_heisenberg(identity_channel(7), np.eye(128))


def test_stinespring_identity_and_replacer(rng):
    d = 2
    n = 2**d
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = stinespring_heisenberg(identity_channel(d), x)
    assert np.abs(out - x).max() < 1e-10
    B = np.diag([0.3, 0.6])
    replacer = new_channel("lambda", np.zeros((d, d)), B)
    rho_B = density_matrix(validate_symbol(B))
    out = stinespring_heisenberg(replacer, x)
    assert np.abs(out - np.trace(rho_B @ x) * np.eye(n)).max() < 1e-10


def test_stinespring_duality(rng):
    for kind in KINDS:
        for d in (1, 2, 3, 4):
            c = random_channel(d, rng, kind)
            Q = random_symbol(d, rng)
            n = 2**d
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = density_matrix(Q)
            lhs = np.trace(stinespring_schrodinger(c, rho) @ x)
            rhs = np.trace(rho @ stinespring_heisenberg(c, x))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_stinespring_inconsistent_b(rng):
    # neither B is a channel's, so the environment symbol is asked for directly
    # A = 1 forces 1 - A*A = 0, so no environment symbol can reproduce B != 0
    _, root, pinv_root = _stinespring_roots(np.eye(2))
    with pytest.raises(InconsistentB):
        environment_spectrum(root, pinv_root, 0.1 * np.eye(2))
    # B = 1.5 (1 - A*A) is reproduced by Q' = 1.5, whose spectrum leaves [0, 1]
    c = random_channel(2, rng, "lambda")
    _, root, pinv_root = _stinespring_roots(c.A)
    with pytest.raises(InconsistentB, match="leave"):
        environment_spectrum(root, pinv_root, 1.5 * cp_bound("lambda", c.A))


@pytest.mark.parametrize("kind", KINDS)
def test_stinespring_singular_value_one_is_consistent(rng, kind):
    # A = U1 diag(1, s...) U2*: 1 - s^2 is rounding in the first direction,
    # where the pseudo-inverse root must not amplify B's rounding
    for d in (2, 3) * 20:
        U1, U2 = random_unitary(d, rng), random_unitary(d, rng)
        A = (U1 * np.concatenate([[1.0], rng.uniform(0.1, 0.9, d - 1)])) @ U2.conj().T
        w, V = np.linalg.eigh(cp_bound(kind, A))
        root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        B = root @ random_symbol(d, rng).matrix @ root
        c = new_channel(kind, A, (B + B.conj().T) / 2.0)
        Q = random_symbol(d, rng)
        dense = stinespring_schrodinger(c, density_matrix(Q))
        # the root is the square root of rounding there, so agreement is 1e-8-level
        assert np.abs(dense - density_matrix(apply_schrodinger(c, Q))).max() < 1e-7


def test_parity_twist_sign_is_unobservable(rng):
    # the embedding parity is fixed up to sign; flipping it changes the
    # split isomorphism by a local parity and the particle-hole unitary by a
    # global sign, neither of which moves any oracle result on even states
    d = 2
    n = 2**d
    c = random_channel(d, rng, "gamma")
    Q = random_symbol(d, rng)
    rho = density_matrix(Q)
    reference = stinespring_schrodinger(c, rho)

    U = split_isomorphism(d, d)
    U_flipped = np.kron(np.eye(n), parity_operator(d)) @ U
    rho2 = density_matrix(random_symbol(d, rng))
    lhs = U.conj().T @ np.kron(rho, rho2) @ U
    rhs = U_flipped.conj().T @ np.kron(rho, rho2) @ U_flipped
    assert np.abs(lhs - rhs).max() < 1e-12

    W = particle_hole_unitary(d)
    W_flipped = -W
    assert np.abs(W @ rho @ W.conj().T - W_flipped @ rho @ W_flipped.conj().T).max() < 1e-14
    assert np.abs(stinespring_schrodinger(c, rho) - reference).max() < 1e-14


def _psd_sqrt_and_pinv_sqrt(H):
    """Reference roots: sqrt(H) and its pseudo-inverse from one eigh of H."""
    w, V = np.linalg.eigh((H + H.conj().T) / 2.0)
    root = np.sqrt(np.clip(w, 0.0, None))
    inv_root = np.zeros_like(root)
    mask = root > 1e-10 * max(1.0, float(root.max()))
    inv_root[mask] = 1.0 / root[mask]
    return (V * root) @ V.conj().T, (V * inv_root) @ V.conj().T


def _environment_symbol(root, pinv_root, B):
    """Reference environment symbol Q' with B = root Q' root, validated."""
    Qp = pinv_root @ B @ pinv_root
    Qp = (Qp + Qp.conj().T) / 2.0
    assert np.abs(root @ Qp @ root - B).max() <= 1e-8
    return validate_symbol(Qp, tol=1e-8)


def eigh_roots_reference(A):
    eye = np.eye(A.shape[0])
    root_left, _ = _psd_sqrt_and_pinv_sqrt(eye - A @ A.conj().T)
    return (root_left, *_psd_sqrt_and_pinv_sqrt(eye - A.conj().T @ A))


def test_stinespring_roots_match_eigh_reference(rng):
    for d in range(1, 7):
        U1, U2 = random_unitary(d, rng), random_unitary(d, rng)
        s = rng.uniform(0.1, 0.9, d)
        # singular value 1 held exactly: a signed permutation of a diagonal
        edge = np.concatenate([[1.0], s[1:]])
        signed_perm = np.diag(edge)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        for A in ((U1 * s) @ U2.conj().T, np.zeros((d, d)), signed_perm):
            for g, ref in zip(_stinespring_roots(A), eigh_roots_reference(A)):
                assert np.abs(g - ref).max() < 1e-13
        # its right singular vector at 1 is e_0, where both roots vanish
        _, root_right, pinv_right = _stinespring_roots(signed_perm)
        assert np.abs(root_right[:, 0]).max() < 1e-15
        assert np.abs(pinv_right[:, 0]).max() < 1e-15
        # a rounded singular value 1: sqrt(1 - s^2) is sqrt(rounding) there, so
        # the two roots agree to its square root, and both square correctly
        A = (U1 * edge) @ U2.conj().T
        eye = np.eye(d)
        for g, ref, square in zip(
            _stinespring_roots(A)[:2],
            eigh_roots_reference(A)[:2],
            (eye - A @ A.conj().T, eye - A.conj().T @ A),
        ):
            assert np.abs(g - ref).max() < 1e-7
            assert np.abs(g @ g - square).max() < 1e-14


def test_environment_spectrum_matches_validated_reference(rng):
    for kind in KINDS:
        for d in range(1, 7):
            c = random_channel(d, rng, kind)
            A = np.conj(c.A) if kind == "gamma" else c.A
            _, root, pinv = _stinespring_roots(A)
            env = environment_spectrum(root, pinv, c.B)
            ref = _environment_symbol(*eigh_roots_reference(A)[1:], c.B)
            W = env.eigenvectors
            assert np.abs((W * env.eigenvalues) @ W.conj().T - ref.matrix).max() < 1e-13
            assert np.all(np.diff(env.eigenvalues) <= 0.0)


def lambda_kraus_entries_reference(c):
    """K of lambda(At, B) as the dense construction builds it: E(V') on 2d
    modes scattered by the split permutation, index L scaled by sqrt(p_L)."""
    d, n = c.dim, 2**c.dim
    A, B, _ = _as_lambda(c)
    root_left, root_right, pinv_right = _stinespring_roots(A)
    env = environment_spectrum(root_right, pinv_right, B)
    Wh = env.eigenvectors.conj().T
    V = np.block([[A, root_left], [-Wh @ root_right, Wh @ A.conj().T]])
    t = _split_permutation(d, d)
    K = np.empty((n, n, n, n), dtype=complex)
    K.reshape(n * n, n * n)[np.ix_(t, t)] = exp_element(V)
    K *= np.sqrt(_subset_weights(env.eigenvalues))[:, None, None]
    return K


def kraus_entries_reference(c):
    """K of the channel: for gamma, the lambda(At, B) factor after the signed
    reversal of index a."""
    K = lambda_kraus_entries_reference(c)
    if c.kind == "gamma":
        K = K[::-1] * _particle_hole_signs(c.dim)[::-1, None, None, None]
    return K


def kraus_offsets_reference(d):
    """The flat offset in K[a, L, i, c] of each Kraus entry, in the layout of
    _kraus_entries: entry (r, s) of sector k of E(V') sits at row a n + L and
    column i n + c, where the split permutation t sends the 2d-mode states r
    and s to (a, L) and (i, c)."""
    n = 2**d
    t = _split_permutation(d, d)
    basis = fock_basis(2 * d)
    sectors = [basis.sector(k) for k in range(2 * d + 1)]
    return np.concatenate([(t[sl, None] * (n * n) + t[sl]).ravel() for sl in sectors])


@pytest.mark.parametrize("kind", KINDS)
def test_kraus_factor_matches_the_dense_construction(rng, kind):
    for d in (1, 2, 3, 4):
        n = 2**d
        c = random_channel(d, rng, kind)
        entries = _kraus_entries(c)
        K = np.zeros(n**4, dtype=complex)
        K[kraus_offsets_reference(d)] = entries
        K, ref = K.reshape(n, n, n, n), lambda_kraus_entries_reference(c)
        assert np.array_equal(K, ref)  # the reference's zeros may be -0.0
        nonzero = ref != 0
        assert np.array_equal(K[nonzero].view(np.uint64), ref[nonzero].view(np.uint64))


def test_kraus_entries_pay_one_svd_and_one_eigh(rng, monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for kind in KINDS:
        c = random_channel(3, rng, kind)
        for name in calls:
            calls[name] = 0
        _kraus_entries(c)
        assert calls == {"eigh": 1, "eigvalsh": 0, "svd": 1}


def oracle_pieces_reference(c):
    """The Stinespring rotation conjugated by the dense split isomorphism,
    with the particle-hole unitary applied as a gemm for gamma, and the dense
    environment density matrix."""
    d = c.dim
    A = np.conj(c.A) if c.kind == "gamma" else c.A
    eye = np.eye(d)
    root_left, _ = _psd_sqrt_and_pinv_sqrt(eye - A @ A.conj().T)
    root_right, pinv_right = _psd_sqrt_and_pinv_sqrt(eye - A.conj().T @ A)
    EV = exp_element(np.block([[A, root_left], [-root_right, A.conj().T]]))
    U = split_isomorphism(d, d)
    G = U @ EV @ U.conj().T
    if c.kind == "gamma":
        G = (particle_hole_unitary(d) @ G.reshape(2**d, -1)).reshape(G.shape)
    rho_env = density_matrix(_environment_symbol(root_right, pinv_right, c.B))
    return G, rho_env


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_rotation_is_split_conjugation(rng, kind):
    # the Kraus factor folds the environment state into the split-conjugated
    # rotation: sum_L K[a,L,m] conj K[b,L,m] = sum rho_env[s,t] G[a,t,m] conj G[b,s,m]
    for d in (1, 2, 3, 4):
        n = 2**d
        c = random_channel(d, rng, kind)
        G, rho_env = oracle_pieces_reference(c)
        G = G.reshape(n, n, n * n)
        K = kraus_entries_reference(c).reshape(n, n, n * n)
        lhs = np.einsum("alm,blm->abm", K, K.conj())
        rhs = np.einsum("st,atm,bsm->abm", rho_env, G, G.conj())
        assert np.abs(lhs - rhs).max() < 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_stinespring_contractions_match_kron_forms(rng, kind):
    for d in (1, 2, 3, 4):
        n = 2**d
        c = random_channel(d, rng, kind)
        G, rho_env = oracle_pieces_reference(c)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = G @ np.kron(x, np.eye(n)) @ G.conj().T
        heis = partial_trace(np.kron(np.eye(n), rho_env) @ M, (n, n), keep=0)
        assert np.abs(stinespring_heisenberg(c, x) - heis).max() < 1e-14
        rho = density_matrix(random_symbol(d, rng))
        schr = partial_trace(G.conj().T @ np.kron(rho, rho_env) @ G, (n, n), keep=0)
        assert np.abs(stinespring_schrodinger(c, rho) - schr).max() < 1e-14
        # C[(i,a),(j,b)] = [channel*(e_ij)]_ab, one Heisenberg image per unit
        choi = np.zeros((n, n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                e_ij = np.zeros((n, n))
                e_ij[i, j] = 1.0
                M = G @ np.kron(e_ij, np.eye(n)) @ G.conj().T
                choi[i, :, j, :] = partial_trace(np.kron(np.eye(n), rho_env) @ M, (n, n), keep=0)
        assert np.abs(dense_choi(c) - choi.reshape(n * n, n * n)).max() < 1e-14


def test_oracle_checks_build_kraus_entries_once_per_trial(monkeypatch):
    builds, dense_dims = [], []

    def counted(channel):
        builds.append(channel)
        return _kraus_entries(channel)

    monkeypatch.setattr(quasifree.choi, "_kraus_entries", counted)
    for name, dim in (("density_matrix", lambda Q: Q.dim), ("exp_element", len)):
        original = getattr(quasifree.checks, name)

        def recorded(x, _original=original, _dim=dim):
            dense_dims.append(_dim(x))
            return _original(x)

        monkeypatch.setattr(quasifree.checks, name, recorded)
    results = run_oracle_checks(4, 4, seed=5)
    assert all(r.passed for r in results)
    assert len(builds) == 4  # 4 channel trials, the first also serving the Choi checks
    assert max(dense_dims) == 4  # nothing densified on the 2d modes of a Choi form


def test_oracle_checks_never_assemble_a_dense_choi_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle checks assembled a dense Choi matrix")

    monkeypatch.setattr(quasifree.choi, "_direct_sum", refuse)
    monkeypatch.setattr(quasifree.checks, "partial_trace", refuse, raising=False)
    assert all(r.passed for r in run_oracle_checks(4, 4, seed=5))


def test_oracle_checks_reach_channels_and_choi_at_six():
    channel = {"channel-covariance", "channel-duality", "channel-composition",
               "heisenberg-state-vs-dense"}
    choi = {"jamiolkowski-spectrum", "choi-partial-trace", "choi-spectrum"}
    for d in (4, 5):
        results = {r.name: r for r in run_oracle_checks(d, 2, seed=11)}
        assert channel | choi <= set(results)
        assert all(r.passed for r in results.values()), [r for r in results.values() if not r.passed]
    results = run_oracle_checks(6, 1, seed=11)
    assert len(results) == 18 and channel | choi <= {r.name for r in results}
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@pytest.mark.parametrize(
    "d, trials, seed, error",
    [(7, 1, 0, DimensionCap), (2, 0, 0, InvalidArgument), (3, -2, 0, InvalidArgument),
     (2, 1, -1, InvalidArgument), (0, 1, 0, InvalidArgument), (-1, 1, 0, InvalidArgument),
     (2.5, 1, 0, InvalidArgument), (True, 1, 0, InvalidArgument), (2, 1.0, 0, InvalidArgument),
     (2, True, 0, InvalidArgument), (2, 1, 0.5, InvalidArgument)],
)
def test_oracle_checks_refuse_before_the_first_draw(monkeypatch, d, trials, seed, error):
    # no trial ran would pass every check vacuously; d = 7 would fail after
    # its state checks; seed -1 would be numpy's bare ValueError; d = 0 and
    # d = -1 would fail on an internal operand
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle checks drew before refusing")

    monkeypatch.setattr(quasifree.checks, "random_symbol", refuse)
    with pytest.raises(error):
        run_oracle_checks(d, trials, seed)


def test_failed_mixture_check_reads_inf_and_moves_no_other(monkeypatch):
    expect = run_oracle_checks(2, 3, seed=1)

    def not_quasi_free(*args):
        raise NotQuasiFreeMixture("refused")

    monkeypatch.setattr(quasifree.checks, "mix_symbols", not_quasi_free)
    results = run_oracle_checks(2, 3, seed=1)
    assert [r.name for r in results] == [r.name for r in expect]
    for r, e in zip(results, expect):
        if r.name == "mixture-rank1-affine":
            assert r.max_dev == np.inf and not r.passed
        else:
            assert r == e


def test_every_suite_row_is_a_deviation_its_first_trial_reports():
    # a row that no trial reports would read 0.0 and pass unseen
    for trial, rows in quasifree.checks.SUITE:
        assert set(trial(2, np.random.default_rng(0), 0, 1)) == {name for name, _ in rows}


def _nan_scale(c, X):
    return dataclasses.replace(quasifree.channels.apply_heisenberg_exp(c, X), phase=np.nan)


@pytest.mark.parametrize(
    "site, patched, row",
    [("von_neumann_entropy", lambda Q: np.nan, "von-neumann-vs-dense"),
     ("apply_heisenberg_exp", _nan_scale, "channel-duality")],
)
def test_a_nan_deviation_fails_its_check(monkeypatch, site, patched, row):
    # max(0.0, nan) is 0.0: an accumulator written that way passes a NaN
    expect = {r.name: r for r in run_oracle_checks(3, 4, seed=0)}
    monkeypatch.setattr(quasifree.checks, site, patched)
    results = {r.name: r for r in run_oracle_checks(3, 4, seed=0)}
    assert np.isnan(results[row].max_dev) and not results[row].passed
    assert [r for name, r in results.items() if name != row] == [
        r for name, r in expect.items() if name != row
    ]
