"""Jamiolkowski symbols and Choi matrices of quasi-free channels, plus the
dense Stinespring oracle used to validate them.

The Stinespring realization of a lambda-kind channel concatenates three maps:
embed the d modes as the first half of 2d modes, rotate by the exponential of
the block unitary

    V = [[A, sqrt(1 - A A*)], [-sqrt(1 - A* A), A*]],

and trace the second half out in the quasi-free environment state whose
symbol reproduces B through B = sqrt(1 - A*A) Q' sqrt(1 - A*A).  The rotation
direction (conjugate by E(V), not E(V)*) is the one under which the trace
duality with the Schrodinger action holds; it is frozen here and enforced by
the test suite.  Both square roots come from one SVD of A, since 1 - AA*
and 1 - A*A share the spectrum 1 - s^2, and the environment symbol's
eigenvectors W from :func:`spectral`.  The environment state
E(W) diag(p) E(W)* is never formed: E is multiplicative, so
:func:`_kraus_entries` folds E(W)* into the rotation once, and its entries
K[a, L, i, c] are the Kraus operators, channel*(x) = sum K x K*.
A gamma-kind channel is the lambda channel with conjugated A composed with
the particle-hole automorphism, so its Choi matrix is that lambda channel's
with the output factor conjugated by the particle-hole unitary, a signed
reversal of the Fock basis that :func:`_choi_blocks` alone applies,
independently of the symbol-side twist it checks.

The rotation conserves particle number, so K[a, L, i, c] vanishes unless
|a| + |L| = |i| + |c|.  Its C(4d, 2d) entries that can be nonzero (17.6 % of
the 16^d at d = 5) are computed alone, as the sector blocks of E(V'), and
:func:`_choi_blocks` gathers from them, by index tables cached per d, the
2d + 1 charge blocks of which the Choi matrix C is the direct sum.  That the
blocks hold every entry exactly once is proved once, when their tables are
built.  The blocks are the oracle's one representation of the channel:
:func:`dense_choi` places them in C, and :func:`_choi_action` reads both
dense actions off them, channel*(x)[a, b] = sum_ij x[i, j] C[(i,a),(j,b)]
and its trace dual.  Each of them refuses d above ``DENSE_CHOI_CAP``, a cap
on time, not on memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .channels import KIND_GAMMA, QuasiFreeChannel, ScaledExponential, _as_lambda, checked_inverse
from .errors import (
    DimensionCap,
    DimensionMismatch,
    InconsistentB,
    QuasifreeError,
    SingularB,
    SpectrumOutOfRange,
)
from .fock import (
    _exp_blocks,
    _particle_hole_signs,
    _subset_weights,
    fock_basis,
)
from .symbols import SpectralSymbol, Symbol, _operand, spectral

#: the largest d of the dense Choi/Stinespring constructions, a time cap: their
#: tables live on 2d modes, and at d = 7 one channel takes about 20 s and
#: 612 MB of Kraus entries
DENSE_CHOI_CAP = 6
ENV_SYMBOL_TOL = 1e-8
#: 1 - s^2 up to eight units of rounding of 1 counts as 0 in the pseudo-inverse
#: of sqrt(1 - A*A): the SVD's s and its square carry a few units each
ROOT_GAP_TOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class JamiolkowskiSymbol:
    """2d-dimensional symbol of the Jamiolkowski state of a channel; its
    top-left d x d block is the totally mixed marginal 1/2."""

    symbol: Symbol


def jamiolkowski_symbol(channel: QuasiFreeChannel) -> JamiolkowskiSymbol:
    """Block symbol of the Jamiolkowski state.

    lambda(A, B):  J = 1/2 [[1, A], [A*, A*A + 2B]].  For lambda(At, B) . theta
    it is D conj(J_lambda(At, B)) D = D J_lambda(A, B^T) D, D = diag(1, -1).

    J = 1/2 [1; A*][1, A] + diag(0, B) and
    1 - J = 1/2 [1; -A*][1, -A] + diag(0, 1 - A*A - B), so 0 <= J <= 1 is
    exactly the complete-positivity test 0 <= B <= 1 - A*A of the source
    channel, which its constructor has proved.  J is therefore not validated
    again; its spectrum is range-checked when first read.
    """
    A, B, twisted = _as_lambda(channel)
    sign = 1.0
    if twisted:
        A, B, sign = np.conj(A), B.T, -1.0
    d = channel.dim
    J = np.empty((2 * d, 2 * d), dtype=complex)
    J[:d, :d] = 0.5 * np.eye(d)
    J[:d, d:] = (0.5 * sign) * A
    J[d:, :d] = (0.5 * sign) * A.conj().T
    gram = A.conj().T @ A
    J[d:, d:] = 0.25 * (gram + gram.conj().T)  # A*A / 2, exactly Hermitian
    J[d:, d:] += B
    return JamiolkowskiSymbol(symbol=Symbol(J))


def choi_exponential_form(channel: QuasiFreeChannel) -> ScaledExponential:
    """Closed form det(B) * E(argument) of the Choi matrix, defined when B is
    invertible; det(B) is real, as B is Hermitian.

    Argument [[B^-1 - 1, B^-1 At*], [At B^-1, 1 + At B^-1 At*]] for the
    channel lambda(At, B) . theta^twisted; the twist changes the Choi matrix
    by a unitary on the output factor only, which the form leaves out.
    Raises :class:`SingularB` when cond(B) >= ``COND_MAX``, the one cap of
    :func:`checked_inverse`; callers may fall back to :func:`dense_choi` at
    small d.  Reading ``scale`` out of double range raises :class:`ScaleOutOfRange`.
    """
    A, B, _ = _as_lambda(channel)
    d = channel.dim
    Binv, phase, logabsdet = checked_inverse(B, SingularB, "B")
    Binv = (Binv + Binv.conj().T) / 2.0
    AB = A @ Binv
    argument = np.empty((2 * d, 2 * d), dtype=complex)
    argument[:d, :d] = Binv - np.eye(d)
    argument[:d, d:] = AB.conj().T  # B^-1 A*, as B^-1 is Hermitian
    argument[d:, :d] = AB
    argument[d:, d:] = AB @ A.conj().T + np.eye(d)
    return ScaledExponential(float(phase.real), float(logabsdet), argument)


def _check_dense_dim(d: int) -> None:
    if d > DENSE_CHOI_CAP:
        raise DimensionCap(
            f"dense Choi/Stinespring constructions refuse d={d}: their tables "
            f"live on 2d={2 * d} modes, and they reach d={DENSE_CHOI_CAP}"
        )


def _stinespring_roots(A: np.ndarray):
    """sqrt(1 - AA*), sqrt(1 - A*A) and the pseudo-inverse of the latter, from
    one SVD A = U diag(s) Vh: both roots have the eigenvalues sqrt(1 - s^2),
    on the columns of U and of Vh* respectively.

    The pseudo-inverse drops the directions with 1 - s^2 <= ``ROOT_GAP_TOL``,
    where s is 1 up to rounding and the root is only the square root of
    rounding: inverting it there would divide B's rounding error by the
    rounding of 1 - s^2 and push Q' out of [0, 1]."""
    U, s, Vh = np.linalg.svd(A)
    gap = 1.0 - s * s
    root = np.sqrt(np.clip(gap, 0.0, None))
    inv_root = np.zeros_like(root)
    mask = gap > ROOT_GAP_TOL
    inv_root[mask] = 1.0 / root[mask]
    V = Vh.conj().T
    return (U * root) @ U.conj().T, (V * root) @ Vh, (V * inv_root) @ Vh


def _environment_symbol(
    root: np.ndarray, pinv_root: np.ndarray, B: np.ndarray
) -> SpectralSymbol:
    """Spectrum of Q' with B = root Q' root, for root = sqrt(1 - A*A) and its
    pseudo-inverse; :class:`InconsistentB` when no Q' in [0, 1] does it."""
    Qp = pinv_root @ B @ pinv_root
    Qp = (Qp + Qp.conj().T) / 2.0
    if not np.abs(root @ Qp @ root - B).max() <= ENV_SYMBOL_TOL:
        raise InconsistentB(
            "no environment symbol in [0, 1] reproduces B through sqrt(1-A*A)"
        )
    try:
        return spectral(Symbol(Qp, ENV_SYMBOL_TOL))
    except SpectrumOutOfRange as exc:
        raise InconsistentB(str(exc)) from exc


def _kraus_entries(channel: QuasiFreeChannel) -> np.ndarray:
    """The C(4d, 2d) Kraus entries K[a, L, i, c] that can be nonzero of the
    channel's lambda(At, B), channel*(x) = sum_{L,c} K[:, L, :, c] x K[:, L, :, c]*.

    They are the sector blocks of E(V') on 2d modes, each row-major, in
    sector order; row state r is (a, L), a on the low d modes and L on the
    high, column state s is (i, c), and :func:`_charge_blocks` says where each
    sits in the Choi blocks.  The environment state is E(W) diag(p) E(W)*, W
    the eigenvectors of its symbol and p their subset weights;
    1 (x) E(W)* = U E(1 + W*) U* under the split isomorphism U, so the
    entries are those of the rotation by
    V' = [[A, sqrt(1-AA*)], [-W* sqrt(1-A*A), W* A*]] with index L scaled by
    sqrt(p_L).  E(V') conserves particle number, so its sector blocks, rows
    scaled, are all the entries.
    """
    d = channel.dim
    A, B, _ = _as_lambda(channel)
    root_left, root_right, pinv_right = _stinespring_roots(A)
    env = _environment_symbol(root_right, pinv_right, B)
    Wh = env.eigenvectors.conj().T
    V = np.block([[A, root_left], [-Wh @ root_right, Wh @ A.conj().T]])
    basis = fock_basis(2 * d)
    env_of_row = fock_basis(d).position[basis.masks >> d]  # L of each row state
    scale = np.sqrt(_subset_weights(env.eigenvalues))[env_of_row]
    entries = np.empty(comb(4 * d, 2 * d), dtype=complex)
    start = 0
    for k, block in enumerate(_exp_blocks(V)):
        out = entries[start : start + block.size].reshape(block.shape)
        np.multiply(block, scale[basis.sector(k), None], out=out)
        start += block.size
    return entries


def _fock_operand(channel: QuasiFreeChannel, x, name: str, what: str) -> np.ndarray:
    _check_dense_dim(channel.dim)
    n = fock_basis(channel.dim).size
    x = _operand(x, name)
    if x.shape != (n, n):
        raise DimensionMismatch(f"{what} shape {x.shape}, expected {(n, n)}")
    return x


def stinespring_heisenberg(channel: QuasiFreeChannel, x: np.ndarray) -> np.ndarray:
    """Dense Heisenberg action of the channel on a Fock operator x."""
    x = _fock_operand(channel, x, "x", "operator")
    return _choi_action(_choi_blocks(channel), x, heisenberg=True)


def stinespring_schrodinger(channel: QuasiFreeChannel, rho: np.ndarray) -> np.ndarray:
    """Dense Schrodinger action (the trace dual of
    :func:`stinespring_heisenberg`) on a density matrix."""
    rho = _fock_operand(channel, rho, "rho", "state")
    return _choi_action(_choi_blocks(channel), rho, heisenberg=False)


@lru_cache(maxsize=None)
def _charge_blocks(d: int) -> tuple:
    """Per charge m = -d..d, the pair (rows, gather) of tables of the charge-m
    block of M[(i, a), (L, c)] = K[a, L, i, c].

    Row (i, a) has charge |a| - |i| and column (L, c) has charge |c| - |L|,
    so one charge array on the pairs serves both, and K vanishes off equal
    charges: a block's rows and columns are the same pairs.  rows are their
    numbers i n + a in M and C, and gather[x, y] is the index, among the
    entries of :func:`_kraus_entries`, of the block's entry at row x and
    column y: entry (r, s) of sector k of E(V'), r the 2d-mode state of
    (a, L) and s that of (i, c).  Each table has C(2d, d+m) rows;
    :func:`_check_cover` proves that together they hold every entry exactly
    once.
    """
    half, whole = fock_basis(d), fock_basis(2 * d)
    n, size = half.size, half.occupation.sum(axis=1)
    outer, inner = np.divmod(np.arange(n * n), n)  # (i, a) or (L, c)
    charge = size[inner] - size[outer]
    # the 2d-mode state of each pair (left, right), its sector, place and width
    state = whole.position[half.masks[outer] | half.masks[inner] << d]
    sector = size[outer] + size[inner]
    place = state - whole.starts[sector]
    width = np.diff(whole.starts)
    starts = np.cumsum(width * width) - width * width  # of each sector's entries
    blocks = []
    for m in range(-d, d + 1):
        rows = np.flatnonzero(charge == m)
        r = inner[rows, None] * n + outer[rows]  # (a, L)
        s = outer[rows, None] * n + inner[rows]  # (i, c)
        k = sector[r]
        gather = (starts[k] + place[r] * width[k] + place[s]).astype(np.int32)
        rows.flags.writeable = gather.flags.writeable = False
        blocks.append((rows, gather))
    _check_cover([gather for _, gather in blocks], comb(4 * d, 2 * d))
    return tuple(blocks)


def _check_cover(gathers: list, count: int) -> None:
    """Raise :class:`QuasifreeError` unless the gather tables, together, hold
    each of the count entries exactly once."""
    flat = np.concatenate([g.ravel() for g in gathers])
    if flat.size == count and flat.min() >= 0 and flat.max() < count:
        if (np.bincount(flat, minlength=count) == 1).all():
            return
    raise QuasifreeError(
        f"the particle-number charge blocks do not hold each of the {count} "
        "Kraus entries exactly once"
    )


def _choi_blocks(channel: QuasiFreeChannel) -> list:
    """The blocks of the dense Choi matrix, one pair (rows, C_m) per charge
    m = -d..d: C[np.ix_(rows, rows)] = C_m, and C is zero off these blocks.

    For lambda(At, B), C = M M* for M[(i, a), (L, c)] = K[a, L, i, c], and M
    is zero off its particle-number charge blocks, so C is the direct sum of
    the block products: sum_m C(2d, d+m)^3 multiply-adds (3.8e7 at d = 5) in
    place of the 4^(3d) of the full product (1.07e9).  Each block M_m is
    gathered straight from the Kraus entries.  For gamma, the one place the
    oracle reads the kind, C is conjugated on the output factor by the
    particle-hole unitary P e_a = s_a e_(n-1-a), s = :func:`_particle_hole_signs`:
    row (i, a) of each M_m moves to (i, n - 1 - a) and is multiplied by s_a.
    """
    d = channel.dim
    _check_dense_dim(d)
    n = 1 << d
    signs = _particle_hole_signs(d) if channel.kind == KIND_GAMMA else None
    # C[(i,a),(j,b)] = [channel*(e_ij)]_ab = sum_{L,c} K[a,L,i,c] conj K[b,L,j,c]
    entries = _kraus_entries(channel)
    blocks = []
    for rows, gather in _charge_blocks(d):
        block = entries[gather]
        if signs is not None:
            a = rows % n
            block *= signs[a, None]
            rows = rows + (n - 1 - 2 * a)
        blocks.append((rows, block @ block.conj().T))
    return blocks


def _choi_action(blocks: list, x: np.ndarray, heisenberg: bool) -> np.ndarray:
    """The dense action on the n x n operator x read off the blocks (rows, C_m)
    of :func:`_choi_blocks`: channel*(x)[a, b] = sum_ij x[i, j] C[(i,a),(j,b)]
    when heisenberg, else channel(x)[j, i] = sum_ab x[b, a] C[(i,a),(j,b)].

    Per block, one gather of x, one product with C_m and a scatter-add of
    the terms (real and imaginary parts by one bincount each), so nothing
    larger than a block is formed."""
    n = x.shape[0]
    real = np.zeros(n * n)
    imag = np.zeros(n * n)
    for rows, block in blocks:
        i, a = np.divmod(rows, n)  # block row p is (i[p], a[p]), column q is (i[q], a[q])
        if heisenberg:  # x[i_p, i_q] C_m[p, q] adds to out[a_p, a_q]
            terms, at = x[i[:, None], i] * block, a[:, None] * n + a
        else:  # x[a_q, a_p] C_m[p, q] adds to out[i_q, i_p]
            terms, at = x[a, a[:, None]] * block, i[:, None] + i * n
        at = at.ravel()
        real += np.bincount(at, terms.real.ravel(), n * n)
        imag += np.bincount(at, terms.imag.ravel(), n * n)
    return (real + 1j * imag).reshape(n, n)


def _direct_sum(blocks: list, size: int) -> np.ndarray:
    """The dense (size, size) matrix with the blocks (rows, C_m) of
    :func:`_choi_blocks` on their rows and columns and zeros elsewhere."""
    C = np.zeros((size, size), dtype=complex)
    for rows, block in blocks:
        C[np.ix_(rows, rows)] = block
    return C


def dense_choi(channel: QuasiFreeChannel) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) channel*(e_ij) over the Fock matrix units,
    with the Heisenberg action realized by the Stinespring oracle.  Its
    partial trace over the first factor is the identity.  Assembled from the
    charge blocks of :func:`_choi_blocks`."""
    return _direct_sum(_choi_blocks(channel), 4**channel.dim)


def dense_jamiolkowski(channel: QuasiFreeChannel) -> np.ndarray:
    """Jamiolkowski state (1/2^d) sum_ij e_ij (x) channel(e_ij): the image of
    the maximally entangled projector under id (x) channel.

    Read off the Choi matrix by trace duality,
    [channel(e_ij)]_ab = [channel*(e_ba)]_ji.
    """
    C = dense_choi(channel)
    n = 1 << channel.dim
    return C.reshape(n, n, n, n).transpose(3, 2, 1, 0).reshape(C.shape) / n
