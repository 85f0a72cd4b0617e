"""Dense Fock-space oracle.

Builds creation/annihilation operators, exponential elements, quasi-free
density matrices and the split isomorphism explicitly, at exponential cost,
so that every symbol-level formula in the package can be checked against
brute force at small mode number.

Conventions
-----------
The 2^d-dimensional Fock space over d modes is coordinatized by the
graded-lexicographic subset basis: subsets of {0, ..., d-1} sorted first by
size, then lexicographically.  Index 0 is the vacuum, index 2^d - 1 the
completely filled state.  The basis vector of a subset is the wedge of the
standard one-particle vectors in *ascending* mode order; every sign below
follows from that choice.

Operators are plain (2^d, 2^d) complex ndarrays over this basis.  The basis
also carries each subset as a bitmask (bit j set iff mode j is occupied),
``masks[i]``, and the inverse lookup ``position[mask]``, so that basis
permutations and signs are array expressions rather than loops over subsets.

Each builder costs what its nonzero structure costs.  E(X) is block diagonal
by particle number, and its sector-k block is computed from the sector-(k-1)
block by a Laplace expansion of the minors, with no determinants; density
matrices are assembled sector by sector; the split isomorphism is a 0/1
permutation, applied as an index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    DimensionCap,
    DimensionMismatch,
    InvalidArgument,
    NotEvenState,
    NotOrthonormal,
    ZeroVector,
)
from .symbols import Symbol, _operand, spectral

#: absolute ceiling on the one-particle dimension of any dense construction
HARD_ORACLE_CAP = 14

#: numerical kernel threshold for elementary-vector detection
ELEMENTARY_KERNEL_TOL = 1e-9

#: exp_spectrum counts eigenvalues of X below this (relative to the largest) as 0
SPECTRUM_RANK_TOL = 1e-9

EVEN_STATE_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10


def oracle_cap() -> int:
    """Current dense-oracle cap: QUASIFREE_MAX_ORACLE_D, hard-capped at 14."""
    raw = os.environ.get("QUASIFREE_MAX_ORACLE_D")
    if raw is None:
        return HARD_ORACLE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise DimensionCap(f"QUASIFREE_MAX_ORACLE_D must be an integer, got {raw!r}") from None
    return max(1, min(value, HARD_ORACLE_CAP))


def _check_cap(d: int) -> None:
    cap = oracle_cap()
    if d > cap:
        raise DimensionCap(
            f"dense oracle refuses d={d} modes (cap {cap}; 2^{d} basis states)"
        )


@dataclass(frozen=True)
class FockBasis:
    """Graded-lexicographic subset order on the Fock space of d modes."""

    d: int
    masks: np.ndarray = field(repr=False, compare=False)
    position: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return 1 << self.d

    def sector(self, k: int) -> slice:
        start = sum(comb(self.d, j) for j in range(k))
        return slice(start, start + comb(self.d, k))


def fock_basis(d: int) -> FockBasis:
    """The basis of d modes, refused above :func:`oracle_cap` before it is built."""
    if d < 0:
        raise DimensionMismatch(f"mode number must be >= 0, got {d}")
    _check_cap(d)
    return _fock_basis(d)


@lru_cache(maxsize=None)
def _fock_basis(d: int) -> FockBasis:
    subsets = (s for k in range(d + 1) for s in combinations(range(d), k))
    masks = np.array([sum(1 << j for j in s) for s in subsets], dtype=np.intp)
    position = np.empty_like(masks)
    position[masks] = np.arange(masks.size)
    masks.flags.writeable = position.flags.writeable = False
    return FockBasis(d=d, masks=masks, position=position)


@lru_cache(maxsize=None)
def _occupation(d: int) -> np.ndarray:
    """(2^d, d) table of 0/1: row i marks the modes occupied in basis state i."""
    occ = (fock_basis(d).masks[:, None] >> np.arange(d)) & 1
    occ.flags.writeable = False
    return occ


@lru_cache(maxsize=None)
def _laplace_tables(d: int) -> tuple:
    """At index k = 1..d, the pair (modes, drop) of (C(d, k), k) index tables
    of sector k; index 0 is None.

    modes[K, j] is the j-th occupied mode of the sector-k subset K in ascending
    order, and drop[K, j] the position of K minus that mode within sector k-1.
    Removing modes[K, j] from K passes it over j lower modes, hence the sign
    (-1)^j in every expansion that reads these tables.
    """
    basis = fock_basis(d)
    occ = _occupation(d)
    tables = [None]
    for k in range(1, d + 1):
        sl = basis.sector(k)
        modes = np.nonzero(occ[sl])[1].reshape(-1, k)
        removed = basis.masks[sl, None] ^ (1 << modes)
        drop = basis.position[removed] - basis.sector(k - 1).start
        modes.flags.writeable = drop.flags.writeable = False
        tables.append((modes, drop))
    return tuple(tables)


def creation_operator(phi) -> np.ndarray:
    """Creation operator of the one-particle vector phi, linear in phi.

    Its adjoint is the annihilation operator (antilinear in the argument).
    """
    phi = _operand(np.ravel(phi), "phi", ndim=1)
    d = phi.shape[0]
    basis = fock_basis(d)
    occ = _occupation(d)
    below = np.cumsum(occ, axis=1) - occ  # occupied modes below each mode
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for mode in np.flatnonzero(phi):
        cols = np.flatnonzero(occ[:, mode] == 0)
        rows = basis.position[basis.masks[cols] | (1 << mode)]
        out[rows, cols] = np.where(below[cols, mode] % 2, -phi[mode], phi[mode])
    return out


def annihilation_operator(phi) -> np.ndarray:
    return creation_operator(phi).conj().T


def number_operator(d: int) -> np.ndarray:
    """Diagonal operator counting the occupied modes of each basis state."""
    _check_cap(d)
    return np.diag(_occupation(d).sum(axis=1).astype(complex))


def _exp_blocks(X: np.ndarray):
    """Yield the minor blocks E_0, E_1, ..., E_min(d, m) of a d x m matrix X;
    for a square X they are the sectors of exp_element(X).

    E_k[K, L] is the minor det X[K, L] (rows K from the tables of d, columns
    L from those of m), expanded along its lowest column:
    sum_j (-1)^j X[m_j, min L] E_{k-1}[K - m_j, L - min L], m_j the j-th mode
    of K.  Only the previous block is kept.
    """
    rows, cols = _laplace_tables(X.shape[0]), _laplace_tables(X.shape[1])
    prev = np.ones((1, 1), dtype=complex)
    yield prev
    for k in range(1, min(X.shape) + 1):
        modes, drop = rows[k]
        col_modes, col_drop = cols[k]
        lowest = X[:, col_modes[:, 0]]  # X[m, min L] for every column subset L
        rest = prev[:, col_drop[:, 0]]  # E_{k-1}[., L - min L]
        block = lowest[modes[:, 0]] * rest[drop[:, 0]]
        for j in range(1, k):
            term = lowest[modes[:, j]] * rest[drop[:, j]]
            if j % 2:
                block -= term
            else:
                block += term
        prev = block
        yield block


def exp_element(X) -> np.ndarray:
    """Operator acting as the k-fold antisymmetric power of X on each sector.

    Sector-k matrix elements are the k x k minors of X; the sector-0 entry is
    1.  Satisfies the product law E(X)E(Y) = E(XY), E(X)* = E(X*),
    tr E(X) = det(1 + X), and positivity together with X.

    Computed sector by sector with no determinants: each sector-k minor is
    the Laplace expansion along its lowest column over sector-(k-1) minors,
    through index tables cached per d.
    """
    X = _operand(X, "X")
    d = X.shape[0]
    basis = fock_basis(d)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for k, block in enumerate(_exp_blocks(X)):
        sl = basis.sector(k)
        out[sl, sl] = block
    return out


def exp_spectrum(X) -> np.ndarray:
    """Eigenvalue multiset of exp_element(X), length 2^d, computed at
    polynomial cost from the eigenvalues of X.

    The multiset consists of all subset products of the nonzero eigenvalues
    (numerical rank r, threshold ``SPECTRUM_RANK_TOL`` relative to the
    largest magnitude), padded with 2^d - 2^r zeros.
    """
    X = _operand(X, "X")
    d = X.shape[0]
    _check_cap(d)  # the multiset itself is 2^d long
    lam = np.linalg.eigvals(X)
    scale = max(1.0, float(np.abs(lam).max())) if lam.size else 1.0
    nonzero = lam[np.abs(lam) > SPECTRUM_RANK_TOL * scale]
    products = np.array([1.0 + 0.0j])
    for v in nonzero:
        products = np.concatenate([products, v * products])
    zeros = np.zeros((1 << d) - products.size, dtype=complex)
    return np.concatenate([products, zeros])


def k_particle_projector(vectors, d: int | None = None) -> np.ndarray:
    """Rank-1 projector onto the wedge line of k orthonormal one-particle
    vectors; with an empty list this is the vacuum projector (d required).

    The sector-k coordinates of v_1 ^ ... ^ v_k are the k x k minors
    det V[K, :] of the d x k matrix V of the vectors, the last block of
    :func:`_exp_blocks` (V); for k = 0 that block is the vacuum entry 1."""
    vecs = [_operand(np.ravel(v), "vectors", ndim=1) for v in vectors]
    if d is None:
        if not vecs:
            raise DimensionMismatch("vacuum projector needs an explicit d")
        d = vecs[0].shape[0]
    if any(v.shape[0] != d for v in vecs):
        raise DimensionMismatch("vectors must share the one-particle dimension")
    _check_cap(d)
    V = np.stack(vecs, axis=1) if vecs else np.zeros((d, 0))
    k = V.shape[1]
    gram_dev = np.abs(V.conj().T @ V - np.eye(k)).max(initial=0.0)
    if gram_dev > ORTHONORMAL_TOL:
        raise NotOrthonormal(f"max |V*V - 1| = {gram_dev:.3e}")
    *_, wedge = _exp_blocks(V)
    psi = np.zeros(1 << d, dtype=complex)
    psi[fock_basis(d).sector(k)] = wedge[:, 0]
    return np.outer(psi, psi.conj())


def _subset_weights(values: np.ndarray) -> np.ndarray:
    """For each basis subset L, prod_{r in L} v_r * prod_{s not in L} (1 - v_s),
    in graded-lexicographic order."""
    occ = _occupation(values.shape[0]).astype(bool)
    return np.where(occ, values, 1.0 - values).prod(axis=1)


def density_matrix(Q: Symbol) -> np.ndarray:
    """Dense density matrix of the quasi-free state with symbol Q.

    Assembled in eigenform: the wedge projectors of the eigenvector subsets,
    weighted by the products q_L = prod q (in L) * prod (1-q) (outside L).
    This stays well-defined for eigenvalues 0 and 1.  Equivalently
    E(V) diag(q_L) E(V)* for the eigenvector unitary V of :func:`spectral`
    (Q), which is how it is evaluated here, one particle-number sector at a
    time since E(V) is block diagonal.
    """
    d = Q.dim
    _check_cap(d)
    s = spectral(Q)
    weights = _subset_weights(s.eigenvalues)
    basis = fock_basis(d)
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for k, block in enumerate(_exp_blocks(s.eigenvectors)):
        sl = basis.sector(k)
        rho[sl, sl] = (block * weights[sl]) @ block.conj().T
    return rho


def is_elementary(phi, d: int, k: int) -> bool:
    """True iff the sector-k vector phi is a single wedge of k one-particle
    vectors, decided by the dimension of {chi : chi ^ phi = 0} being k."""
    if d < 0 or k < 0:
        raise InvalidArgument(f"mode number and sector must be >= 0, got d={d}, k={k}")
    phi = _operand(np.ravel(phi), "phi", ndim=1)
    if phi.shape[0] != comb(d, k):
        raise DimensionMismatch(
            f"sector-{k} vector over {d} modes has length {comb(d, k)}, got {phi.shape[0]}"
        )
    norm = np.linalg.norm(phi)
    if norm == 0.0:
        raise ZeroVector("elementary-vector test needs a nonzero vector")
    phi = phi / norm
    if k == d:
        return True  # wedge map to the (empty) sector d+1 vanishes identically
    sv = np.linalg.svd(_wedge_map(phi, d, k), compute_uv=False)
    rank = int(np.count_nonzero(sv > ELEMENTARY_KERNEL_TOL))
    return d - rank == k


def _wedge_map(phi: np.ndarray, d: int, k: int) -> np.ndarray:
    """Matrix of chi -> chi ^ phi from one-particle vectors to sector k+1:
    T[U, m_j] = (-1)^j phi[U - m_j] over the sector-(k+1) subsets U."""
    _check_cap(d)
    modes, drop = _laplace_tables(d)[k + 1]
    coeff = phi[drop]
    coeff[:, 1::2] = -coeff[:, 1::2]
    T = np.zeros((modes.shape[0], d), dtype=complex)
    np.put_along_axis(T, modes, coeff, axis=1)
    return T


def _split_permutation(d1: int, d2: int) -> np.ndarray:
    """The permutation t with split_isomorphism(d1, d2)[t[i], i] = 1: the
    tensor index (first-block subset, second-block subset) of basis state i."""
    masks = fock_basis(d1 + d2).masks
    left, right = fock_basis(d1), fock_basis(d2)
    return left.position[masks & (left.size - 1)] * right.size + right.position[masks >> d1]


def split_isomorphism(d1: int, d2: int) -> np.ndarray:
    """Unitary from the Fock space of d1 + d2 modes onto the tensor product
    of the d1- and d2-mode Fock spaces.

    A subset basis vector maps to (subset in first block) x (subset in second
    block, shifted), with the sign of the interleaving permutation.  Because
    basis subsets are kept in ascending mode order and every first-block mode
    precedes every second-block mode, that permutation is the identity and
    all entries are +1.
    """
    t = _split_permutation(d1, d2)
    U = np.zeros((t.size, t.size), dtype=complex)
    U[t, np.arange(t.size)] = 1.0
    return U


def parity_operator(d: int) -> np.ndarray:
    """Self-adjoint unitary with entry (-1)^(#occupied) on each basis state;
    equals exp_element(-1), squares to 1, anticommutes with every creation
    operator.  The + sign is a fixed internal choice."""
    _check_cap(d)
    return np.diag(((-1.0) ** _occupation(d).sum(axis=1)).astype(complex))


def wedge_state_product(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Density matrix of the graded product of an even state with another
    state: conjugate rho1 (x) rho2 by the inverse split isomorphism.

    Evenness of rho1 (commuting with the parity operator) is what makes the
    product state well defined; its marginals reproduce rho1 and rho2.
    """
    rho1 = _operand(rho1, "rho1", nonempty=True)
    rho2 = _operand(rho2, "rho2", nonempty=True)
    d1, d2 = _modes_of(rho1), _modes_of(rho2)
    theta = parity_operator(d1)
    dev = np.abs(rho1 @ theta - theta @ rho1).max()
    if dev > EVEN_STATE_TOL:
        raise NotEvenState(f"max |[rho1, parity]| = {dev:.3e}")
    t = _split_permutation(d1, d2)
    return np.kron(rho1, rho2)[np.ix_(t, t)]  # U* (rho1 (x) rho2) U


def _particle_hole_signs(d: int) -> np.ndarray:
    """(-1)^sum_{j in L} (d-1-j), times (-1)^(d-|L|) when d is even, per state L."""
    occ = _occupation(d)
    exponent = (occ * np.arange(d - 1, -1, -1)).sum(axis=1)
    if d % 2 == 0:
        exponent += d - occ.sum(axis=1)
    return (-1.0) ** exponent


def particle_hole_unitary(d: int) -> np.ndarray:
    """Unitary implementing the particle-hole automorphism a(phi) -> a*(conj phi).

    Product of the self-adjoint unitaries a*(e_i) + a(e_i), i = 0, ..., d-1,
    with one parity factor when d is even so that conjugation sends each a_i
    exactly to a_i* (the bare product picks up (-1)^(d-1)).  That product
    sends L to its complement with the sign :func:`_particle_hole_signs`, and
    complementing reverses the basis order, so it is built as those signs on
    the anti-diagonal.
    """
    _check_cap(d)
    n = 1 << d
    W = np.zeros((n, n), dtype=complex)
    W[np.arange(n - 1, -1, -1), np.arange(n)] = _particle_hole_signs(d)
    return W


def partial_trace(M: np.ndarray, dims: tuple, keep: int) -> np.ndarray:
    """Partial trace of a matrix on a two-factor tensor product.

    ``dims = (D1, D2)`` are the factor dimensions; ``keep`` selects the factor
    that survives (0 or 1).
    """
    M = _operand(M, "matrix")
    D1, D2 = dims
    if M.shape != (D1 * D2, D1 * D2):
        raise DimensionMismatch(f"matrix shape {M.shape} does not match dims {dims}")
    T = M.reshape(D1, D2, D1, D2)
    if keep == 0:
        return np.einsum("abcb->ac", T)
    if keep == 1:
        return np.einsum("abad->bd", T)
    raise InvalidArgument(f"keep must be 0 or 1, got {keep!r}")


def _modes_of(op: np.ndarray) -> int:
    """d for a square, nonempty operator of side 2^d."""
    d = op.shape[0].bit_length() - 1
    if (1 << d) != op.shape[0]:
        raise DimensionMismatch(f"operator shape {op.shape} is not 2^d x 2^d")
    return d
