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
``masks[i]``, the inverse lookup ``position[mask]`` and the tables of
:class:`FockBasis`, so that basis permutations, signs and minors are array
expressions rather than loops over subsets.  Every builder reaches them
through :func:`fock_basis`, the one place that refuses d above
``HARD_ORACLE_CAP``: every builder peaks at 1 to 1.25 dense 2^d x 2^d
complex matrices, so the cap on d is a cap on bytes.

Each builder costs what its nonzero structure costs.  E(X) is block diagonal
by particle number, and its sector-k block is computed from the sector-(k-1)
block by a Laplace expansion of the minors, with no determinants; density
matrices are assembled sector by sector; the split isomorphism is a 0/1
permutation, applied as an index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import (
    DimensionCap,
    DimensionMismatch,
    InvalidArgument,
    NotEvenState,
    NotOrthonormal,
    ScaleOutOfRange,
    ZeroVector,
)
from .symbols import Symbol, _is_integer, _operand, spectral

#: ceiling on the mode number of any dense construction: one 2^d x 2^d
#: complex matrix is 4.3 GB at d = 14 and 17.2 GB at d = 15
HARD_ORACLE_CAP = 14

#: numerical kernel threshold for elementary-vector detection
ELEMENTARY_KERNEL_TOL = 1e-9

EVEN_STATE_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Graded-lexicographic subset order on the Fock space of d modes, with
    the read-only tables the dense builders read.

    ``occupation`` is the (2^d, d) table of 0/1 whose row i marks the modes
    occupied in state i; sector k is the states ``starts[k]`` up to
    starts[k + 1].  ``laplace[k]``, k = 1..d, is the pair (modes, drop) of
    (C(d, k), k) index tables of sector k (``laplace[0]`` is None):
    modes[K, j] is the j-th occupied mode of the sector-k subset K in
    ascending order, and drop[K, j] the position of K minus that mode within
    sector k-1.  Removing modes[K, j] from K passes it over j lower modes,
    hence the sign (-1)^j in every expansion that reads these tables.
    """

    d: int
    masks: np.ndarray = field(repr=False)
    position: np.ndarray = field(repr=False)
    occupation: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    laplace: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return 1 << self.d

    def sector(self, k: int) -> slice:
        return slice(self.starts[k], self.starts[k + 1])


def fock_basis(d: int) -> FockBasis:
    """The basis of d modes, refused above ``HARD_ORACLE_CAP`` before it is
    built: the one entry to the cached basis and its tables."""
    if not _is_integer(d):
        raise DimensionMismatch(f"mode number must be an integer, got {d!r}")
    if d < 0:
        raise DimensionMismatch(f"mode number must be >= 0, got {d}")
    if d > HARD_ORACLE_CAP:
        gigabytes = 16 * 4.0**d / 1e9 if d < 500 else np.inf  # beyond double range
        raise DimensionCap(
            f"dense oracle refuses d={d} modes (cap {HARD_ORACLE_CAP}): one 2^{d} x 2^{d} "
            f"complex matrix is {gigabytes:.1f} GB"
        )
    return _fock_basis(d)


@lru_cache(maxsize=None)
def _fock_basis(d: int) -> FockBasis:
    subsets = (s for k in range(d + 1) for s in combinations(range(d), k))
    masks = np.array([sum(1 << j for j in s) for s in subsets], dtype=np.intp)
    position = np.empty_like(masks)
    position[masks] = np.arange(masks.size)
    occupation = (masks[:, None] >> np.arange(d)) & 1
    starts = np.searchsorted(occupation.sum(axis=1), np.arange(d + 2))  # sizes ascend
    laplace = [None]
    for k in range(1, d + 1):
        sl = slice(starts[k], starts[k + 1])
        modes = np.nonzero(occupation[sl])[1].reshape(-1, k)
        drop = position[masks[sl, None] ^ (1 << modes)] - starts[k - 1]
        laplace.append((modes, drop))
    for table in (masks, position, occupation, starts, *chain(*laplace[1:])):
        table.flags.writeable = False
    return FockBasis(d, masks, position, occupation, starts, tuple(laplace))


def creation_operator(phi) -> np.ndarray:
    """Creation operator of the one-particle vector phi, linear in phi, read
    off the Laplace tables: e_(K - m_j) -> (-1)^j phi[m_j] e_K, m_j the j-th
    mode of K.  Its adjoint is the annihilation operator (antilinear in phi).
    """
    phi = _operand(phi, "phi", ndim=1)
    basis = fock_basis(phi.shape[0])
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for k in range(1, basis.d + 1):
        modes, drop = basis.laplace[k]
        coeff = phi[modes]
        coeff[:, 1::2] = -coeff[:, 1::2]  # negated, not scaled by -1: -0.0 parts stay
        coeff = np.where(phi[modes] != 0, coeff, 0.0)  # a zero phi[m] writes +0.0
        np.put_along_axis(out[basis.sector(k), basis.sector(k - 1)], drop, coeff, axis=1)
    return out


def annihilation_operator(phi) -> np.ndarray:
    return creation_operator(phi).conj().T


def number_operator(d: int) -> np.ndarray:
    """Diagonal operator counting the occupied modes of each basis state."""
    return np.diag(fock_basis(d).occupation.sum(axis=1).astype(complex))


def _exp_blocks(X: np.ndarray):
    """Yield the minor blocks E_0, E_1, ..., E_min(d, m) of a d x m matrix X;
    for a square X they are the sectors of exp_element(X).

    E_k[K, L] is the minor det X[K, L] (rows K from the tables of d, columns
    L from those of m), expanded along its lowest column:
    sum_j (-1)^j X[m_j, min L] E_{k-1}[K - m_j, L - min L], m_j the j-th mode
    of K.  Only the previous block is kept.  A block with an entry beyond
    double range raises :class:`ScaleOutOfRange`, naming its sector.
    """
    rows, cols = fock_basis(X.shape[0]).laplace, fock_basis(X.shape[1]).laplace
    prev = np.ones((1, 1), dtype=complex)
    yield prev
    for k in range(1, min(X.shape) + 1):
        modes, drop = rows[k]
        col_modes, col_drop = cols[k]
        lowest = X[:, col_modes[:, 0]]  # X[m, min L] for every column subset L
        rest = prev[:, col_drop[:, 0]]  # E_{k-1}[., L - min L]
        with np.errstate(over="ignore", invalid="ignore"):  # a minor beyond range is refused below
            block = lowest[modes[:, 0]] * rest[drop[:, 0]]
            for j in range(1, k):
                term = lowest[modes[:, j]] * rest[drop[:, j]]
                (np.subtract if j % 2 else np.add)(block, term, out=block)
        if not np.isfinite(block).all():
            raise ScaleOutOfRange(f"E(X) has a sector-{k} minor outside double range")
        prev = block
        yield block


def exp_element(X) -> np.ndarray:
    """Operator acting as the k-fold antisymmetric power of X on each sector.

    Sector-k matrix elements are the k x k minors of X; the sector-0 entry is
    1.  Satisfies the product law E(X)E(Y) = E(XY), E(X)* = E(X*),
    tr E(X) = det(1 + X), and positivity together with X.

    Computed sector by sector with no determinants: each sector-k minor is
    the Laplace expansion along its lowest column over sector-(k-1) minors,
    through the index tables of :func:`fock_basis`.
    """
    X = _operand(X, "X")
    basis = fock_basis(X.shape[0])
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for k, block in enumerate(_exp_blocks(X)):
        sl = basis.sector(k)
        out[sl, sl] = block
    return out


def exp_spectrum(X) -> np.ndarray:
    """Eigenvalue multiset of exp_element(X), length 2^d, without forming it:
    the subset products of the eigenvalues of X, in basis order.

    A product beyond double range raises :class:`ScaleOutOfRange`; one that
    underflows is 0.
    """
    X = _operand(X, "X")
    d = X.shape[0]
    fock_basis(d)  # refused before the eigensolve: the multiset is 2^d long
    lam = np.linalg.eigvals(X)
    with np.errstate(over="ignore", invalid="ignore"):
        products = _subset_products(d, lam, 1.0)
    if not np.isfinite(products).all():
        largest = np.log(np.maximum(np.abs(lam), 1.0)).sum()
        raise ScaleOutOfRange(
            f"E(X) has a subset product outside double range: log|.| = {largest:.6e}"
        )
    return products


def k_particle_projector(vectors, d: int | None = None) -> np.ndarray:
    """Rank-1 projector onto the wedge line of k orthonormal one-particle
    vectors; with an empty list this is the vacuum projector (d required).

    The sector-k coordinates of v_1 ^ ... ^ v_k are the k x k minors
    det V[K, :] of the d x k matrix V of the vectors, the last block of
    :func:`_exp_blocks` (V); for k = 0 that block is the vacuum entry 1."""
    vecs = [_operand(v, "vectors", ndim=1) for v in vectors]
    if d is None:
        if not vecs:
            raise DimensionMismatch("vacuum projector needs an explicit d")
        d = vecs[0].shape[0]
    basis = fock_basis(d)  # refuses d < 0 and d above the cap before allocating
    lengths = [len(v) for v in vecs]
    if any(n != d for n in lengths):
        raise DimensionMismatch(f"vectors must have length d={d}, got lengths {lengths}")
    V = np.stack(vecs, axis=1) if vecs else np.zeros((d, 0))
    k = V.shape[1]
    gram_dev = np.abs(V.conj().T @ V - np.eye(k)).max(initial=0.0)
    if not gram_dev <= ORTHONORMAL_TOL:
        raise NotOrthonormal(f"max |V*V - 1| = {gram_dev:.3e}")
    *_, wedge = _exp_blocks(V)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.sector(k)] = wedge[:, 0]
    return np.outer(psi, psi.conj())


def _subset_products(d: int, inside, outside) -> np.ndarray:
    """For each basis subset L of d modes, in basis order, the product over
    the modes j of inside_j (j in L) or outside_j (j not in L); each of
    inside and outside is a length-d array or a scalar.  Every 2^d diagonal
    of the oracle is one of these."""
    return np.where(fock_basis(d).occupation, inside, outside).prod(axis=1)


def _subset_weights(values: np.ndarray) -> np.ndarray:
    """The quasi-free weights prod_{r in L} v_r * prod_{s not in L} (1 - v_s)."""
    return _subset_products(values.shape[0], values, 1.0 - values)


def density_matrix(Q: Symbol) -> np.ndarray:
    """Dense density matrix of the quasi-free state with symbol Q.

    Assembled in eigenform: the wedge projectors of the eigenvector subsets,
    weighted by the products q_L = prod q (in L) * prod (1-q) (outside L).
    This stays well-defined for eigenvalues 0 and 1.  Equivalently
    E(V) diag(q_L) E(V)* for the eigenvector unitary V of :func:`spectral`
    (Q), which is how it is evaluated here, one particle-number sector at a
    time since E(V) is block diagonal.
    """
    basis = fock_basis(Q.dim)
    s = spectral(Q)
    weights = _subset_weights(s.eigenvalues)
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for k, block in enumerate(_exp_blocks(s.eigenvectors)):
        sl = basis.sector(k)
        rho[sl, sl] = (block * weights[sl]) @ block.conj().T
    return rho


def is_elementary(phi, d: int, k: int) -> bool:
    """True iff the sector-k vector phi is a single wedge of k one-particle
    vectors, decided by the dimension of {chi : chi ^ phi = 0} being k."""
    fock_basis(d)  # refuses d < 0 and d above the cap, as for every builder
    if not _is_integer(k) or k < 0:
        raise InvalidArgument(f"sector must be an integer >= 0, got {k!r}")
    phi = _operand(phi, "phi", ndim=1)
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
    modes, drop = fock_basis(d).laplace[k + 1]
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
    return np.diag(_subset_products(d, -1.0, 1.0).astype(complex))


def wedge_state_product(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Density matrix of the graded product of an even state with another
    state: conjugate rho1 (x) rho2 by the inverse split isomorphism.

    Evenness of rho1 (commuting with the parity operator) is what makes the
    product state well defined; its marginals reproduce rho1 and rho2.
    """
    rho1 = _operand(rho1, "rho1", nonempty=True)
    rho2 = _operand(rho2, "rho2", nonempty=True)
    d1, d2 = _modes_of(rho1), _modes_of(rho2)
    parity = _subset_products(d1, -1.0, 1.0)
    dev = np.abs(rho1 * (parity - parity[:, None])).max()  # [rho1, parity], exact
    if not dev <= EVEN_STATE_TOL:
        raise NotEvenState(f"max |[rho1, parity]| = {dev:.3e}")
    t = _split_permutation(d1, d2)
    return np.kron(rho1, rho2)[np.ix_(t, t)]  # U* (rho1 (x) rho2) U


def _particle_hole_signs(d: int) -> np.ndarray:
    """(-1)^sum_{j in L} (d-1-j), times (-1)^(d-|L|) when d is even, per state
    L: in either case the product of (-1)^j over the modes j in L."""
    return _subset_products(d, (-1.0) ** np.arange(d), 1.0)


def particle_hole_unitary(d: int) -> np.ndarray:
    """Unitary implementing the particle-hole automorphism a(phi) -> a*(conj phi).

    Product of the self-adjoint unitaries a*(e_i) + a(e_i), i = 0, ..., d-1,
    with one parity factor when d is even so that conjugation sends each a_i
    exactly to a_i* (the bare product picks up (-1)^(d-1)).  That product
    sends L to its complement with the sign :func:`_particle_hole_signs`, and
    complementing reverses the basis order, so it is built as those signs on
    the anti-diagonal.
    """
    signs = _particle_hole_signs(d)
    n = signs.size
    W = np.zeros((n, n), dtype=complex)
    W[np.arange(n - 1, -1, -1), np.arange(n)] = signs
    return W


def partial_trace(M: np.ndarray, dims: tuple, keep: int) -> np.ndarray:
    """Partial trace of a matrix on a two-factor tensor product.

    ``dims = (D1, D2)`` are the factor dimensions; ``keep`` selects the factor
    that survives (0 or 1).
    """
    M = _operand(M, "matrix")
    if np.shape(dims) != (2,) or not all(_is_integer(n) and n > 0 for n in dims):
        raise DimensionMismatch(f"dims must be two positive integers, got {dims!r}")
    D1, D2 = dims
    if M.shape != (D1 * D2, D1 * D2):
        raise DimensionMismatch(f"matrix shape {M.shape} does not match dims {dims}")
    if not _is_integer(keep) or keep not in (0, 1):
        raise InvalidArgument(f"keep must be 0 or 1, got {keep!r}")
    return np.einsum("abcb->ac" if keep == 0 else "abad->bd", M.reshape(D1, D2, D1, D2))


def _modes_of(op: np.ndarray) -> int:
    """d for a square, nonempty operator of side 2^d."""
    d = op.shape[0].bit_length() - 1
    if (1 << d) != op.shape[0]:
        raise DimensionMismatch(f"operator shape {op.shape} is not 2^d x 2^d")
    return d
