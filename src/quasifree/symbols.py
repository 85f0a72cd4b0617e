"""Validation, spectral analysis, and convex manipulation of one-particle symbols.

A symbol is a d x d Hermitian matrix Q with 0 <= Q <= 1.  It fully determines
a gauge-invariant quasi-free state on d fermionic modes; every functional of
the state computed in this package reduces to a functional of Q.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotHermitian,
    NotQuasiFreeMixture,
    SpectrumOutOfRange,
)

HERMITIAN_TOL = 1e-10
#: singular values below this (relative to the max-entry norm) count as zero
#: when deciding whether a symbol difference has rank <= 1
MIX_RANK_TOL = 1e-9
_U = np.finfo(float).eps / 2.0  # unit roundoff


@dataclass(frozen=True, eq=False)
class Symbol:
    """A one-particle symbol: ``matrix`` is exactly Hermitian and read-only.

    The constructor makes every symbol and proves nothing; a matrix from
    outside goes through :func:`validate_symbol`.  It freezes ``matrix``
    without a copy: a hand-built ``Symbol(M)`` with a complex M freezes M in
    place.  ``eigenvalues`` (descending, clipped to [0, 1]) are computed on
    first read, range-checked at the init-only tolerance ``_tol`` and cached
    per instance, so symbols by theorem (channel images, Jamiolkowski blocks,
    convex mixtures) skip the eigendecomposition.  A symbol certified by
    Cholesky has a proven range, dust within ``min(tol, HERMITIAN_TOL)``
    included, so its ``_tol`` is infinite and the first read only clips.
    ``dataclasses.replace`` starts from an empty cache at ``HERMITIAN_TOL``.
    """

    matrix: np.ndarray
    _tol: InitVar[float] = HERMITIAN_TOL
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self, _tol):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        self._cache["tol"] = _tol

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        w = self._cache.get("eigenvalues")
        return _read_spectrum(self, np.linalg.eigvalsh(self.matrix)) if w is None else w


@dataclass(frozen=True, eq=False)
class SpectralSymbol:
    """Eigendecomposition of a symbol: eigenvalues descending in [0, 1],
    eigenvectors as the columns of a unitary matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _operand(M, name: str, ndim: int = 2, nonempty: bool = False) -> np.ndarray:
    """M as a complex square matrix (``ndim`` 2) or vector (``ndim`` 1), not
    empty if ``nonempty``, with finite entries: the one gate for every matrix
    and vector operand.  :class:`DimensionMismatch` for a wrong shape or an
    empty operand, :class:`InvalidArgument` for a ragged nesting, an entry
    that is not a number (a string is not read as one) or a NaN or infinite
    entry."""
    try:
        M = np.asarray(M)
    except ValueError as exc:  # a ragged nesting
        raise InvalidArgument(f"{name} is ragged, not an array of numbers") from exc
    if M.dtype.kind not in "biufc":
        raise InvalidArgument(f"{name} has entries that are not numbers (dtype {M.dtype})")
    M = M.astype(complex, copy=False)
    if M.ndim != ndim or M.shape[0] != M.shape[-1]:
        what = "square" if ndim == 2 else "one-dimensional"
        raise DimensionMismatch(f"expected a {what} {name}, got shape {M.shape}")
    if nonempty and M.size == 0:
        raise DimensionMismatch(f"{name} must have positive dimension, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidArgument(f"{name} has non-finite entries")
    return M


def _is_integer(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)  # a bool is no count


def _is_real(x) -> bool:
    return np.ndim(x) == 0 and np.asarray(x).dtype.kind in "iuf"  # no bool, str, None or list


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _hermitian_part(M: np.ndarray):
    """(H, dev) = ((M + M*)/2, max|M - M*|), the Hermitian gate of symbols and
    channels; an overflow or NaN is left to each caller's refusal."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (M + M.conj().T) / 2.0, np.abs(M - M.conj().T).max()


def _read_spectrum(Q: Symbol, w: np.ndarray) -> np.ndarray:
    """Q's spectrum, descending, clipped to [0, 1], read-only, from ascending
    ``w``.  Only Q's first read range-checks ``w`` at Q's tolerance and caches
    it, so ``Q.eigenvalues`` and ``spectral(Q).eigenvalues`` are one array."""
    q = Q._cache.get("eigenvalues")
    if q is None:
        tol = Q._cache["tol"]
        if w.size and not (w[0] >= -tol and w[-1] <= 1.0 + tol):  # NaN refuses
            raise SpectrumOutOfRange(
                f"eigenvalues in [{w[0]:.6e}, {w[-1]:.6e}] leave [0, 1] beyond tol {tol:.1e}"
            )
        q = Q._cache["eigenvalues"] = _frozen(np.clip(w, 0.0, 1.0)[::-1].copy())
    return q


def validate_symbol(M, tol: float = HERMITIAN_TOL) -> Symbol:
    """Check that M is a symbol and return it with eigenvalues clipped to [0, 1]:
    the one entry for matrices from outside.  Raises :class:`NotHermitian` if
    ``max|M - M*| > tol`` and :class:`SpectrumOutOfRange` if any eigenvalue
    lies below ``-tol`` or above ``1 + tol``, or if H = (M + M*)/2 overflows;
    a ``tol`` that is a bool or not a real number, NaN, infinite or negative
    raises :class:`InvalidArgument`.

    The range 0 <= H <= 1 of the Hermitian part H is first tried at every d
    by two Cholesky certificates (:func:`_certified_psd`, on H and on 1 - H,
    each with one bound, max_i (|L|^T |L| 1)_i <= ||L||_1 ||L||_inf, up to a
    rounding factor 1 + O(d u)).  Certified matrices are kept as given (see
    :class:`Symbol`).  The certificates run at ``min(tol, HERMITIAN_TOL)``,
    not at ``tol``: dust kept in the matrix then stays within what consumers
    with fixed tolerances accept (mixtures, channel images, the
    relative-entropy kernel test), and larger dust, even within a larger
    ``tol``, is clamped.  Otherwise the eigvalsh read decides, words the
    error and is cached, and dust within ``tol`` is clamped through
    :func:`spectral` (not range-judged again): the clamped matrix is
    V diag(clip w) V*, so that decomposition is its own and stays cached.
    """
    if not _is_real(tol) or not 0.0 <= tol < np.inf:
        raise InvalidArgument(f"tol must be finite and >= 0, got {tol}")
    H, herm_dev = _hermitian_part(_operand(M, "matrix", nonempty=True))
    if not herm_dev <= tol:
        raise NotHermitian(f"max |M - M*| = {herm_dev:.3e} exceeds tol {tol:.1e}")
    if not np.isfinite(H).all():
        raise SpectrumOutOfRange("the Hermitian part (M + M*)/2 overflows double range")
    kept = min(tol, HERMITIAN_TOL)
    if _certified_psd(H, kept) and _certified_psd(np.eye(H.shape[0]) - H, kept):
        return Symbol(H, np.inf)
    Q, w = Symbol(H, tol), np.linalg.eigvalsh(H)
    _read_spectrum(Q, w)
    if w[0] >= 0.0 and w[-1] <= 1.0:
        return Q
    s = spectral(Symbol(H, np.inf))
    H = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    Q = Symbol((H + H.conj().T) / 2.0)
    Q._cache.update(eigenvalues=s.eigenvalues, spectral=s)
    return Q


def _gram_bound(absL: np.ndarray) -> float:
    """|| absL ||_2^2 = rho(N) <= ||N||_inf = max_i (N 1)_i for N = absL^T absL
    >= 0.  N 1 sums nonnegative terms, so the computed maximum divided by
    1 - gamma_{2n+5} covers the rounding of the sums (2n) and of the moduli
    |L_ij| in absL (4), with one to spare."""
    grow = 1.0 + 2.0 * (2 * absL.shape[0] + 5) * _U  # >= 1 / (1 - gamma_{2n+5})
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, certifying nothing
        return grow * float((absL.T @ (absL @ np.ones(absL.shape[0]))).max())


def _certified_psd(H: np.ndarray, tol: float) -> bool:
    """True only when lambda_min(H) >= -tol holds exactly for the exactly
    Hermitian H; False means "not certified", and the caller's eigenvalue
    test decides.  A Cholesky factorization H + (tol/2) 1 = LL* that runs to
    completion has a backward error |E| <= c |L||L*|, c = sqrt(2) gamma_{n+3}
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3 and
    sec. 3.6), so lambda_min(H) >= -tol once c || |L| ||_2^2 <= tol/2; the
    certificate reads || |L| ||_2^2 as :func:`_gram_bound`, its one bound.
    """
    n = H.shape[0]
    half = tol / 2.0
    shifted = H.copy()
    shifted.flat[:: n + 1] += half
    try:
        absL = np.abs(np.linalg.cholesky(shifted))
    except np.linalg.LinAlgError:
        return False
    c = np.sqrt(2.0) * (n + 3) * _U / (1.0 - (n + 3) * _U)  # sqrt(2) gamma_{n+3}
    return c * _gram_bound(absL) <= half


def spectral(Q: Symbol) -> SpectralSymbol:
    """Eigendecomposition of a symbol, its eigenvalues descending as
    :func:`_read_spectrum` reads them.  The only place that computes
    eigenvectors of a symbol: every consumer (relative entropy, the dense
    density matrix, the Stinespring environment, the clamp in
    :func:`validate_symbol`) reads them here, once per symbol, cached on it."""
    s = Q._cache.get("spectral")
    if s is None:
        w, V = np.linalg.eigh(Q.matrix)
        order = np.argsort(-w, kind="stable")  # tied eigenvalues keep their columns' order
        s = Q._cache["spectral"] = SpectralSymbol(_read_spectrum(Q, w), _frozen(V[:, order]))
    return s


def conjugate_matrix(A) -> np.ndarray:
    """Entrywise complex conjugate in the distinguished standard basis.

    This is the matrix of the conjugated operator; for Hermitian input it
    coincides with the transpose.  Applying it twice is the identity.
    """
    return np.conj(_operand(A, "A"))


def mix_symbols(Q1: Symbol, Q2: Symbol, lam: float) -> Symbol:
    """Symbol of the convex mixture of two quasi-free states, when it exists.

    The mixture ``lam * state(Q1) + (1 - lam) * state(Q2)`` is quasi-free
    exactly when ``Q1 - Q2`` has rank 0 or 1, in which case its symbol is the
    affine combination ``lam*Q1 + (1-lam)*Q2``.  Otherwise raises
    :class:`NotQuasiFreeMixture`.

    The rank is the number of singular values above ``MIX_RANK_TOL`` times
    the largest entry of ``Q1 - Q2``.  :func:`_near_rank_one` accepts a
    rank-one difference in O(d^2); only what it declines pays the SVD.

    A convex combination of two matrices in [0, 1] lies in [0, 1], and of two
    exactly Hermitian matrices is exactly Hermitian, so the result is not
    re-validated.
    """
    if Q1.dim != Q2.dim:
        raise DimensionMismatch(f"symbol dims differ: {Q1.dim} vs {Q2.dim}")
    if not _is_real(lam) or not 0.0 < lam < 1.0:
        raise InvalidArgument(f"mixture weight must lie in (0, 1), got {lam}")
    D = Q1.matrix - Q2.matrix
    scale = np.abs(D).max()
    if scale > 0.0 and not _near_rank_one(D, MIX_RANK_TOL * scale):
        sv = np.linalg.svd(D, compute_uv=False)
        rank = int(np.count_nonzero(sv > MIX_RANK_TOL * scale))
        if rank >= 2:
            raise NotQuasiFreeMixture(
                f"symbol difference has numerical rank {rank}; "
                "the convex combination of the two states is not quasi-free"
            )
    return Symbol(lam * Q1.matrix + (1.0 - lam) * Q2.matrix)


def _near_rank_one(D: np.ndarray, tol: float) -> bool:
    """True only when the second singular value of the Hermitian D is at most
    tol/2; False means "not certified", and the SVD decides.

    Pivoting on the largest |D_jj| leaves R = D - D[:, j] D[j, :] / D_jj, and
    D - R has rank one, so sigma_2(D) <= ||R||_2 <= ||R||_F by Weyl's
    inequality.  Accepting only ||R||_F <= tol/2 leaves half of ``tol`` for
    rounding, so the SVD rule (singular values above ``tol``) would also find
    rank <= 1."""
    j = int(np.argmax(np.abs(np.diagonal(D))))
    pivot = D[j, j]
    if pivot == 0.0:
        return False
    R = D - np.outer(D[:, j], D[j, :] / pivot)
    return float(np.linalg.norm(R)) <= tol / 2.0
