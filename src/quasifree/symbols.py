"""Validation, spectral analysis, and convex manipulation of one-particle symbols.

A symbol is a d x d Hermitian matrix Q with 0 <= Q <= 1.  It fully determines
a gauge-invariant quasi-free state on d fermionic modes; every functional of
the state computed in this package reduces to a functional of Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Symbol:
    """A one-particle symbol: ``matrix`` is exactly Hermitian and read-only.

    ``eigenvalues`` (descending, clamped to [0, 1]) are computed on first read
    and cached.  :func:`validate_symbol`, the only entry point for untrusted
    matrices, reads them at once, because its range test needs them.  Producers
    whose output is a symbol by theorem (channel images, Jamiolkowski blocks,
    convex mixtures) skip that eigendecomposition; their range test runs, at
    the producer's tolerance, when the spectrum is first read.
    """

    matrix: np.ndarray
    _tol: float = field(default=HERMITIAN_TOL, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        w = self._cache.get("eigenvalues")
        if w is None:
            w = _checked_spectrum(np.linalg.eigvalsh(self.matrix), self._tol)
            w = _frozen(np.clip(w, 0.0, 1.0)[::-1].copy())
            self._cache["eigenvalues"] = w
        return w


@dataclass(frozen=True)
class SpectralSymbol:
    """Eigendecomposition of a symbol: eigenvalues descending in [0, 1],
    eigenvectors as the columns of a unitary matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _operand(M, name: str, ndim: int = 2, nonempty: bool = False) -> np.ndarray:
    """M as a complex square matrix (``ndim`` 2) or vector (``ndim`` 1), not
    empty if ``nonempty``, with finite entries: the one gate for every matrix
    and vector operand.  :class:`DimensionMismatch` for a wrong shape or an
    empty operand, :class:`InvalidArgument` for a NaN or infinite entry."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != ndim or M.shape[0] != M.shape[-1]:
        what = "square" if ndim == 2 else "one-dimensional"
        raise DimensionMismatch(f"expected a {what} {name}, got shape {M.shape}")
    if nonempty and M.size == 0:
        raise DimensionMismatch(f"{name} must have positive dimension, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidArgument(f"{name} has non-finite entries")
    return M


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _checked_spectrum(w: np.ndarray, tol: float) -> np.ndarray:
    """Ascending eigenvalues ``w``, or :class:`SpectrumOutOfRange` when they
    leave [0, 1] by more than ``tol``."""
    if w.size and (w[0] < -tol or w[-1] > 1.0 + tol):
        raise SpectrumOutOfRange(
            f"eigenvalues in [{w[0]:.6e}, {w[-1]:.6e}] leave [0, 1] beyond tol {tol:.1e}"
        )
    return w


def validate_symbol(M, tol: float = HERMITIAN_TOL) -> Symbol:
    """Check that M is a symbol and return it with eigenvalues clamped to [0, 1].

    Raises :class:`NotHermitian` if ``max|M - M*| > tol`` and
    :class:`SpectrumOutOfRange` if any eigenvalue lies below ``-tol`` or above
    ``1 + tol``.  Violations within ``tol`` are treated as floating-point dust
    and clamped away, through :func:`spectral`: the clamped matrix is
    V diag(clip w) V*, so that decomposition is its own and stays cached.
    A ``tol`` that is NaN, infinite or negative raises :class:`InvalidArgument`.
    """
    if not 0.0 <= tol < np.inf:
        raise InvalidArgument(f"tol must be finite and >= 0, got {tol}")
    M = _operand(M, "matrix", nonempty=True)
    herm_dev = np.abs(M - M.conj().T).max()
    if herm_dev > tol:
        raise NotHermitian(f"max |M - M*| = {herm_dev:.3e} exceeds tol {tol:.1e}")
    H = (M + M.conj().T) / 2.0
    w = _checked_spectrum(np.linalg.eigvalsh(H), tol)
    if w[0] >= 0.0 and w[-1] <= 1.0:
        return Symbol(matrix=_frozen(H), _cache={"eigenvalues": _frozen(w[::-1].copy())})
    s = spectral(_trusted_symbol(H, tol))
    H = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    H = (H + H.conj().T) / 2.0
    return Symbol(matrix=_frozen(H), _cache={"eigenvalues": s.eigenvalues, "spectral": s})


def _trusted_symbol(H: np.ndarray, tol: float = HERMITIAN_TOL) -> Symbol:
    """Symbol of an exactly Hermitian matrix that lies in [0, 1] by theorem,
    or whose spectrum is read at once, without an eigendecomposition; the
    range test runs at ``tol`` when the spectrum is first read.  Never use it
    for a matrix that comes from outside: that is :func:`validate_symbol`'s
    job."""
    return Symbol(matrix=_frozen(H), _tol=tol)


def spectral(Q: Symbol) -> SpectralSymbol:
    """Eigendecomposition of a symbol with eigenvalues sorted descending.

    The only place that computes eigenvectors of a symbol: every consumer
    (relative entropy, the dense density matrix, the Stinespring environment,
    the clamp in :func:`validate_symbol`) reads them here.  Computed once per
    symbol and cached on it."""
    s = Q._cache.get("spectral")
    if s is None:
        w, V = np.linalg.eigh(Q.matrix)
        if "eigenvalues" not in Q._cache:
            _checked_spectrum(w, Q._tol)
        order = np.argsort(-w, kind="stable")
        w = np.clip(w[order], 0.0, 1.0)
        s = SpectralSymbol(eigenvalues=_frozen(w), eigenvectors=_frozen(V[:, order]))
        Q._cache.setdefault("eigenvalues", s.eigenvalues)
        Q._cache["spectral"] = s
    return s


def conjugate_matrix(A) -> np.ndarray:
    """Entrywise complex conjugate in the distinguished standard basis.

    This is the matrix of the conjugated operator; for Hermitian input it
    coincides with the transpose.  Applying it twice is the identity.
    """
    return np.conj(np.asarray(A, dtype=complex))


def mix_symbols(Q1: Symbol, Q2: Symbol, lam: float) -> Symbol:
    """Symbol of the convex mixture of two quasi-free states, when it exists.

    The mixture ``lam * state(Q1) + (1 - lam) * state(Q2)`` is quasi-free
    exactly when ``Q1 - Q2`` has rank 0 or 1, in which case its symbol is the
    affine combination ``lam*Q1 + (1-lam)*Q2``.  Otherwise raises
    :class:`NotQuasiFreeMixture`.

    A convex combination of two matrices in [0, 1] lies in [0, 1], and of two
    exactly Hermitian matrices is exactly Hermitian, so the result is not
    re-validated.
    """
    if Q1.dim != Q2.dim:
        raise DimensionMismatch(f"symbol dims differ: {Q1.dim} vs {Q2.dim}")
    if not 0.0 < lam < 1.0:
        raise InvalidArgument(f"mixture weight must lie in (0, 1), got {lam}")
    D = Q1.matrix - Q2.matrix
    scale = np.abs(D).max()
    if scale > 0.0:
        sv = np.linalg.svd(D, compute_uv=False)
        rank = int(np.count_nonzero(sv > MIX_RANK_TOL * scale))
        if rank >= 2:
            raise NotQuasiFreeMixture(
                f"symbol difference has numerical rank {rank}; "
                "the convex combination of the two states is not quasi-free"
            )
    return _trusted_symbol(lam * Q1.matrix + (1.0 - lam) * Q2.matrix)
