"""Entropy functionals of quasi-free states, evaluated on the symbol spectrum.

All values are in nats.  The 2^d eigenvalues of the density matrix are
subset products of the d symbol eigenvalues, which collapses every entropy
below to a d-term sum.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidOrder, KernelConditionViolated
from .symbols import Symbol, _is_real, spectral

#: eigenvalues of Q2 at most this count as kernel components
KERNEL_TOL = 1e-10
#: kernel inclusion requires ||Q1 v|| at most this on those components
KERNEL_INCLUSION_TOL = 1e-8


def _check_order(p: float) -> None:
    """Raise :class:`InvalidOrder` unless p is a Renyi order: a real number,
    positive, finite and different from 1."""
    if not _is_real(p) or not 0.0 < p < np.inf or p == 1.0:
        raise InvalidOrder(f"Renyi order must be in (0,1) or (1,inf), got {p}")


def renyi_entropy(Q: Symbol, p: float) -> float:
    """Renyi entropy of order p: sum of log((1-q)^p + q^p) / (1-p) over the
    symbol eigenvalues.  p must be positive, finite and different from 1;
    use :func:`von_neumann_entropy` for the p -> 1 limit."""
    _check_order(p)
    # eigvalsh puts an exact 0 or 1 within about d u of it; at p < 1 that dust
    # would enter as dust^p, so it is snapped to the exact value first
    snap = Q.dim * np.finfo(float).eps
    q = Q.eigenvalues
    q = np.where(q <= snap, 0.0, np.where(q >= 1.0 - snap, 1.0, q))
    # log((1-q)^p + q^p) with m = max(q, 1-q) >= 1/2 factored out: no underflow at large p
    m, s = np.maximum(q, 1.0 - q), np.minimum(q, 1.0 - q)
    return float(np.sum(p * np.log(m) + np.log1p((s / m) ** p)) / (1.0 - p))


def _binary_entropy(q: np.ndarray) -> np.ndarray:
    out = np.zeros_like(q)
    inner = (q > 0.0) & (q < 1.0)
    qi = q[inner]
    out[inner] = -qi * np.log(qi) - (1.0 - qi) * np.log(1.0 - qi)
    return out


def von_neumann_entropy(Q: Symbol) -> float:
    """Sum of binary entropies of the symbol eigenvalues (0 log 0 := 0)."""
    return float(np.sum(_binary_entropy(Q.eigenvalues)))


def relative_entropy(Q1: Symbol, Q2: Symbol) -> float:
    """Relative entropy between the quasi-free states of Q1 (the state) and
    Q2 (the reference), tr rho1 (log rho1 - log rho2) evaluated on symbols:

        tr{ Q1 (log Q1 - log Q2) + (1-Q1)(log(1-Q1) - log(1-Q2)) }

    Finite exactly when ker Q2 is contained in ker Q1 and ker(1-Q2) in
    ker(1-Q1); a numerical violation of either inclusion raises
    :class:`KernelConditionViolated`, signalling an infinite value.  The
    logarithms are taken on the supported subspaces of Q2 and 1-Q2.
    """
    if Q1.dim != Q2.dim:
        raise DimensionMismatch(f"symbol dims differ: {Q1.dim} vs {Q2.dim}")
    s2 = spectral(Q2)
    w2, V2 = s2.eigenvalues, s2.eigenvectors
    M1V2 = Q1.matrix @ V2

    # diagonal of Q1 and 1-Q1 in the eigenbasis of Q2 (V2 is unitary)
    diag_q1 = np.einsum("ij,ij->j", V2.conj(), M1V2).real
    diag_c1 = 1.0 - diag_q1

    lower = w2 <= KERNEL_TOL
    upper = 1.0 - w2 <= KERNEL_TOL
    for image, text in (
        (M1V2[:, lower], "ker Q2 not contained in ker Q1 (||Q1 v||"),
        (V2[:, upper] - M1V2[:, upper], "ker(1-Q2) not contained in ker(1-Q1) (||(1-Q1) v||"),
    ):
        overlap = np.linalg.norm(image, axis=0).max(initial=0.0)
        if not overlap <= KERNEL_INCLUSION_TOL:
            raise KernelConditionViolated(f"{text} = {overlap:.3e}); relative entropy is infinite")

    own = -np.sum(_binary_entropy(Q1.eigenvalues))
    cross = np.sum(diag_q1[~lower] * np.log(w2[~lower]))
    cross += np.sum(diag_c1[~upper] * np.log(1.0 - w2[~upper]))
    return float(own - cross)
