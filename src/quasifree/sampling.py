"""Seeded random instances: symbols, unitaries, channels.

Shared by the oracle-check command and the test suite so that every
cross-check runs on a reproducible stream.
"""

from __future__ import annotations

import numpy as np

from .channels import KIND_GAMMA, QuasiFreeChannel, new_channel
from .errors import DimensionMismatch
from .symbols import Symbol, _is_integer, validate_symbol


def _square_normal(d: int, rng: np.random.Generator) -> np.ndarray:
    if not _is_integer(d) or d < 1:  # a bool or a float is no dimension
        raise DimensionMismatch(f"dimension must be an integer >= 1, got {d!r}")
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    M = _square_normal(d, rng)
    return (M + M.conj().T) / 2.0


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    M = _square_normal(d, rng)
    Q, R = np.linalg.qr(M)
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


def random_symbol(
    d: int, rng: np.random.Generator, low: float = 0.0, high: float = 1.0
) -> Symbol:
    """Random symbol with eigenvalues uniform in [low, high]; pass a positive
    ``low`` / sub-unit ``high`` to stay strictly interior."""
    V = random_unitary(d, rng)
    u = rng.uniform(low, high, d)
    return validate_symbol((V * u) @ V.conj().T)


def random_channel(
    d: int,
    rng: np.random.Generator,
    kind: str,
    contraction: tuple = (0.1, 0.9),
) -> QuasiFreeChannel:
    """Random valid channel of the given kind.

    A = U1 diag(s) U2* with singular values s in ``contraction``; B = root Q root
    for a random interior symbol Q and root = sqrt(cp_bound) = V diag(sqrt(1 - s^2)) V*,
    V = U2 (conj U2 for gamma; s > 1 clips to 0 and is refused), which makes the
    pair CP by construction and keeps closed-form pivots well conditioned.
    """
    U1 = random_unitary(d, rng)
    U2 = random_unitary(d, rng)
    s = rng.uniform(*contraction, d)
    A = (U1 * s) @ U2.conj().T
    V = np.conj(U2) if kind == KIND_GAMMA else U2
    root = (V * np.sqrt(np.clip(1.0 - s**2, 0.0, None))) @ V.conj().T
    inner = random_symbol(d, rng, 0.1, 0.9)
    B = root @ inner.matrix @ root
    return new_channel(kind, A, (B + B.conj().T) / 2.0)
