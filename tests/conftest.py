"""Shared dense-side oracles for the test suite.

These deliberately avoid the symbol-level code paths they are used to check:
entropies come from eigenvalues of explicit density matrices (the dense
references of :mod:`quasifree.checks`, re-exported here), subset products
from brute-force enumeration.
"""

from itertools import combinations

import numpy as np
import pytest

from quasifree.channels import _as_lambda, _twist_past
from quasifree.checks import dense_relative, dense_renyi, dense_von_neumann  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def brute_subset_products(q) -> np.ndarray:
    """All 2^d products prod_{r in L} q_r prod_{s not in L} (1 - q_s), by
    explicit enumeration of the subsets."""
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    out = []
    for k in range(d + 1):
        for subset in combinations(range(d), k):
            inside = np.prod([q[r] for r in subset]) if subset else 1.0
            rest = [s for s in range(d) if s not in subset]
            outside = np.prod([1.0 - q[s] for s in rest]) if rest else 1.0
            out.append(inside * outside)
    return np.array(out)


def count_calls(monkeypatch, names, owner=np.linalg) -> list:
    """Wrap each named function of ``owner`` so that a call appends its name
    to the returned list."""
    calls = []
    for name in names:
        original = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k)
        )
    return calls


def heisenberg_pivot(channel, S, T):
    """The pivot S + (T - S) B of the Heisenberg image of the pair (S, T),
    built as the closed form builds it."""
    A, B, twisted = _as_lambda(channel)
    if twisted:
        A, B = _twist_past(A, B)
        S, T = T.T, S.T
    return S + (T - S) @ B


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real
