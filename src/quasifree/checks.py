"""Cross-module invariant suite behind the oracle-check command.

Every check compares a polynomial-cost symbol-level quantity against the
dense Fock-space oracle at the requested dimension and reports the maximum
observed deviation.  The suite is one table of trial functions
``(d, rng, t, trials) -> {name: deviation}``, each with its ``(name, tol)``
rows, and a NaN deviation reads NaN and fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply_heisenberg_exp, apply_heisenberg_state, apply_schrodinger, compose
from .choi import _check_dense_dim, _choi_action, _choi_blocks
from .choi import choi_exponential_form, jamiolkowski_symbol
from .entropy import relative_entropy, renyi_entropy, von_neumann_entropy
from .errors import InvalidArgument, NotQuasiFreeMixture
from .fock import _subset_weights, density_matrix, exp_element, exp_spectrum
from .sampling import random_channel, random_symbol
from .symbols import _is_integer, mix_symbols, validate_symbol


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def dense_von_neumann(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def dense_renyi(rho: np.ndarray, p: float) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(np.log(np.sum(w**p)) / (1.0 - p))


def dense_relative(r1: np.ndarray, r2: np.ndarray) -> float:
    w1, V1 = np.linalg.eigh(r1)
    w2, V2 = np.linalg.eigh(r2)
    log1 = (V1 * np.log(np.clip(w1, 1e-300, None))) @ V1.conj().T
    log2 = (V2 * np.log(np.clip(w2, 1e-300, None))) @ V2.conj().T
    return float(np.trace(r1 @ (log1 - log2)).real)


KINDS = ("lambda", "gamma")


def _states(d, rng, t, trials):
    Q = random_symbol(d, rng)
    rho = density_matrix(Q)
    dense, sym = np.sort(np.linalg.eigvalsh(rho)), np.sort(_subset_weights(Q.eigenvalues))
    return {"density-eigenvalues": np.abs(dense - sym).max(),
            "density-trace": abs(float(np.trace(rho).real) - 1.0)}


def _exponentials(d, rng, t, trials):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    EX = exp_element(X)
    dense, sym = np.sort_complex(np.linalg.eigvals(EX)), np.sort_complex(exp_spectrum(X))
    return {
        "exp-product-law": np.abs(EX @ exp_element(Y) - exp_element(X @ Y)).max(),
        "exp-adjoint": np.abs(EX.conj().T - exp_element(X.conj().T)).max(),
        "exp-trace-det": abs(complex(np.trace(EX)) - complex(np.linalg.det(np.eye(d) + X))),
        # negative when E(XX*) is positive definite: the reduction floors it at 0
        "exp-positivity": -float(np.linalg.eigvalsh(exp_element(X @ X.conj().T))[0]),
        "exp-spectrum": np.abs(dense - sym).max(),
    }


def _entropies(d, rng, t, trials):
    Q = random_symbol(d, rng, 0.05, 0.95)
    rho = density_matrix(Q)
    renyi = np.max([abs(renyi_entropy(Q, p) - dense_renyi(rho, p)) for p in (0.5, 2.0, 3.0)])
    vn = abs(von_neumann_entropy(Q) - dense_von_neumann(rho))
    Q2 = random_symbol(d, rng, 0.05, 0.95)
    dense_rel = dense_relative(rho, density_matrix(Q2))
    return {"renyi-vs-dense": renyi, "von-neumann-vs-dense": vn,
            "relative-vs-dense": abs(relative_entropy(Q, Q2) - dense_rel)}


def _mixtures(d, rng, t, trials):
    Q2 = random_symbol(d, rng, 0.1, 0.8)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    Q1 = validate_symbol(Q2.matrix + 0.1 * np.outer(v, v.conj()))
    lam = float(rng.uniform(0.2, 0.8))
    try:
        mix = mix_symbols(Q1, Q2, lam)
    except NotQuasiFreeMixture:
        return {"mixture-rank1-affine": np.inf}
    dense = lam * density_matrix(Q1) + (1.0 - lam) * density_matrix(Q2)
    return {"mixture-rank1-affine": np.abs(density_matrix(mix) - dense).max()}


def _channels(d, rng, t, trials):
    """Channel trial t reads both dense actions off the charge blocks C_m of
    one Choi matrix C = (+)_m C_m, and never assembles C.  The first
    max(1, trials // 4) trials add the Choi checks on the blocks: their
    spectra, whose union is C's and, scaled by 2^-d, J's, and C's partial
    trace, the Heisenberg image of the identity."""
    c = random_channel(d, rng, KINDS[t % 2])
    Q = random_symbol(d, rng, 0.05, 0.95)
    rho = density_matrix(Q)
    out = apply_schrodinger(c, Q)
    rho_out = density_matrix(out)
    blocks = _choi_blocks(c)
    dense_out = _choi_action(blocks, rho, heisenberg=False)
    devs = {"channel-covariance": np.abs(dense_out - rho_out).max()}
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    se = apply_heisenberg_exp(c, X)
    lhs = complex(np.trace(rho_out @ exp_element(X)))
    rhs = se.scale * complex(np.trace(rho @ exp_element(se.argument)))
    devs["channel-duality"] = abs(lhs - rhs)
    c2 = random_channel(d, rng, KINDS[(t + 1) % 2])
    two = apply_schrodinger(c2, out).matrix
    devs["channel-composition"] = np.abs(two - apply_schrodinger(compose(c2, c), Q).matrix).max()
    ss = apply_heisenberg_state(c, Q)
    heis = ss.scale * exp_element(ss.argument) - _choi_action(blocks, rho, heisenberg=True)
    devs["heisenberg-state-vs-dense"] = np.abs(heis).max()
    if t >= max(1, trials // 4):
        return devs
    n = 1 << d
    wd = np.sort(np.concatenate([np.linalg.eigvalsh(block) for _, block in blocks]))
    # J = S C^T S / 2^d for the factor swap S, so C / 2^d has J's spectrum
    sym = np.sort(_subset_weights(jamiolkowski_symbol(c).symbol.eigenvalues))
    devs["jamiolkowski-spectrum"] = np.abs(wd / n - sym).max()
    tr1 = _choi_action(blocks, np.eye(n), heisenberg=True)  # sum_i C[(i,a),(i,b)]
    devs["choi-partial-trace"] = np.abs(tr1 - np.eye(n)).max()
    cf = choi_exponential_form(c)
    devs["choi-spectrum"] = np.abs(wd - np.sort((cf.scale * exp_spectrum(cf.argument)).real)).max()
    return devs


#: the suite in report order: each trial function with its (name, tol) rows
SUITE = (
    (_states, (("density-eigenvalues", 1e-10), ("density-trace", 1e-10))),
    (_exponentials, (("exp-product-law", 1e-9), ("exp-adjoint", 1e-12), ("exp-trace-det", 1e-9),
                     ("exp-positivity", 1e-10), ("exp-spectrum", 1e-8))),
    (_entropies, (("renyi-vs-dense", 1e-9), ("von-neumann-vs-dense", 1e-9),
                  ("relative-vs-dense", 1e-8))),
    (_mixtures, (("mixture-rank1-affine", 1e-9),)),
    (_channels, (("channel-covariance", 1e-8), ("channel-duality", 1e-9),
                 ("channel-composition", 1e-10), ("heisenberg-state-vs-dense", 1e-8),
                 ("jamiolkowski-spectrum", 1e-8), ("choi-partial-trace", 1e-9),
                 ("choi-spectrum", 1e-8))),
)


def run_oracle_checks(d: int, trials: int, seed: int) -> list[CheckResult]:
    """The full symbol-versus-oracle suite at dimension d, every check at
    every d the dense oracle accepts: each group of :data:`SUITE` runs all
    its trials, in order, on one seeded generator.  Non-integer counts,
    d < 1, trials < 1, seed < 0 and d beyond the dense reach are refused
    before any draw; a failed mixture trial reads inf and moves no later draw."""
    if not all(map(_is_integer, (d, trials, seed))) or d < 1 or trials < 1 or seed < 0:
        raise InvalidArgument(
            f"oracle checks need integers d >= 1, trials >= 1, seed >= 0; got {(d, trials, seed)}"
        )
    _check_dense_dim(d)
    rng = np.random.default_rng(seed)
    results = []
    for trial, rows in SUITE:
        devs = [trial(d, rng, t, trials) for t in range(trials)]
        for name, tol in rows:  # np.max keeps a NaN, where max(dev, x) drops it
            worst = np.max([0.0, *(dev[name] for dev in devs if name in dev)])
            results.append(CheckResult(name, float(worst), tol))
    return results
