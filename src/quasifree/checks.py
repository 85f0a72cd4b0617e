"""Cross-module invariant suite behind the oracle-check command.

Every check compares a polynomial-cost symbol-level quantity against the
dense Fock-space oracle at the requested dimension and reports the maximum
observed deviation.
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
from .symbols import mix_symbols, validate_symbol


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


def run_oracle_checks(d: int, trials: int, seed: int) -> list[CheckResult]:
    """The full symbol-versus-oracle suite at dimension d, every check at
    every d the dense oracle accepts.  Each channel trial builds the charge
    blocks C_m of one Choi matrix C = (+)_m C_m, at sum_m C(2d, d+m)^3
    multiply-adds, and the dense C is never assembled.  It reads both dense
    actions off the blocks, and the first max(1, trials // 4) trials also
    run the Choi checks on them: their spectra, whose union is C's and,
    scaled by 2^-d, J's, and C's partial trace, the Heisenberg image of the
    identity.  Their symbol sides use the identities density-eigenvalues and
    exp-spectrum certify, and the dense sides stay the Stinespring oracle.
    d beyond the dense reach, trials < 1 and seed < 0 are refused before the
    first draw; a failed mixture trial reads inf and leaves later draws as they were."""
    _check_dense_dim(d)
    if trials < 1 or seed < 0:
        raise InvalidArgument(f"oracle checks need trials >= 1, seed >= 0; got {trials}, {seed}")
    rng = np.random.default_rng(seed)
    results = []
    kinds = ("lambda", "gamma")

    dev_eig = dev_tr = 0.0
    for _ in range(trials):
        Q = random_symbol(d, rng)
        rho = density_matrix(Q)
        dense = np.sort(np.linalg.eigvalsh(rho))
        sym = np.sort(_subset_weights(Q.eigenvalues))
        dev_eig = max(dev_eig, float(np.abs(dense - sym).max()))
        dev_tr = max(dev_tr, abs(float(np.trace(rho).real) - 1.0))
    results.append(CheckResult("density-eigenvalues", dev_eig, 1e-10))
    results.append(CheckResult("density-trace", dev_tr, 1e-10))

    dev_prod = dev_adj = dev_trdet = dev_pos = dev_spec = 0.0
    for _ in range(trials):
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        EX = exp_element(X)
        dev_prod = max(dev_prod, float(np.abs(EX @ exp_element(Y) - exp_element(X @ Y)).max()))
        dev_adj = max(dev_adj, float(np.abs(EX.conj().T - exp_element(X.conj().T)).max()))
        dev_trdet = max(
            dev_trdet,
            abs(complex(np.trace(EX)) - complex(np.linalg.det(np.eye(d) + X))),
        )
        P = X @ X.conj().T
        dev_pos = max(dev_pos, max(0.0, -float(np.linalg.eigvalsh(exp_element(P))[0])))
        dense = np.sort_complex(np.linalg.eigvals(EX))
        sym = np.sort_complex(exp_spectrum(X))
        dev_spec = max(dev_spec, float(np.abs(dense - sym).max()))
    results.append(CheckResult("exp-product-law", dev_prod, 1e-9))
    results.append(CheckResult("exp-adjoint", dev_adj, 1e-12))
    results.append(CheckResult("exp-trace-det", dev_trdet, 1e-9))
    results.append(CheckResult("exp-positivity", dev_pos, 1e-10))
    results.append(CheckResult("exp-spectrum", dev_spec, 1e-8))

    dev_renyi = dev_vn = dev_rel = 0.0
    for _ in range(trials):
        Q = random_symbol(d, rng, 0.05, 0.95)
        rho = density_matrix(Q)
        for p in (0.5, 2.0, 3.0):
            dev_renyi = max(dev_renyi, abs(renyi_entropy(Q, p) - dense_renyi(rho, p)))
        dev_vn = max(dev_vn, abs(von_neumann_entropy(Q) - dense_von_neumann(rho)))
        Q2 = random_symbol(d, rng, 0.05, 0.95)
        dense_rel = dense_relative(rho, density_matrix(Q2))
        dev_rel = max(dev_rel, abs(relative_entropy(Q, Q2) - dense_rel))
    results.append(CheckResult("renyi-vs-dense", dev_renyi, 1e-9))
    results.append(CheckResult("von-neumann-vs-dense", dev_vn, 1e-9))
    results.append(CheckResult("relative-vs-dense", dev_rel, 1e-8))

    dev_mix = 0.0
    for _ in range(trials):
        Q2 = random_symbol(d, rng, 0.1, 0.8)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        Q1 = validate_symbol(Q2.matrix + 0.1 * np.outer(v, v.conj()))
        lam = float(rng.uniform(0.2, 0.8))
        try:
            mix = mix_symbols(Q1, Q2, lam)
        except NotQuasiFreeMixture:
            dev_mix = np.inf
            continue
        dense = lam * density_matrix(Q1) + (1.0 - lam) * density_matrix(Q2)
        dev_mix = max(dev_mix, float(np.abs(density_matrix(mix) - dense).max()))
    results.append(CheckResult("mixture-rank1-affine", dev_mix, 1e-9))

    dev_cov = dev_dual = dev_comp = dev_heis = 0.0
    dev_jam = dev_tr1 = dev_choi = 0.0
    n = 1 << d
    for t in range(trials):
        c = random_channel(d, rng, kinds[t % 2])
        Q = random_symbol(d, rng, 0.05, 0.95)
        rho = density_matrix(Q)
        out = apply_schrodinger(c, Q)
        rho_out = density_matrix(out)
        blocks = _choi_blocks(c)
        dense_out = _choi_action(blocks, rho, heisenberg=False)
        dev_cov = max(dev_cov, float(np.abs(dense_out - rho_out).max()))
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        se = apply_heisenberg_exp(c, X)
        lhs = complex(np.trace(rho_out @ exp_element(X)))
        rhs = se.scale * complex(np.trace(rho @ exp_element(se.argument)))
        dev_dual = max(dev_dual, abs(lhs - rhs))
        c2 = random_channel(d, rng, kinds[(t + 1) % 2])
        two = apply_schrodinger(c2, out).matrix
        one = apply_schrodinger(compose(c2, c), Q).matrix
        dev_comp = max(dev_comp, float(np.abs(two - one).max()))
        ss = apply_heisenberg_state(c, Q)
        heis = ss.scale * exp_element(ss.argument) - _choi_action(blocks, rho, heisenberg=True)
        dev_heis = max(dev_heis, float(np.abs(heis).max()))
        if t >= max(1, trials // 4):
            continue
        wd = np.sort(np.concatenate([np.linalg.eigvalsh(block) for _, block in blocks]))
        # J = S C^T S / 2^d for the factor swap S, so C / 2^d has J's spectrum
        sym = np.sort(_subset_weights(jamiolkowski_symbol(c).symbol.eigenvalues))
        dev_jam = max(dev_jam, float(np.abs(wd / n - sym).max()))
        tr1 = _choi_action(blocks, np.eye(n), heisenberg=True)  # sum_i C[(i,a),(i,b)]
        dev_tr1 = max(dev_tr1, float(np.abs(tr1 - np.eye(n)).max()))
        cf = choi_exponential_form(c)
        wf = np.sort((cf.scale * exp_spectrum(cf.argument)).real)
        dev_choi = max(dev_choi, float(np.abs(wd - wf).max()))
    results.append(CheckResult("channel-covariance", dev_cov, 1e-8))
    results.append(CheckResult("channel-duality", dev_dual, 1e-9))
    results.append(CheckResult("channel-composition", dev_comp, 1e-10))
    results.append(CheckResult("heisenberg-state-vs-dense", dev_heis, 1e-8))
    results.append(CheckResult("jamiolkowski-spectrum", dev_jam, 1e-8))
    results.append(CheckResult("choi-partial-trace", dev_tr1, 1e-9))
    results.append(CheckResult("choi-spectrum", dev_choi, 1e-8))

    return results
