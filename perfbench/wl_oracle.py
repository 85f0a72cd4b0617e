"""oracle-dense: the dense Fock-space oracle that certifies every formula.

Exponential in d and bound by memory and Python loops; the only workload
where ``fock`` does the work.  References are spectra and structure
computed with plain numpy from the generating pieces.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import quasifree as qf
import quasifree.checks as qf_checks

import inputs as gen
from harness import Op, close, first, value_check

TOL_DENSITY = 1e-10
TOL_SPECTRUM = 1e-8
TOL_PARTIAL = 1e-9

CORE_CHECKS = (
    "density-eigenvalues", "density-trace", "exp-product-law", "exp-adjoint",
    "exp-trace-det", "exp-positivity", "exp-spectrum", "renyi-vs-dense",
    "von-neumann-vs-dense", "relative-vs-dense", "mixture-rank1-affine",
)
CHANNEL_CHECKS = (
    "channel-covariance", "channel-duality", "channel-composition", "heisenberg-state-vs-dense",
)
CHOI_CHECKS = ("jamiolkowski-spectrum", "choi-partial-trace", "choi-spectrum")


def graded_subsets(d: int) -> list[tuple]:
    """Fock basis order: subsets by size, then lexicographic."""
    return [s for k in range(d + 1) for s in combinations(range(d), k)]


def subset_weights(q) -> np.ndarray:
    """All products prod_{r in L} q_r prod_{s not in L} (1 - q_s)."""
    out = np.array([1.0])
    for v in q:
        out = np.concatenate([(1.0 - v) * out, v * out])
    return out


def subset_products(lam) -> np.ndarray:
    out = np.array([1.0])
    for v in lam:
        out = np.concatenate([out, v * out])
    return out


def jamiolkowski_block(ch: dict) -> np.ndarray:
    A, B = ch["A"], ch["B"]
    eye = np.eye(len(A))
    if ch["kind"] == "lambda":
        return 0.5 * np.block([[eye, A], [A.conj().T, A.conj().T @ A + 2.0 * B]])
    return 0.5 * np.block([[eye, -A], [-A.conj().T, A.conj().T @ A + 2.0 * B.T]])


def choi_argument(ch: dict) -> np.ndarray:
    A = ch["A"] if ch["kind"] == "lambda" else np.conj(ch["A"])
    Binv = gen.b_inverse(ch)
    eye = np.eye(len(A))
    return np.block([[Binv - eye, Binv @ A.conj().T], [A @ Binv, eye + A @ Binv @ A.conj().T]])


class Oracle:
    name = "oracle-dense"
    fresh_inputs = True
    rss_of_children = False

    def __init__(self, fock_d=10, choi_d=5, jam_d=4, checks=((3, 8), (4, 4))):
        self.fock_d = fock_d
        self.choi_d = choi_d
        self.jam_d = jam_d
        self.checks = checks

    def tiny(self):
        return Oracle(fock_d=3, choi_d=2, jam_d=2, checks=((2, 2),))

    def inputs(self, seed, index, work_dir):
        rng = gen.rng_for(seed, self.name, index)
        d = self.fock_d
        sym = gen.symbol(d, rng, 0.05, 0.95)
        return {
            "X": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
            "M": sym["M"],
            "q": sym["q"],
            "choi": gen.channel(self.choi_d, rng, "lambda", (0.1, 0.9), (0.1, 0.9)),
            "jam": gen.channel(self.jam_d, rng, "gamma", (0.1, 0.9), (0.1, 0.9)),
            "check_seeds": rng.integers(0, 2**31, len(self.checks)),
        }

    def ops(self, inp):
        d = self.fock_d
        X = inp["X"]
        subsets = graded_subsets(d)
        index = {s: i for i, s in enumerate(subsets)}

        def exp_check(st, E):
            pairs = list(combinations(range(d), 2))
            a, b = np.array(pairs).T
            minors = X[a][:, a] * X[b][:, b] - X[a][:, b] * X[b][:, a]
            two = slice(1 + d, 1 + d + len(pairs))
            return first(
                close(E[0, 0], 1.0, 1e-14, "vacuum"),
                close(E[1 : d + 1, 1 : d + 1], X, 1e-14, "sector 1"),
                close(E[two, two], minors, 1e-12, "sector 2"),
                close(E[-1, -1], np.linalg.det(X), 1e-9, "top sector"),
                close(np.trace(E), np.linalg.det(np.eye(d) + X), 1e-9, "trace"),
            )

        def density_check(st, rho):
            w = np.linalg.eigvalsh(rho)
            return first(
                close(rho, rho.conj().T, 1e-14, "hermiticity"),
                close(np.sort(w), np.sort(subset_weights(inp["q"])), TOL_DENSITY, "spectrum"),
            )

        def particle_hole_check(st, W):
            full = frozenset(range(d))
            rows = [index[tuple(sorted(full - set(s)))] for s in subsets]
            cols = np.arange(len(subsets))
            hit = W[rows, cols]
            rest = np.abs(W).sum() - np.abs(hit).sum()
            return first(
                close(np.abs(hit.real), 1.0, 1e-14, "complement entries"),
                close(hit.imag, 0.0, 1e-14, "imaginary part"),
                close(rest, 0.0, 1e-12, "off-permutation mass"),
            )

        def dense_choi_check(st, C):
            ch = inp["choi"]
            n = 1 << self.choi_d
            tr1 = np.einsum("abad->bd", C.reshape(n, n, n, n))
            ref = np.exp(gen.b_logdet(ch)) * subset_products(np.linalg.eigvalsh(choi_argument(ch)))
            return first(
                close(tr1, np.eye(n), TOL_PARTIAL, "partial trace"),
                close(np.sort(np.linalg.eigvalsh(C)), np.sort(ref), TOL_SPECTRUM, "spectrum"),
            )

        def dense_jam_check(st, J):
            ref = subset_weights(np.linalg.eigvalsh(jamiolkowski_block(inp["jam"])))
            return close(np.sort(np.linalg.eigvalsh(J)), np.sort(ref), TOL_SPECTRUM, "spectrum")

        def checks_check(dd):
            expected = CORE_CHECKS + (CHANNEL_CHECKS if dd <= 4 else ()) + (CHOI_CHECKS if dd <= 3 else ())

            def compare(st, results):
                names = {r.name for r in results}
                missing = [n for n in expected if n not in names]
                failing = [r.name for r in results if not r.passed]
                if missing or failing:
                    return f"missing {missing}, failing {failing}"
                return None

            return value_check(compare)

        ops = [
            Op("exp_element", "states", lambda st: qf.exp_element(X), value_check(exp_check)),
            Op("density_matrix", "states",
               lambda st: qf.density_matrix(qf.validate_symbol(inp["M"])), value_check(density_check)),
            Op("particle_hole_unitary", "states",
               lambda st: qf.particle_hole_unitary(d), value_check(particle_hole_check)),
            Op("dense_choi", "channels",
               lambda st: qf.dense_choi(qf.new_channel("lambda", inp["choi"]["A"], inp["choi"]["B"])),
               value_check(dense_choi_check)),
            Op("dense_jamiolkowski", "channels",
               lambda st: qf.dense_jamiolkowski(qf.new_channel("gamma", inp["jam"]["A"], inp["jam"]["B"])),
               value_check(dense_jam_check)),
        ]
        for (dd, trials), seed in zip(self.checks, inp["check_seeds"]):
            ops.append(Op(
                f"run_oracle_checks.d{dd}", "channels",
                lambda st, dd=dd, trials=trials, seed=int(seed): qf_checks.run_oracle_checks(dd, trials, seed),
                checks_check(dd),
            ))
        return ops

    traced_ops = ops
