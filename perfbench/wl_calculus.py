"""calculus-d500: in-process symbol-level calls at d = 500.

The O(d^3) closed forms dominate here, with no I/O and no dense oracle.
Every pass gets fresh inputs; within a pass one Symbol flows through the
whole chain, as in real use.
"""

from __future__ import annotations

import numpy as np
import quasifree as qf

import inputs as gen
from harness import Op, close, expect_error, first, value_check

# suite tolerances (tests/test_acceptance.py), applied relative to max(1, |ref|)
TOL_EIG = 1e-10
TOL_ENTROPY = 1e-9
TOL_RELATIVE = 1e-8
TOL_CHANNEL = 1e-8
TOL_COMPOSE = 1e-10
TOL_HEIS = 1e-9


def binary_entropy(q):
    q = np.asarray(q, dtype=float)
    inner = (q > 0.0) & (q < 1.0)
    qi = q[inner]
    return float(np.sum(-qi * np.log(qi) - (1.0 - qi) * np.log(1.0 - qi)))


def relative_reference(M1, q1, V2, q2):
    """tr Q1(log Q1 - log Q2) + (1-Q1)(log(1-Q1) - log(1-Q2)) for Q2 = V2 diag(q2) V2*
    with q2 strictly inside (0, 1) and q1 the spectrum of M1."""
    diag = np.einsum("ij,ij->j", V2.conj(), M1 @ V2).real
    own = -binary_entropy(q1)
    cross = np.sum(diag * np.log(q2)) + np.sum((1.0 - diag) * np.log(1.0 - q2))
    return float(own - cross)


def descending(q):
    return np.sort(np.clip(q, 0.0, 1.0))[::-1]


def schrodinger_ref(kind, A, B, M):
    if kind == "lambda":
        return A.conj().T @ M @ A + B
    return B + A.T @ (np.eye(len(M)) - M.T) @ np.conj(A)


class Calculus:
    name = "calculus-d500"
    fresh_inputs = True
    rss_of_children = False

    def __init__(self, d: int = 500):
        self.d = d

    def tiny(self):
        return Calculus(d=8)

    def inputs(self, seed, index, work_dir):
        d = self.d
        rng = gen.rng_for(seed, self.name, index)
        main = gen.symbol(d, rng, 0.05, 0.85)
        ref = gen.symbol(d, rng, 0.05, 0.95)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        # edge: exact 0/1 eigenvalues (plus dust, so validation must clamp)
        k = max(1, d // 10)
        Ve = gen.haar_unitary(d, rng)
        interior = rng.uniform(0.05, 0.95, (2, d - 2 * k))
        ends = np.concatenate([np.full(k, -gen.DUST), np.full(k, 1.0 + gen.DUST)])
        qe = np.concatenate([ends, interior[0]])
        qe1 = np.concatenate([ends, interior[1]])
        lam = gen.channel(d, rng, "lambda", (0.1, 0.6), (0.5, 0.95))
        gam = gen.channel(d, rng, "gamma", (0.1, 0.6), (0.5, 0.95))
        return {
            "M": main["M"],
            "q": main["q"],
            "M2": ref["M"],
            "V2": ref["V"],
            "q2": ref["q"],
            "M1": main["M"] + 0.1 * np.outer(v, v.conj()),
            "weight": float(rng.uniform(0.2, 0.8)),
            "Me": gen.from_spectrum(Ve, qe),
            "qe": qe,
            "Me1": gen.from_spectrum(Ve, qe1),
            "qe1": qe1,
            "lam": lam,
            "gam": gam,
            "X": np.eye(d) - 0.8 * gen.haar_unitary(d, rng),
        }

    def ops(self, inp):
        d = self.d
        eye = np.eye(d)
        M, q = inp["M"], inp["q"]
        lam, gam = inp["lam"], inp["gam"]
        A, B = lam["A"], lam["B"]
        Ag, Bg = gam["A"], gam["B"]
        X = inp["X"]

        def symbol_check(Mref, qref=None):
            def compare(st, Q):
                return first(
                    close(Q.matrix, Mref, TOL_EIG, "matrix"),
                    None if qref is None else close(Q.eigenvalues, descending(qref), TOL_EIG, "eigenvalues"),
                )

            return value_check(compare)

        def spectral_check(st, S):
            V, w = S.eigenvectors, S.eigenvalues
            return first(
                close(w, descending(q), TOL_EIG, "eigenvalues"),
                close(M @ V, V * w, TOL_EIG, "residual"),
                close(V.conj().T @ V, eye, TOL_EIG, "orthonormality"),
            )

        def relent_edge_ref():
            qe, qe1 = np.clip(inp["qe"], 0, 1), np.clip(inp["qe1"], 0, 1)
            inner = (qe > 0) & (qe < 1)
            a, b = qe1[inner], qe[inner]
            return float(np.sum(a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))))

        s1 = lambda: schrodinger_ref("lambda", A, B, M)
        s2 = lambda: schrodinger_ref("gamma", Ag, Bg, s1())

        def composed_check(st, c):
            Bref = Bg + Ag.T @ (eye - B.T - A.T @ np.conj(A)) @ np.conj(Ag)
            if c.kind != "gamma":
                return f"kind {c.kind}, expected gamma"
            return first(close(c.A, A @ Ag, TOL_COMPOSE, "A"), close(c.B, Bref, TOL_COMPOSE, "B"))

        def scaled_check(pivot, rhs, Aop):
            def compare(st, se):
                sign, logdet = np.linalg.slogdet(pivot)
                arg = eye + Aop @ np.linalg.solve(pivot, rhs) @ Aop.conj().T
                ratio = se.scale / sign * np.exp(-logdet) if se.scale != 0 else 0.0
                return first(
                    close(ratio, 1.0, TOL_HEIS, "scale ratio"),
                    close(se.argument, arg, TOL_HEIS, "argument"),
                )

            return value_check(compare)

        Mg = Bg.T + Ag.conj().T @ Ag
        Qt = M.T

        def choi_check(st, cf):
            Binv = gen.b_inverse(lam)
            arg = np.block([[Binv - eye, Binv @ A.conj().T], [A @ Binv, eye + A @ Binv @ A.conj().T]])
            ratio = np.exp(np.log(cf.scale) - gen.b_logdet(lam)) if cf.scale > 0 else 0.0
            return first(close(ratio, 1.0, TOL_HEIS, "scale ratio"), close(cf.argument, arg, TOL_HEIS, "argument"))

        bound = eye - A.conj().T @ A
        return [
            # -- states half
            Op("validate_symbol", "states",
               lambda st: qf.validate_symbol(M), symbol_check(M, q)),
            Op("spectral", "states",
               lambda st: qf.spectral(st["validate_symbol"]), value_check(spectral_check)),
            Op("von_neumann_entropy", "states",
               lambda st: qf.von_neumann_entropy(st["validate_symbol"]),
               value_check(lambda st, v: close(v, binary_entropy(q), TOL_ENTROPY))),
            Op("renyi_entropy", "states",
               lambda st: qf.renyi_entropy(st["validate_symbol"], 2.0),
               value_check(lambda st, v: close(v, -np.sum(np.log((1 - q) ** 2 + q**2)), TOL_ENTROPY))),
            Op("validate_symbol.reference", "states",
               lambda st: qf.validate_symbol(inp["M2"]), symbol_check(inp["M2"], inp["q2"])),
            Op("relative_entropy", "states",
               lambda st: qf.relative_entropy(st["validate_symbol"], st["validate_symbol.reference"]),
               value_check(lambda st, v: close(
                   v, relative_reference(M, q, inp["V2"], inp["q2"]), TOL_RELATIVE))),
            Op("validate_symbol.rank1", "states",
               lambda st: qf.validate_symbol(inp["M1"]), symbol_check(inp["M1"])),
            Op("mix_symbols", "states",
               lambda st: qf.mix_symbols(st["validate_symbol.rank1"], st["validate_symbol"], inp["weight"]),
               value_check(lambda st, Q: close(
                   Q.matrix, inp["weight"] * inp["M1"] + (1 - inp["weight"]) * M, 1e-9, "matrix"))),
            Op("validate_symbol.edge", "states",
               lambda st: qf.validate_symbol(inp["Me"]),
               symbol_check(inp["Me"], inp["qe"])),
            Op("von_neumann_entropy.edge", "states",
               lambda st: qf.von_neumann_entropy(st["validate_symbol.edge"]),
               value_check(lambda st, v: close(v, binary_entropy(np.clip(inp["qe"], 0, 1)), TOL_ENTROPY))),
            Op("validate_symbol.edge_state", "states",
               lambda st: qf.validate_symbol(inp["Me1"]),
               symbol_check(inp["Me1"], inp["qe1"])),
            Op("relative_entropy.edge", "states",
               lambda st: qf.relative_entropy(st["validate_symbol.edge_state"], st["validate_symbol.edge"]),
               value_check(lambda st, v: close(v, relent_edge_ref(), TOL_RELATIVE))),
            # -- channels half
            Op("new_channel.lambda", "channels",
               lambda st: qf.new_channel("lambda", A, B),
               value_check(lambda st, c: first(close(c.A, A, 0.0, "A"), close(c.B, B, 1e-15, "B")))),
            Op("new_channel.gamma", "channels",
               lambda st: qf.new_channel("gamma", Ag, Bg),
               value_check(lambda st, c: first(close(c.A, Ag, 0.0, "A"), close(c.B, Bg, 1e-15, "B")))),
            Op("apply_schrodinger.lambda", "channels",
               lambda st: qf.apply_schrodinger(st["new_channel.lambda"], st["validate_symbol"]),
               value_check(lambda st, Q: close(Q.matrix, s1(), TOL_CHANNEL, "matrix"))),
            Op("apply_schrodinger.gamma", "channels",
               lambda st: qf.apply_schrodinger(st["new_channel.gamma"], st["apply_schrodinger.lambda"]),
               value_check(lambda st, Q: close(Q.matrix, s2(), TOL_CHANNEL, "matrix"))),
            Op("compose", "channels",
               lambda st: qf.compose(st["new_channel.gamma"], st["new_channel.lambda"]),
               value_check(composed_check)),
            Op("apply_schrodinger.composed", "channels",
               lambda st: qf.apply_schrodinger(st["compose"], st["validate_symbol"]),
               value_check(lambda st, Q: close(Q.matrix, s2(), TOL_COMPOSE, "matrix"))),
            Op("apply_heisenberg_exp", "channels",
               lambda st: qf.apply_heisenberg_exp(st["new_channel.lambda"], X),
               scaled_check(eye - B + X @ B, X - eye, A)),
            Op("apply_heisenberg_state", "channels",
               lambda st: qf.apply_heisenberg_state(st["new_channel.gamma"], st["validate_symbol"]),
               scaled_check(eye - Qt + (2.0 * Qt - eye) @ Mg, eye - 2.0 * Qt, Ag)),
            Op("jamiolkowski_symbol", "channels",
               lambda st: qf.jamiolkowski_symbol(st["new_channel.lambda"]),
               value_check(lambda st, J: close(
                   J.symbol.matrix,
                   0.5 * np.block([[eye, A], [A.conj().T, A.conj().T @ A + 2.0 * B]]),
                   TOL_EIG, "matrix"))),
            Op("choi_exponential_form", "channels",
               lambda st: qf.choi_exponential_form(st["new_channel.lambda"]),
               value_check(choi_check)),
            Op("new_channel.b_zero", "channels",
               lambda st: qf.new_channel("lambda", A, np.zeros((d, d))),
               value_check(lambda st, c: close(c.B, np.zeros((d, d)), 0.0, "B"))),
            Op("choi_exponential_form.b_zero", "channels",
               lambda st: qf.choi_exponential_form(st["new_channel.b_zero"]),
               expect_error(qf.SingularB)),
            Op("new_channel.cp_boundary", "channels",
               lambda st: qf.new_channel("lambda", A, bound),
               value_check(lambda st, c: close(c.B, bound, 1e-15, "B"))),
            Op("apply_schrodinger.cp_boundary", "channels",
               lambda st: qf.apply_schrodinger(st["new_channel.cp_boundary"], st["validate_symbol"]),
               value_check(lambda st, Q: close(
                   Q.matrix, schrodinger_ref("lambda", A, bound, M), TOL_CHANNEL, "matrix"))),
        ]

    traced_ops = ops
