"""Acceptance suite: one test per criterion, each printing a PASS line with
the worst observed deviation so the run doubles as a report."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import brute_subset_products, dense_relative, dense_renyi, dense_von_neumann

from quasifree import (
    DimensionCap,
    NotQuasiFreeMixture,
    QuasiFreeChannel,
    QuasifreeError,
    apply_heisenberg_exp,
    apply_heisenberg_state,
    apply_schrodinger,
    compose,
    dense_choi,
    dense_jamiolkowski,
    density_matrix,
    exp_element,
    exp_spectrum,
    jamiolkowski_symbol,
    mix_symbols,
    partial_trace,
    relative_entropy,
    renyi_entropy,
    stinespring_schrodinger,
    validate_symbol,
    von_neumann_entropy,
)
from quasifree.channels import cp_bound
from quasifree.sampling import random_channel, random_symbol

SEED = 987654321


def test_criterion_1_state_construction():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    dev_eig = dev_tr = 0.0
    for d in range(1, 7):
        for _ in range(200):
            Q = random_symbol(d, rng)
            rho = density_matrix(Q)
            dense = np.sort(np.linalg.eigvalsh(rho))
            brute = np.sort(brute_subset_products(Q.eigenvalues))
            dev_eig = max(dev_eig, float(np.abs(dense - brute).max()))
            dev_tr = max(dev_tr, abs(float(np.trace(rho).real) - 1.0))
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 1: density eigenvalues dev {dev_eig:.2e}, "
        f"trace dev {dev_tr:.2e}, {elapsed:.1f}s for 1200 states"
    )
    assert dev_eig < 1e-10
    assert dev_tr < 1e-10
    assert elapsed < 30.0


def test_criterion_2_exponential_laws():
    rng = np.random.default_rng(SEED + 1)
    dev = {"product": 0.0, "adjoint": 0.0, "trace-det": 0.0, "positivity": 0.0, "spectrum": 0.0}
    for i in range(100):
        d = (i % 5) + 1
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        EX = exp_element(X)
        dev["product"] = max(
            dev["product"], float(np.abs(EX @ exp_element(Y) - exp_element(X @ Y)).max())
        )
        dev["adjoint"] = max(
            dev["adjoint"], float(np.abs(EX.conj().T - exp_element(X.conj().T)).max())
        )
        dev["trace-det"] = max(
            dev["trace-det"],
            abs(complex(np.trace(EX)) - complex(np.linalg.det(np.eye(d) + X))),
        )
        P = X @ X.conj().T
        dev["positivity"] = max(
            dev["positivity"], max(0.0, -float(np.linalg.eigvalsh(exp_element(P))[0]))
        )
        dense = np.sort_complex(np.linalg.eigvals(EX))
        dev["spectrum"] = max(
            dev["spectrum"], float(np.abs(dense - np.sort_complex(exp_spectrum(X))).max())
        )
    worst = max(dev.values())
    print("PASS criterion 2: exponential laws, worst dev "
          + ", ".join(f"{k} {v:.2e}" for k, v in dev.items()))
    assert worst < 1e-9


def test_criterion_3_entropies():
    rng = np.random.default_rng(SEED + 2)
    dev_renyi = dev_vn = dev_limit = 0.0
    for d in range(1, 7):
        for _ in range(10):
            Q = random_symbol(d, rng, 0.05, 0.95)
            rho = density_matrix(Q)
            for p in (0.5, 2.0, 3.0):
                dev_renyi = max(dev_renyi, abs(renyi_entropy(Q, p) - dense_renyi(rho, p)))
            dev_vn = max(dev_vn, abs(von_neumann_entropy(Q) - dense_von_neumann(rho)))
            dev_limit = max(
                dev_limit, abs(renyi_entropy(Q, 1.0 + 1e-4) - von_neumann_entropy(Q))
            )
    dev_rel = 0.0
    for d in range(1, 6):
        for _ in range(10):
            Q1 = random_symbol(d, rng, 0.05, 0.95)
            Q2 = random_symbol(d, rng, 0.05, 0.95)
            want = dense_relative(density_matrix(Q1), density_matrix(Q2))
            dev_rel = max(dev_rel, abs(relative_entropy(Q1, Q2) - want))
    print(
        f"PASS criterion 3: renyi dev {dev_renyi:.2e}, vN dev {dev_vn:.2e}, "
        f"relative dev {dev_rel:.2e}, renyi(1+1e-4) gap {dev_limit:.2e}"
    )
    assert dev_renyi < 1e-9
    assert dev_vn < 1e-9
    assert dev_rel < 1e-8
    assert dev_limit < 1e-3


def test_criterion_4_channels():
    rng = np.random.default_rng(SEED + 3)
    dev_cov = dev_dual = dev_comp = dev_heis = 0.0
    kinds = ("lambda", "gamma")
    for i in range(100):
        d = (i % 4) + 1
        kind = kinds[i % 2]
        c = random_channel(d, rng, kind)
        Q = random_symbol(d, rng, 0.05, 0.95)
        rho = density_matrix(Q)
        out = apply_schrodinger(c, Q)

        # (a) Stinespring state evolution matches the affine symbol image
        dev_cov = max(
            dev_cov,
            float(np.abs(stinespring_schrodinger(c, rho) - density_matrix(out)).max()),
        )

        # (b) duality trace identity on an exponential element
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        se = apply_heisenberg_exp(c, X)
        lhs = complex(np.trace(density_matrix(out) @ exp_element(X)))
        rhs = se.scale * complex(np.trace(rho @ exp_element(se.argument)))
        dev_dual = max(dev_dual, abs(lhs - rhs))

        # (c) composition, two-step versus one-step
        c2 = random_channel(d, rng, kinds[(i + 1) % 2])
        two = apply_schrodinger(c2, out).matrix
        one = apply_schrodinger(compose(c2, c), Q).matrix
        dev_comp = max(dev_comp, float(np.abs(two - one).max()))

        # (d) state form and both pivot sides of the exponential form densify
        # to the same operator
        eye = np.eye(d)
        Xq = Q.matrix @ np.linalg.inv(eye - Q.matrix)
        ss = apply_heisenberg_state(c, Q)
        form_state = ss.scale * exp_element(ss.argument)
        se_q = apply_heisenberg_exp(c, Xq)
        det_factor = complex(np.linalg.det(eye - Q.matrix))
        form_left = det_factor * se_q.scale * exp_element(se_q.argument)
        A, B = c.A, c.B
        if kind == "lambda":
            pivot = eye - B + B @ Xq
            arg = eye + A @ (Xq - eye) @ np.linalg.inv(pivot) @ A.conj().T
        else:
            M = B.T + A.conj().T @ A
            pivot = eye - M + M @ Xq.T
            arg = eye + A @ (eye - Xq.T) @ np.linalg.inv(pivot) @ A.conj().T
        form_right = det_factor * complex(np.linalg.det(pivot)) * exp_element(arg)
        dev_heis = max(dev_heis, float(np.abs(form_state - form_left).max()))
        dev_heis = max(dev_heis, float(np.abs(form_state - form_right).max()))
    print(
        f"PASS criterion 4: covariance dev {dev_cov:.2e}, duality dev {dev_dual:.2e}, "
        f"composition dev {dev_comp:.2e}, Heisenberg forms dev {dev_heis:.2e}"
    )
    assert dev_cov < 1e-8
    assert dev_dual < 1e-9
    assert dev_comp < 1e-10
    assert dev_heis < 1e-9


def test_criterion_5_choi_jamiolkowski():
    rng = np.random.default_rng(SEED + 4)
    dev_spec = dev_tr1 = dev_marginal = 0.0
    violations_detected = 0
    trials = 0
    kinds = ("lambda", "gamma")
    for d in (1, 2, 3):
        for k in range(4):
            kind = kinds[k % 2]
            c = random_channel(d, rng, kind)
            trials += 1
            J = jamiolkowski_symbol(c)
            dev_marginal = max(
                dev_marginal,
                float(np.abs(J.symbol.matrix[:d, :d] - 0.5 * np.eye(d)).max()),
            )
            dense = np.sort(np.linalg.eigvalsh(dense_jamiolkowski(c)))
            sym = np.sort(np.linalg.eigvalsh(density_matrix(J.symbol)))
            dev_spec = max(dev_spec, float(np.abs(dense - sym).max()))
            n = 2**d
            C = dense_choi(c)
            dev_tr1 = max(
                dev_tr1,
                float(np.abs(partial_trace(C, (n, n), keep=1) - np.eye(n)).max()),
            )
            # CP violation by 1e-3 beyond the bound must be detected
            w, V = np.linalg.eigh(cp_bound(kind, c.A) - c.B)
            v = V[:, 0]
            bad_B = c.B + (w[0] + 1e-3) * np.outer(v, v.conj())
            try:
                bad = QuasiFreeChannel(kind=kind, A=c.A, B=bad_B)
                jamiolkowski_symbol(bad)
            except QuasifreeError:
                violations_detected += 1
    print(
        f"PASS criterion 5: spectrum dev {dev_spec:.2e}, tr1 dev {dev_tr1:.2e}, "
        f"marginal dev {dev_marginal:.2e}, {violations_detected}/{trials} violations detected"
    )
    assert dev_spec < 1e-8
    assert dev_tr1 < 1e-9
    assert dev_marginal < 1e-10
    assert violations_detected == trials


def test_criterion_6_mixtures():
    rng = np.random.default_rng(SEED + 5)
    dev_mix = 0.0
    for i in range(30):
        d = (i % 5) + 1
        Q2 = random_symbol(d, rng, 0.1, 0.8)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        Q1 = validate_symbol(Q2.matrix + 0.15 * np.outer(v, v.conj()))
        lam = float(rng.uniform(0.2, 0.8))
        mixed = mix_symbols(Q1, Q2, lam)
        dense = lam * density_matrix(Q1) + (1.0 - lam) * density_matrix(Q2)
        dev_mix = max(dev_mix, float(np.abs(density_matrix(mixed) - dense).max()))

    min_witness = np.inf
    errors = 0
    for i in range(50):
        d = (i % 4) + 2
        Q1 = random_symbol(d, rng, 0.1, 0.9)
        Q2 = random_symbol(d, rng, 0.1, 0.9)
        lam = 0.5
        try:
            mix_symbols(Q1, Q2, lam)
        except NotQuasiFreeMixture:
            errors += 1
        affine = validate_symbol(lam * Q1.matrix + (1 - lam) * Q2.matrix)
        dense = lam * density_matrix(Q1) + (1 - lam) * density_matrix(Q2)
        min_witness = min(min_witness, float(np.abs(density_matrix(affine) - dense).max()))
    print(
        f"PASS criterion 6: rank<=1 affine dev {dev_mix:.2e}, "
        f"rank-2 witness >= {min_witness:.2e}, {errors}/50 error branches"
    )
    assert dev_mix < 1e-9
    assert min_witness >= 1e-6
    assert errors == 50


# The timed body of criterion 7 is `quasifree bench` in a fresh interpreter
# whose environment pins BLAS to one thread before numpy is imported.
def test_criterion_7_performance():
    import quasifree

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(quasifree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "quasifree", "bench", "--dims", "2000", "--seed", str(SEED + 6)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    t_entropy, t_evolve = map(float, proc.stdout.strip().splitlines()[-1].split()[1:3])

    with pytest.raises(DimensionCap):
        exp_element(np.eye(15))
    print(
        f"PASS criterion 7: d=2000 entropy {t_entropy:.2f}s, evolve {t_evolve:.2f}s "
        f"(budget 5s each, single-threaded); dense oracle refuses d=15"
    )
    assert t_entropy < 5.0
    assert t_evolve < 5.0
