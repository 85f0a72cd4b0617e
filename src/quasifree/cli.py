"""Command-line front end.

Matrices travel as JSON documents with explicit [re, im] entry pairs:

    {"rows": R, "cols": C, "data": [[re, im], ...]}   # row-major, R*C pairs

and channels as {"kind": "lambda"|"gamma", "A": <matrix>, "B": <matrix>}.

Exit codes: 0 success, 1 failed oracle-check invariant, 2 parse error,
3 invalid symbol/channel, inapplicable closed form or a linear-algebra
failure (e.g. an eigensolver that does not converge), 4 invalid flag value,
5 complete-positivity violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .channels import QuasiFreeChannel, apply_schrodinger, new_channel
from .checks import run_oracle_checks
from .choi import choi_exponential_form, jamiolkowski_symbol
from .entropy import relative_entropy, renyi_entropy, von_neumann_entropy
from .errors import QuasifreeError
from .fock import exp_spectrum
from .symbols import Symbol, validate_symbol

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 3
EXIT_BAD_FLAG = 4

#: set to 1 in the environment that ``bench`` times in
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ParseError(Exception):
    exit_code = 2


def parse_matrix_document(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise ParseError(f"matrix document missing/invalid field: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:  # not bool, float or str
        raise ParseError(f"rows and cols must be JSON integers, got {rows!r} and {cols!r}")
    if rows < 1 or cols < 1:
        raise ParseError("rows and cols must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"data must hold rows*cols = {rows * cols} entries")
    pairs = _numeric_pairs(data)
    out = _parse_entries(data) if pairs is None else pairs.view(complex)
    return out.reshape(rows, cols)


def _numeric_pairs(data: list):
    """data as an (n, 2) float array when every entry is a list of two finite
    numbers, else None.

    One numpy conversion certifies the common case; it accepts only what
    :func:`_parse_entries` accepts, with the same values bit for bit (the
    pairs are reinterpreted as complex, never summed as re + 1j im, so a
    -0.0 real part survives).  Everything else goes to that loop, which
    decides and words the ParseError.
    """
    if set(map(type, data)) != {list}:
        return None
    try:
        raw = np.asarray(data)
    except (ValueError, TypeError, OverflowError):  # ragged or nested entries
        return None
    if raw.dtype.kind not in "fi" or raw.shape != (len(data), 2):
        return None
    pairs = np.ascontiguousarray(raw, dtype=float)
    return pairs if np.isfinite(pairs).all() else None


def _parse_entries(data: list) -> np.ndarray:
    """The entries of data as complex numbers, one [re, im] pair at a time."""
    out = np.empty(len(data), dtype=complex)
    for idx, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"entry {idx} is not a [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {idx} is not a pair of numbers: {exc}") from exc
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ParseError(f"entry {idx} is not finite")
        out[idx] = complex(re, im)
    return out


def _pairs(M) -> list:
    """The [re, im] pairs of M's entries, row-major, as tuples: the JSON
    encoder writes a tuple as a list, so no per-entry list is built."""
    M = np.asarray(M, dtype=complex)
    return list(zip(M.real.ravel().tolist(), M.imag.ravel().tolist()))


def _matrix_object(M: np.ndarray) -> dict:
    return {"rows": M.shape[0], "cols": M.shape[1], "data": _pairs(M)}


def format_matrix_document(M: np.ndarray) -> str:
    return json.dumps(_matrix_object(M))


def parse_channel_document(doc) -> QuasiFreeChannel:
    if not isinstance(doc, dict):
        raise ParseError("channel document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("lambda", "gamma"):
        raise ParseError("channel kind must be 'lambda' or 'gamma'")
    try:
        A = parse_matrix_document(doc["A"])
        B = parse_matrix_document(doc["B"])
    except KeyError as exc:
        raise ParseError(f"channel document missing field {exc}") from exc
    if A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ParseError("channel A and B must be square and share a dimension")
    return new_channel(kind, A, B)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_symbol(path: str) -> Symbol:
    return validate_symbol(parse_matrix_document(_load_json(path)))


def cmd_entropy(args) -> int:
    sym = _load_symbol(args.matrix)
    value = von_neumann_entropy(sym) if args.p is None else renyi_entropy(sym, args.p)
    print(f"{value:.12g}")
    return EXIT_OK


def cmd_relent(args) -> int:
    s1 = _load_symbol(args.matrix1)
    s2 = _load_symbol(args.matrix2)
    print(f"{relative_entropy(s1, s2):.12g}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    if args.steps < 1:
        print(f"--steps must be >= 1, got {args.steps}", file=sys.stderr)
        return EXIT_BAD_FLAG
    channel = parse_channel_document(_load_json(args.channel))
    sym = _load_symbol(args.state)
    for _ in range(args.steps):
        sym = apply_schrodinger(channel, sym)
    print(format_matrix_document(sym.matrix))
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "kind" in doc:
        channel = parse_channel_document(doc)
        print(f"valid {channel.kind} channel (d={channel.dim})")
    else:
        sym = validate_symbol(parse_matrix_document(doc))
        print(f"valid symbol (d={sym.dim})")
    return EXIT_OK


def cmd_jamiolkowski(args) -> int:
    channel = parse_channel_document(_load_json(args.channel))
    J = jamiolkowski_symbol(channel)
    print(format_matrix_document(J.symbol.matrix))
    return EXIT_OK


def cmd_choi(args) -> int:
    channel = parse_channel_document(_load_json(args.channel))
    form = choi_exponential_form(channel)
    print(json.dumps({"scale": form.scale, "argument": _matrix_object(form.argument)}))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    X = parse_matrix_document(_load_json(args.matrix))
    if X.shape[0] != X.shape[1]:
        raise ParseError("spectrum needs a square matrix")
    values = exp_spectrum(X)
    order = np.lexsort((values.imag, values.real))
    print(json.dumps(_pairs(values[order])))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if not 1 <= args.d <= 6:
        print(f"oracle-check requires 1 <= d <= 6, got {args.d}", file=sys.stderr)
        return EXIT_BAD_FLAG
    if args.trials < 1:
        print(f"--trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_BAD_FLAG
    results = run_oracle_checks(args.d, args.trials, args.seed)
    print(f"oracle-check d={args.d} trials={args.trials} seed={args.seed}")
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {r.name:28s} max-dev {r.max_dev:9.3e}  tol {r.tol:7.1e}  {status}")
        all_pass &= r.passed
    print("all checks passed" if all_pass else "FAILED")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _bench_instance(d: int, rng: np.random.Generator):
    # interior symbol without an eigendecomposition: Gershgorin keeps the
    # perturbation norm below 0.4 so the spectrum stays inside (0, 1)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (M + M.conj().T) / 2.0
    H *= 0.4 / max(1e-300, float(np.abs(H).sum(axis=1).max()))
    Q = validate_symbol(0.5 * np.eye(d) + H)
    A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(8.0 * d)
    B = 0.5 * (np.eye(d) - A.conj().T @ A)
    return Q, new_channel("lambda", A, B)


def _bench_pinned(dims, seed: int) -> int:
    """Rerun the bench in a child interpreter with BLAS pinned to one thread."""
    import subprocess  # only bench needs it; kept off every CLI start

    env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["bench", "--dims", ",".join(map(str, dims)), "--seed", str(seed)]
    cmd = [sys.executable, "-m", "quasifree", *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode


def cmd_bench(args) -> int:
    try:
        dims = [int(v) for v in args.dims.split(",") if v]
    except ValueError:
        print(f"--dims must be a comma-separated list of integers: {args.dims}", file=sys.stderr)
        return EXIT_BAD_FLAG
    if not dims or any(v < 1 for v in dims):
        print("--dims entries must be positive", file=sys.stderr)
        return EXIT_BAD_FLAG
    if any(os.environ.get(var) != "1" for var in _BLAS_THREAD_VARS):
        return _bench_pinned(dims, args.seed)

    rng = np.random.default_rng(args.seed)
    print(f"{'d':>6s} {'entropy_s':>12s} {'evolve_s':>12s} {'dense_dim_avoided':>20s}")
    for d in dims:
        Q, channel = _bench_instance(d, rng)

        t0 = time.perf_counter()
        von_neumann_entropy(Q)
        t1 = time.perf_counter()
        apply_schrodinger(channel, Q)
        t_ent, t_evo = t1 - t0, time.perf_counter() - t1
        approx = f"2^{d} ~ 1e{int(d * 0.30103)}"
        print(f"{d:6d} {t_ent:12.6f} {t_evo:12.6f} {approx:>20s}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifree",
        description="Quasi-free fermionic states and channels at symbol level, "
        "with a dense oracle cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a matrix (symbol) or channel document")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("entropy", help="von Neumann (default) or Renyi entropy of a symbol")
    p.add_argument("matrix")
    p.add_argument("--p", type=float, default=None, help="Renyi order (omit for von Neumann)")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("relent", help="relative entropy between two symbols")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.set_defaults(func=cmd_relent)

    p = sub.add_parser("evolve", help="apply a channel to a symbol n times")
    p.add_argument("channel")
    p.add_argument("state")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("choi", help="closed-form Choi pair (scale, argument) of a channel")
    p.add_argument("channel")
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("jamiolkowski", help="2d-dimensional Jamiolkowski symbol of a channel")
    p.add_argument("channel")
    p.set_defaults(func=cmd_jamiolkowski)

    p = sub.add_parser("spectrum", help="eigenvalue multiset of the exponential element of X")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("oracle-check", help="run the symbol-vs-oracle invariant suite")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("bench", help="time symbol-level operations at large d")
    p.add_argument("--dims", default="100,500,2000")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, QuasifreeError) as exc:  # each error type carries its exit code
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
