"""Command-line front end.

Matrices travel as JSON documents with explicit [re, im] entry pairs:

    {"rows": R, "cols": C, "data": [[re, im], ...]}   # row-major, R*C pairs

and channels as {"kind": "lambda"|"gamma", "A": <matrix>, "B": <matrix>}.

The CLI judges only the document format and its flags.  Exit codes: 0
success, 1 failed oracle-check invariant, 2 a document that does not parse
(including a file that is not UTF-8 or nests too deeply), 3 an invalid symbol
or channel (also a non-square or mismatched operand or a kind other than
lambda/gamma, in every command), an inapplicable closed form or a
linear-algebra failure, 4 a command line argparse refuses, a flag value or a
dimension out of range (including one too large to allocate), 5
complete-positivity violation; each refusal is one "error: ..." line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np

from .channels import QuasiFreeChannel, apply_schrodinger, cp_bound, new_channel
from .checks import run_oracle_checks
from .choi import choi_exponential_form, jamiolkowski_symbol
from .entropy import _check_order, relative_entropy, renyi_entropy, von_neumann_entropy
from .errors import QuasifreeError
from .fock import exp_spectrum
from .sampling import random_hermitian
from .symbols import Symbol, validate_symbol

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 3

#: set to 1 in the environment that ``bench`` times in
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ParseError(Exception):
    exit_code = 2


class BadFlag(Exception):
    """A command line that argparse refuses or a flag value out of range."""

    exit_code = 4


class _Parser(argparse.ArgumentParser):
    """Raises argparse's refusals as :class:`BadFlag`; subparsers inherit it."""

    def error(self, message):
        raise BadFlag(message)


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
    if pairs is None:
        _refuse_entries(data)
    return pairs.view(complex).reshape(rows, cols)


def _numeric_pairs(data: list):
    """data as an (n, 2) float array when every entry is a list of two finite
    numbers, else None.

    One numpy conversion reads every entry as float() reads it, bit for bit
    (the pairs are reinterpreted as complex, never summed as re + 1j im, so a
    -0.0 real part survives).  What it declines goes to
    :func:`_refuse_entries`, which words the ParseError.
    """
    if set(map(type, data)) != {list}:
        return None
    # a string entry would make np.asarray read it as a number
    if not set(map(type, chain.from_iterable(data))) <= {int, float, bool}:
        return None
    try:
        pairs = np.asarray(data, dtype=float)
    except (ValueError, OverflowError):  # ragged entries, an int beyond double range
        return None
    if pairs.shape != (len(data), 2) or not np.isfinite(pairs).all():
        return None
    return pairs


def _refuse_entries(data: list) -> None:
    """Raise the ParseError of the first entry of data that is not a [re, im]
    pair of finite numbers; entries that are not JSON numbers are refused."""
    for idx, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"entry {idx} is not a [re, im] pair")
        re, im = entry
        if isinstance(re, str) or isinstance(im, str):  # float() would read "1.5" and " 1e3 "
            raise ParseError(f"entry {idx} is not a pair of numbers")
        try:
            re, im = float(re), float(im)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {idx} is not a pair of numbers: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"entry {idx} is not finite")
    raise ParseError("entries must be [re, im] pairs of JSON numbers")


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
    try:
        kind, A, B = doc["kind"], doc["A"], doc["B"]
    except KeyError as exc:
        raise ParseError(f"channel document missing field {exc}") from exc
    return new_channel(kind, parse_matrix_document(A), parse_matrix_document(B))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: undecodable bytes or JSON
        raise ParseError(f"{path}: {exc}") from exc


def _load_symbol(path: str) -> Symbol:
    return validate_symbol(parse_matrix_document(_load_json(path)))


def cmd_entropy(args) -> int:
    if args.p is not None:
        _check_order(args.p)  # a bad --p is refused before the document is read
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
        raise BadFlag(f"--steps must be >= 1, got {args.steps}")
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
    values = exp_spectrum(parse_matrix_document(_load_json(args.matrix)))
    order = np.lexsort((values.imag, values.real))
    print(json.dumps(_pairs(values[order])))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    for flag, low in (("d", 1), ("trials", 1), ("seed", 0)):  # the dense reach is the library's
        value = getattr(args, flag)
        if value < low:
            raise BadFlag(f"--{flag} must be >= {low}, got {value}")
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
    H = random_hermitian(d, rng)
    H *= 0.4 / max(1e-300, float(np.abs(H).sum(axis=1).max()))
    Q = validate_symbol(0.5 * np.eye(d) + H)
    # entropy_s times the closed form on a known spectrum: validation may
    # certify the range without one, so read it here, outside the timer
    Q.eigenvalues
    # entries of variance 1/(8d) put ||A||_2 near 1/sqrt(2), well inside the
    # unit ball, so B = (1 - A*A)/2 is positive
    A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (4.0 * np.sqrt(d))
    B = 0.5 * cp_bound("lambda", A)
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
        dims = [int(v) for v in args.dims.split(",")]  # an empty entry is no integer
    except ValueError:
        raise BadFlag(f"--dims must be a comma-separated list of integers: {args.dims}") from None
    if any(v < 1 for v in dims):
        raise BadFlag("--dims entries must be positive")
    if args.seed < 0:
        raise BadFlag(f"--seed must be >= 0, got {args.seed}")
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
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, BadFlag, QuasifreeError) as exc:  # each error type carries its exit code
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # a dimension too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return BadFlag.exit_code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
