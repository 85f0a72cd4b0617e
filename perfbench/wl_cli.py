"""cli-d200: the path a command-line user waits for.

Timed passes run ``python -m quasifree <cmd>`` as sequential subprocesses on
d = 200 JSON documents written at set-up, so process start, JSON decode,
the per-entry parse loop and output formatting dominate.  The traced run
times the same stages in-process by calling the cli module's own functions
on the same documents.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import quasifree.cli as qcli

import inputs as gen
from harness import Op, child_env, close, first, value_check
from wl_calculus import binary_entropy, relative_reference, schrodinger_ref
from wl_oracle import choi_argument

TOL_ENTROPY = 1e-9
TOL_RELATIVE = 1e-8
TOL_CHANNEL = 1e-8
TOL_MATRIX = 1e-10

DOCS = ("q", "q2", "channel", "out_of_range", "not_cp", "bad_entry")

#: documented exit codes (README "Exit codes")
EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_BAD_FLAG, EXIT_NOT_CP = 0, 2, 3, 4, 5


class Cli:
    name = "cli-d200"
    fresh_inputs = False
    rss_of_children = True

    def __init__(self, d: int = 200):
        self.d = d

    def tiny(self):
        return Cli(d=6)

    def inputs(self, seed, index, work_dir):
        """Documents depend on the seed only; they are written once per set-up."""
        d = self.d
        rng = gen.rng_for(seed, self.name, 0)
        main = gen.symbol(d, rng, 0.05, 0.85)
        ref = gen.symbol(d, rng, 0.05, 0.95)
        ch = gen.channel(d, rng, "lambda", (0.1, 0.6), (0.5, 0.95))
        wild = gen.symbol(d, rng, 0.05, 0.95)
        q_wild = wild["q"].copy()
        q_wild[0] = 1.5
        bad = gen.matrix_doc(main["M"])
        bad["data"][-1] = ["a", 0]
        texts = {
            "q": json.dumps(gen.matrix_doc(main["M"])),
            "q2": json.dumps(gen.matrix_doc(ref["M"])),
            "channel": json.dumps(gen.channel_doc("lambda", ch["A"], ch["B"])),
            "out_of_range": json.dumps(gen.matrix_doc(gen.from_spectrum(wild["V"], q_wild))),
            "not_cp": json.dumps(gen.channel_doc("lambda", ch["A"], ch["B"] + np.eye(d))),
            "bad_entry": json.dumps(bad),
        }
        work_dir.mkdir(parents=True, exist_ok=True)
        for key, text in texts.items():
            (work_dir / f"{key}.json").write_text(text)
        return {
            "_work_dir": str(work_dir),
            "texts": texts,
            "M": main["M"],
            "q": main["q"],
            "V2": ref["V"],
            "q2": ref["q"],
            "channel": ch,
        }

    # -- op construction -------------------------------------------------
    def _commands(self, inp):
        """(name, half, argv, compare, known_defect) for every CLI call;
        ``compare(name, exit_code)`` reads the call's stdout file."""
        d = self.d
        work = Path(inp["_work_dir"])
        path = {k: str(work / f"{k}.json") for k in DOCS}
        M, q, ch = inp["M"], inp["q"], inp["channel"]
        A, B = ch["A"], ch["B"]

        def stdout_of(name):
            return (work / f"{name}.stdout").read_text()

        def exits(code, text=None):
            def compare(name, rc):
                if rc != code:
                    return f"exit {rc}, expected {code}"
                if text is not None and stdout_of(name).strip() != text:
                    return f"stdout {stdout_of(name)[:60]!r}"
                return None

            return compare

        def number(ref, tol):
            def compare(name, rc):
                return f"exit {rc}" if rc != EXIT_OK else close(float(stdout_of(name)), ref(), tol)

            return compare

        def matrix(ref, tol):
            def compare(name, rc):
                if rc != EXIT_OK:
                    return f"exit {rc}"
                return close(gen.doc_matrix(json.loads(stdout_of(name))), ref(), tol, "matrix")

            return compare

        def evolved():
            out = M
            for _ in range(3):
                out = schrodinger_ref("lambda", A, B, out)
            return out

        def choi_compare(name, rc):
            if rc != EXIT_OK:
                return f"exit {rc}"
            doc = json.loads(stdout_of(name))
            ratio = np.exp(np.log(doc["scale"]) - gen.b_logdet(ch)) if doc["scale"] > 0 else 0.0
            return first(
                close(ratio, 1.0, 1e-9, "scale ratio"),
                close(gen.doc_matrix(doc["argument"]), choi_argument(ch), 1e-9, "argument"),
            )

        eye = np.eye(d)
        jam = lambda: 0.5 * np.block([[eye, A], [A.conj().T, A.conj().T @ A + 2.0 * B]])
        # ROADMAP item 5: a non-numeric entry escapes as a ValueError
        # traceback (exit 1) instead of a parse error (exit 2)
        parse_defect = lambda st, rc, exc: rc == 1 or isinstance(exc, ValueError)
        return [
            ("validate.symbol", "states", ["validate", path["q"]],
             exits(EXIT_OK, f"valid symbol (d={d})"), None),
            ("entropy", "states", ["entropy", path["q"]],
             number(lambda: binary_entropy(q), TOL_ENTROPY), None),
            ("entropy.renyi2", "states", ["entropy", path["q"], "--p", "2"],
             number(lambda: -np.sum(np.log((1 - q) ** 2 + q**2)), TOL_ENTROPY), None),
            ("relent", "states", ["relent", path["q"], path["q2"]],
             number(lambda: relative_reference(M, q, inp["V2"], inp["q2"]), TOL_RELATIVE), None),
            ("validate.out_of_range", "states", ["validate", path["out_of_range"]],
             exits(EXIT_INVALID), None),
            ("entropy.p0", "states", ["entropy", path["q"], "--p", "0"],
             exits(EXIT_BAD_FLAG), None),
            ("entropy.bad_entry", "states", ["entropy", path["bad_entry"]],
             exits(EXIT_PARSE), parse_defect),
            ("validate.channel", "channels", ["validate", path["channel"]],
             exits(EXIT_OK, f"valid lambda channel (d={d})"), None),
            ("evolve", "channels", ["evolve", path["channel"], path["q"], "--steps", "3"],
             matrix(evolved, TOL_CHANNEL), None),
            ("jamiolkowski", "channels", ["jamiolkowski", path["channel"]],
             matrix(jam, TOL_MATRIX), None),
            ("choi", "channels", ["choi", path["channel"]], choi_compare, None),
            ("validate.not_cp", "channels", ["validate", path["not_cp"]],
             exits(EXIT_NOT_CP), None),
        ]

    def _command_ops(self, inp, call):
        return [
            Op(name, half, call(name, argv),
               value_check(lambda st, rc, name=name, compare=compare: compare(name, rc)), defect)
            for name, half, argv, compare, defect in self._commands(inp)
        ]

    def ops(self, inp):
        """Each command as a subprocess, as a user runs it."""
        work = Path(inp["_work_dir"])
        env = child_env()

        def subprocess_call(name, argv):
            def call(st):
                with open(work / f"{name}.stdout", "wb") as out, open(work / f"{name}.stderr", "wb") as err:
                    return subprocess.run(
                        [sys.executable, "-m", "quasifree", *argv], stdout=out, stderr=err, env=env
                    ).returncode

            return call

        return self._command_ops(inp, subprocess_call)

    def traced_ops(self, inp):
        """The same stages in-process: process start, JSON decode, parse,
        format, and ``main`` for every command.  An exception escaping
        ``main`` is what exits 1 with a traceback in a subprocess."""
        work = Path(inp["_work_dir"])
        texts = inp["texts"]
        M, ch = inp["M"], inp["channel"]
        env = child_env()

        def main_call(name, argv):
            def call(st):
                with open(work / f"{name}.stdout", "w") as out, open(work / f"{name}.stderr", "w") as err:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            return qcli.main(argv)
                        except SystemExit as stop:  # argparse rejecting argv
                            return stop.code

            return call

        same = lambda what, ref, tol=0.0: value_check(lambda st, value: close(what(value), ref, tol))
        stages = [
            Op("process_start", "states",
               lambda st: subprocess.run([sys.executable, "-c", "import quasifree.cli"], env=env).returncode,
               same(lambda rc: rc, 0), layer="cli"),
            Op("json_decode.q", "states", lambda st: json.loads(texts["q"]),
               same(gen.doc_matrix, M), layer="cli"),
            Op("parse_matrix_document", "states",
               lambda st: qcli.parse_matrix_document(st["json_decode.q"]), same(lambda X: X, M)),
            Op("format_matrix_document", "states",
               lambda st: qcli.format_matrix_document(st["parse_matrix_document"]),
               same(lambda text: gen.doc_matrix(json.loads(text)), M)),
            Op("json_decode.channel", "channels", lambda st: json.loads(texts["channel"]),
               same(lambda doc: gen.doc_matrix(doc["A"]), ch["A"]), layer="cli"),
            Op("parse_channel_document", "channels",
               lambda st: qcli.parse_channel_document(st["json_decode.channel"]),
               value_check(lambda st, c: first(close(c.A, ch["A"], 0.0, "A"),
                                               close(c.B, ch["B"], 1e-15, "B")))),
        ]
        return stages + self._command_ops(inp, main_call)

