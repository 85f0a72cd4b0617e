"""In-memory span tracer for the traced run.

Layers are quasifree's modules plus ``linalg``, the numpy/LAPACK boundary.
The tracer wraps each layer's public functions from outside: it rebinds the
function in every quasifree module that imported it (so nested calls such as
``apply_schrodinger`` -> ``validate_symbol`` become child spans) and the
listed ``numpy.linalg`` attributes plus ``numpy.einsum``.  Patches are
installed only around the timed part of a traced pass; nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYER_FUNCTIONS = {
    "symbols": ("quasifree.symbols", ("validate_symbol", "spectral", "mix_symbols")),
    "entropy": (
        "quasifree.entropy",
        ("von_neumann_entropy", "renyi_entropy", "relative_entropy"),
    ),
    "channels": (
        "quasifree.channels",
        (
            "new_channel",
            "apply_schrodinger",
            "compose",
            "apply_heisenberg_exp",
            "apply_heisenberg_state",
        ),
    ),
    "choi": (
        "quasifree.choi",
        ("jamiolkowski_symbol", "choi_exponential_form", "dense_choi", "dense_jamiolkowski"),
    ),
    "fock": ("quasifree.fock", ("exp_element", "density_matrix", "particle_hole_unitary")),
    "checks": ("quasifree.checks", ("run_oracle_checks",)),
    "cli": (
        "quasifree.cli",
        ("parse_matrix_document", "parse_channel_document", "format_matrix_document", "main"),
    ),
}
LINALG_KERNELS = ("eigvalsh", "eigh", "svd", "cond", "solve", "det", "inv", "einsum")
LAYERS = tuple(LAYER_FUNCTIONS) + ("linalg",)

# span record fields
NAME, LAYER, START, END, PARENT, PASS, FAILED = range(7)


class Tracer:
    """Collects spans (name, layer, start, end, parent, pass id, failed)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self._patches = self._plan()

    # -- spans ---------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.pass_id, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        idx = self.open(name, layer)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self.close(idx, failed)

    # -- patching ------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        if layer == "cli" and name == "main":

            @functools.wraps(fn)
            def traced_main(argv=None):
                return tracer.span(f"main.{argv[0]}", layer, fn, argv)

            return traced_main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, layer, fn, *args, **kwargs)

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "quasifree" or key.startswith("quasifree."))
        ]
        plan = []
        for layer, (modname, names) in LAYER_FUNCTIONS.items():
            home = importlib.import_module(modname)
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, layer, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        for name in LINALG_KERNELS:
            owner = np if name == "einsum" else np.linalg
            original = getattr(owner, name)
            plan.append((owner, name, original, self._wrap(original, "linalg", name)))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass id: <layer>.s, <layer>.calls, <layer>.errors and
        linalg.<kernel>.calls."""
        out: dict[int, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            stats = out.setdefault(span[PASS], _empty_stats())
            layer = span[LAYER]
            if layer not in LAYERS:
                continue
            stats[f"{layer}.s"] += self_s
            stats[f"{layer}.calls"] += 1
            stats[f"{layer}.errors"] += span[FAILED]
            if layer == "linalg":
                stats[f"linalg.{span[NAME]}.calls"] += 1
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "layer", "start", "end", "parent", "pass", "failed"],
            "spans": self.spans,
        }


def _empty_stats() -> dict[str, float]:
    stats = {}
    for layer in LAYERS:
        stats[f"{layer}.s"] = 0.0
        stats[f"{layer}.calls"] = 0
        stats[f"{layer}.errors"] = 0
    for name in LINALG_KERNELS:
        stats[f"linalg.{name}.calls"] = 0
    return stats


def layer_metric_names() -> list[str]:
    return list(_empty_stats())
