"""Measurement loop shared by every workload.

A workload supplies seeded inputs and an ordered list of :class:`Op` for one
pass.  Each pass is a closed loop: one client in one process, each call
waiting for the previous one.  Ops run in two halves ("states", then
"channels"), each half timed as a whole; outputs are checked against plain
numpy references after the timers stop.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from inputs import fingerprint
from tracing import LAYERS, Tracer, layer_metric_names

HALVES = ("states", "channels")
SETUP_REPEATS = 9  # a set-up is short, so its median needs many samples


@dataclass
class Op:
    """One call of the workload.

    ``run(state)`` performs the call; its return value is stored under
    ``state[name]`` for later ops.  ``check(state, value, exc)`` runs after
    the timers stop and returns None when the outcome is right, else a
    reason.  ``known_defect(state, value, exc)`` recognises a documented
    defect: such a failure still counts in ``failed`` but does not make the
    run incorrect.  ``layer`` attributes the op's own span to a layer when
    the op is itself a stage of that layer (the CLI's process start and JSON
    decode), instead of to the harness.
    """

    name: str
    half: str
    run: Callable[[dict], Any]
    check: Callable[[dict, Any, BaseException | None], str | None]
    known_defect: Callable[[dict, Any, BaseException | None], bool] | None = None
    layer: str = "harness"


@dataclass
class PassResult:
    halves: dict
    attempted: int
    failures: list = field(default_factory=list)  # (op, reason, known)

    @property
    def total(self) -> float:
        return sum(self.halves.values())


def run_pass(ops: list[Op], inputs: dict, tracer: Tracer | None = None) -> PassResult:
    gc.collect()  # the previous pass's garbage is not this pass's cost
    state = dict(inputs)
    outcomes = []
    halves = {}
    if tracer is not None:
        tracer.install()
    try:
        for half in HALVES:
            half_ops = [op for op in ops if op.half == half]
            t0 = time.perf_counter()
            for op in half_ops:
                value = exc = None
                try:
                    if tracer is None:
                        value = op.run(state)
                    else:
                        value = tracer.span(op.name, op.layer, op.run, state)
                except Exception as err:  # the op's outcome, judged by its check
                    exc = err.with_traceback(None)  # frames would pin the whole pass
                state[op.name] = value
                outcomes.append((op, value, exc))
            halves[half] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = PassResult(halves=halves, attempted=len(outcomes))
    for op, value, exc in outcomes:
        try:
            reason = op.check(state, value, exc)
        except Exception as err:  # a broken output can break its check too
            reason = f"check raised {err!r}"
        if reason is not None:
            known = op.known_defect is not None and op.known_defect(state, value, exc)
            result.failures.append((op.name, reason, known))
    return result


# -- reference comparisons ------------------------------------------------


def close(value, ref, tol: float, what: str = "value") -> str | None:
    """None when |value - ref| <= tol * max(1, |ref|), entrywise maximum for
    arrays; the scale keeps the suite's tolerances meaningful at large d."""
    value = np.asarray(value)
    ref = np.asarray(ref)
    if ref.ndim and value.shape != ref.shape:
        return f"{what}: shape {value.shape} != {ref.shape}"
    if ref.size == 0:
        return None
    dev = float(np.abs(value - ref).max())
    scale = max(1.0, float(np.abs(ref).max()))
    if not dev <= tol * scale:
        return f"{what}: deviation {dev:.3e} > {tol:.0e} x {scale:.3g}"
    return None


def first(*reasons):
    return next((r for r in reasons if r is not None), None)


def expect_error(exc_type):
    def check(state, value, exc):
        if isinstance(exc, exc_type):
            return None
        got = type(exc).__name__ if exc is not None else "no error"
        return f"expected {exc_type.__name__}, got {got}"

    return check


def value_check(compare):
    """Wrap compare(state, value) so that a raised error is a failure."""

    def check(state, value, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return compare(state, value)

    return check


# -- environment --------------------------------------------------------


def environment(root: Path) -> dict:
    np.ones((256, 256)) @ np.ones((256, 256))  # warm gemm before counting threads
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs between numpy versions
        blas = "unknown"
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "quasifree").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads_after_gemm": threads,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


# -- the run ------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list  # human-readable lines
    report: dict


def child_env() -> dict:
    """This process's (BLAS-pinned) environment, with the imported quasifree's
    source tree first on the import path of the child."""
    import quasifree

    env = dict(os.environ)
    src = str(Path(quasifree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def time_setup(workload, seed: int, work_dir: Path):
    """One set-up: a cold interpreter importing quasifree, input generation
    (and document writing), and a warm-up pass at tiny size.  Returns the
    seconds taken and the generated pass-0 inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import quasifree"], env=child_env(), check=True)
    inputs = workload.inputs(seed, 0, work_dir)
    tiny = workload.tiny()
    tiny_inputs = tiny.inputs(seed, 0, work_dir / "tiny")
    run_pass(tiny.traced_ops(tiny_inputs), tiny_inputs)
    return time.perf_counter() - t0, inputs


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> RunResult:
    """Set up, then repeat passes until the next would overrun ``seconds``.

    Untraced, every pass counts.  Traced, passes on fresh inputs alternate
    untraced and traced in the order U T T U U T T U ..., so that drift
    cancels in the overhead estimate.
    """
    setups = []
    # setup_s comes from the untraced run only; the traced run needs one set-up
    for _ in range(1 if trace else SETUP_REPEATS):
        seconds_taken, setup_inputs = time_setup(workload, seed, work_dir)
        setups.append(seconds_taken)
    shared = None if workload.fresh_inputs else setup_inputs
    tracer = Tracer() if trace else None
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    digests: list[str] = []

    def one_pass(with_tracer):
        index = len(digests)
        inputs = shared if shared is not None else workload.inputs(seed, index, work_dir)
        digests.append(fingerprint(inputs))
        if not trace:
            passes.append(run_pass(workload.ops(inputs), inputs))
        elif with_tracer:
            tracer.pass_id = index
            traced.append(run_pass(workload.traced_ops(inputs), inputs, tracer))
        else:
            passes.append(run_pass(workload.traced_ops(inputs), inputs))

    start = time.perf_counter()
    for k in itertools.count():
        t_pass = time.perf_counter()
        one_pass(trace and k % 4 in (1, 2))
        now = time.perf_counter()
        measured = passes and (traced or not trace)
        if measured and now - start + (now - t_pass) > seconds:
            break

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]
    if trace:
        metrics, notes = layer_metrics(tracer, passes, traced)
    else:
        metrics, notes = end_to_end_metrics(workload, passes, setups)
    fail_frac = len(failures) / attempted
    notes.append(f"fail_frac        = {fail_frac:.6f} frac  ({len(failures)} failed of {attempted} ops)")
    for name, reason, known in dict.fromkeys(failures):
        notes.append(f"  {'known defect' if known else 'FAILED'}: {name}: {reason}")

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_sha256_passes": digests,
        "setup_s_samples": setups,
        "pass_s_samples": [p.total for p in passes],
        "half_samples": {h: [p.halves[h] for p in passes] for h in HALVES},
        "traced_pass_s_samples": [p.total for p in traced],
        "failures": failures,
        "fail_frac": {"value": fail_frac, "unit": "frac", "attempted": attempted},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["spans"] = tracer.dump()
    correct = all(known for _, _, known in failures)
    return RunResult(correct, attempted, len(failures), metrics, notes, report)


def end_to_end_metrics(workload, passes: list[PassResult], setups: list[float]):
    children = workload.rss_of_children
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF).ru_maxrss
    metrics = {"pass_s": (statistics.median(p.total for p in passes), "s")}
    for half in HALVES:
        metrics[f"{half}_pass_s"] = (statistics.median(p.halves[half] for p in passes), "s")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "ru_maxrss of " + ("the largest CLI child" if children else "this process"),
    }
    notes = [
        f"{name:16s} = {value:.6f} {unit}  ({samples.get(name, f'median of {len(passes)} passes')})"
        for name, (value, unit) in metrics.items()
    ]
    return metrics, notes


def layer_metrics(tracer: Tracer, passes: list[PassResult], traced: list[PassResult]):
    """Per-pass medians over the traced passes, and the tracing overhead."""
    per_pass = tracer.per_pass()
    metrics = {}
    for name in layer_metric_names():
        values = [stats[name] for stats in per_pass.values()]
        metrics[name] = (float(statistics.median(values)), "s" if name.endswith(".s") else "count")
    base = statistics.median(p.total for p in passes)
    with_trace = statistics.median(p.total for p in traced)
    metrics["trace.overhead_frac"] = (with_trace / base - 1.0, "frac")
    notes = [f"traced pass {with_trace:.6f} s vs untraced {base:.6f} s "
             f"(medians of {len(traced)} and {len(passes)} passes)"]
    for layer in LAYERS:
        notes.append(f"  {layer:9s} self {metrics[layer + '.s'][0]:10.6f} s/pass  "
                     f"calls {metrics[layer + '.calls'][0]:6.0f}  "
                     f"errors {metrics[layer + '.errors'][0]:4.0f}")
    return metrics, notes
