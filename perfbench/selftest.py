"""Self-test of the benchmark harness at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that a
deliberately corrupted program output is counted as a failed op, that input
fingerprints depend on the seed alone, and that the benchmark refuses to run
without the program's source.  Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys

import run  # pins BLAS before numpy is imported

run.load_program()

import numpy as np  # noqa: E402
import quasifree  # noqa: E402
import quasifree.cli  # noqa: E402

import harness  # noqa: E402
from inputs import fingerprint  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORK = run.HERE / "out" / "selftest"


def measure(name, trace):
    workload = run.make_workload(name).tiny()
    work_dir = WORK / f"{name}-{trace}"
    return harness.run_workload(workload, 7, 0.01, trace, work_dir)


def corrupted(name, trace, owner, attr, spoil):
    """Run with owner.attr replaced by a spoiled version of itself."""
    original = getattr(owner, attr)
    setattr(owner, attr, lambda *a, **k: spoil(original(*a, **k)))
    try:
        return measure(name, trace)
    finally:
        setattr(owner, attr, original)


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    clean = {}
    for name in run.WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = measure(name, trace)
            clean[name, trace] = result
            expect(list(result.metrics) == names, f"{name} trace={int(trace)} emits {len(names)} metrics")
            expect(result.correct, f"{name} trace={int(trace)} has no failure beyond known defects")
            expect(all(np.isfinite(v) for v, _ in result.metrics.values()),
                   f"{name} trace={int(trace)} metrics are finite")

    cases = [
        ("calculus-d500", False, quasifree, "von_neumann_entropy", lambda v: v + 1e-3,
         {"von_neumann_entropy", "von_neumann_entropy.edge"}),
        ("oracle-dense", False, quasifree, "particle_hole_unitary", lambda W: 1j * W,
         {"particle_hole_unitary"}),
        ("cli-d200", True, quasifree.cli, "von_neumann_entropy", lambda v: v + 1e-3,
         {"entropy"}),
    ]
    for name, trace, owner, attr, spoil, ops in cases:
        result = corrupted(name, trace, owner, attr, spoil)
        baseline = clean[name, trace]
        spoiled = {op for op, _, known in result.report["failures"] if not known}
        expect(not result.correct and spoiled == ops and result.failed > baseline.failed,
               f"{name}: corrupted {attr} fails exactly {sorted(ops)}")

    for name in run.WORKLOADS:
        workload = run.make_workload(name).tiny()
        digests = [fingerprint(workload.inputs(s, 1, WORK / f"fp-{name}-{i}"))
                   for i, s in enumerate((3, 3, 4))]
        expect(digests[0] == digests[1] != digests[2], f"{name} inputs depend on the seed alone")

    bare = WORK / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", run.WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's source the benchmark exits non-zero and prints no result")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
