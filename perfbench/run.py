"""quasifree benchmark: end-to-end and per-layer timings with checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-d200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One workload runs in this process; ``--workload all`` runs each workload in
its own fresh process, first untraced (end-to-end metrics) and then traced
(per-layer metrics).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import os

# BLAS is pinned to one thread before numpy is imported, here and (through
# the inherited environment) in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-d200", "calculus-d500", "oracle-dense")


def load_program():
    """Import quasifree from this checkout's source tree, or exit non-zero."""
    if not (ROOT / "src" / "quasifree" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {ROOT / 'src' / 'quasifree'}")
    sys.path.insert(0, str(ROOT / "src"))
    import quasifree

    if Path(quasifree.__file__).resolve().parent != ROOT / "src" / "quasifree":
        sys.exit(f"error: imported quasifree from {quasifree.__file__}, not this checkout")


def make_workload(name: str):
    from wl_calculus import Calculus
    from wl_cli import Cli
    from wl_oracle import Oracle

    return {"cli-d200": Cli, "calculus-d500": Calculus, "oracle-dense": Oracle}[name]()


def run_one(args) -> int:
    load_program()
    import harness

    workload = make_workload(args.workload)
    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = harness.environment(ROOT)
        result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result.report["environment"] = env
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(result.report))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    digests = result.report["inputs_sha256_passes"]
    print(f"inputs sha256 pass0 {digests[0]}  ({len(digests)} passes; all in {report_path.relative_to(ROOT)})")
    for line in result.notes:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process: untraced, then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.rstrip("\n").splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            print()
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
