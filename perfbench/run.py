"""Run one benchmark workload, or all of them, and print the result as JSON.

    python3 perfbench/run.py --workload sr-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout: the package is imported from ./src, not
from an installed copy. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
With --trace 1 the metrics are the per-layer ones of a traced run, and
the spans are written to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

# BLAS threads of every benchmark process; must be set before numpy loads.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH_DIR, "runs")
WORKLOADS = ("sr-stream", "sr-wide", "train-desk")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print(f"{name}: {lines[-1]}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, m in result["metrics"].items():
            metrics[f"{name}.{k}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "stereosr", "__init__.py")):
        print(f"error: no stereosr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import stereosr
    import tracer as tracing
    import workloads

    if os.path.dirname(os.path.abspath(stereosr.__file__)) != os.path.join(SRC, "stereosr"):
        print(f"error: stereosr imported from {stereosr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(RUNS, tag)
    os.makedirs(work)
    tracer = tracing.Tracer(stereosr) if args.trace else None
    attempted, metrics, problem = workloads.run(
        args.workload, args.seed, args.seconds, tracer, work
    )
    if tracer is not None:
        tracer.dump(os.path.join(RUNS, tag + "-spans.json"))
    if problem is None:
        shutil.rmtree(work)
    else:
        print(f"check failed: {problem} (outputs kept in {work})", file=sys.stderr)
    print(_result_line(problem is None, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
