"""Benchmark of ehrpath training and decoding.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 30 --trace 0

`--workload all` (the default) runs every workload, each in a child
process of its own. Prints the machine record and one line per metric,
then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when a check
fails and 2 when the package cannot be imported from the checkout's `src`
directory.

`--seconds` is the measuring time of one workload. It follows the set-up
and a warm-up of fixed length, and its passes repeat until it is spent,
at least four times (see harness.py). The first run of a workload in a
checkout trains the warm-up and caches it under `.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy is imported. A second BLAS thread must
# wait for a core that other tenants of a shared machine also use, which made
# the published workload's figures spread more from run to run.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


def machine_record(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    sys.path.insert(0, SRC)
    try:
        import ehrpath
        from harness import WORKLOADS, Runner
    except ImportError as exc:
        print(f"cannot import ehrpath from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(ehrpath.__file__)) != os.path.join(SRC, "ehrpath"):
        print(f"ehrpath was imported from {ehrpath.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")

    print(json.dumps({"machine": machine_record(args.seed, nproc)}))
    result = Runner(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"workload": args.workload, "problems": result["problems"],
                      "fd_error": result["fd_error"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(names: list[str], args) -> int:
    """Each workload in a child process of its own, so that peak_rss_mb is
    that workload's peak and not the highest of every workload before it."""
    results = {}
    for name in names:
        child = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{name}.{key}": m for name, r in results.items()
                                  for key, m in r["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
