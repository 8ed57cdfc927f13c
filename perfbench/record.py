#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/record.py [--seeds 1-10] [--seconds S] \\
        [--workloads certify hunt pipeline] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median, the quartiles and
the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  With ``--out`` it also writes the
summary as JSON, together with the git sha, the Python version and
``nproc``; ``baseline.json`` in this directory was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, text=True, capture_output=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["certify", "hunt", "pipeline"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]

    record = {"git_sha": git_sha(), "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "seconds": args.seconds,
              "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = summarise(runs)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary}
        print(f"{workload}: {len(runs)} runs, "
              f"{record['workloads'][workload]['failed']} failed ops")
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:36s} median {s['median']:14.6f} {s['unit']:6s} spread {spread}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
