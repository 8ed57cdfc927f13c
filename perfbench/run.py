#!/usr/bin/env python3
"""prefrev benchmark: one workload, one seed, a closed loop of CLI runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify|hunt|pipeline \\
        --seed N --seconds 35 --trace 0|1

Each op is one ``prefrev`` CLI invocation (``python3 -m prefrev.cli`` with
``src`` on the path) or one run of ``tools/dpll_solve.py``, in a fresh
process, one at a time, from this single benchmark process (scans keep the
default ``--workers 1``).  A pass runs every op of the workload once;
passes repeat until ``--seconds`` would be exceeded (at least one pass).
Every op's output goes through the oracle (``oracle.py``), and an op that
fails it counts in ``failed``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (``tracing.py``).  The last line of stdout is
the JSON result; the lines before it list the metrics by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SOLVER = ROOT / "tools" / "dpll_solve.py"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0        # the seed the reference digests were recorded with
SETUP_REPEATS = 9       # set-up runs per benchmark run; setup_s is their median
OP_TIMEOUT_S = 150      # an op that hangs is killed and counts as failed
PROBE_LOOPS = 150_000   # size of the speed probe
PROBE_REF_S = 0.032     # the probe's time on an unloaded core of the defining machine

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "check_s": "s", "units_per_s": "1/s",
}


@dataclass
class OpResult:
    op: Op
    seconds: float          # wall time as measured
    code: int
    rss_kb: int
    stdout: str
    error: str | None
    units: int
    clauses: int
    scaled: float = 0.0     # wall time at the reference machine speed (see probe)


@dataclass
class Setup:
    ops: list[Op]
    setup_s: float
    startup_s: float


def probe() -> float:
    """Time a fixed pure-Python workload: the machine's speed right now.

    The benchmark shares its machine, whose speed drifts by tens of percent
    within a minute.  Every time the benchmark reports is scaled by
    ``PROBE_REF_S / probe time``, with the probe run right before and right
    after the timed work, so a reading is in seconds at the speed of an
    unloaded core and a machine-wide slowdown cancels out.  The probe uses
    no prefrev code, so a change to prefrev cannot move it.
    """
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(PROBE_LOOPS):
        key = (i % 97, (i * 7919) % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda item: (item[1], item[0]))
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S * 2 / (before + after)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def solver_command() -> str:
    return f"{sys.executable} {SOLVER}"


def command(op: Op) -> list[str]:
    if op.solver:
        return [sys.executable, str(SOLVER), *op.argv]
    argv = [solver_command() if arg == "{solver}" else arg for arg in op.argv]
    return [sys.executable, "-m", "prefrev.cli", *argv]


def spawn(argv: list[str], workdir: Path, stdout_path: Path) -> tuple[float, int, int]:
    """Run one process to completion: (seconds, exit code, peak RSS in KiB).

    ``os.wait4`` reaps the child and returns its resource usage, so the
    peak RSS is the child's own, not this process's.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss


def load_digests() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def judge(op: Op, code: int, stdout: str, seconds: float, rss_kb: int,
          workload: str, seed: int, digests: dict[str, str] | None) -> OpResult:
    """Run the oracle on one op's output, plus the reference digest check.

    Digests cover prefrev's stdout (not the solver's model) for ops whose
    output the seed does not change, and for every op at the default seed.
    """
    try:
        outcome = op.expect(code, stdout)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        # output the oracle cannot parse is a failed op, not a failed run
        outcome = oracle.Outcome(f"unparseable output: {exc!r}")
    error = outcome.error
    if error is None and digests is not None and not op.solver \
            and (seed == DEFAULT_SEED or not op.seeded_output):
        want = digests.get(f"{workload}/{op.name}")
        got = hashlib.sha256(stdout.encode()).hexdigest()
        if want is not None and got != want:
            error = "stdout differs from the reference digest"
    return OpResult(op, seconds, code, rss_kb, stdout, error,
                    outcome.units, outcome.clauses)


def in_subprocess(workdir: Path, workload: str, seed: int,
                  digests: dict[str, str] | None) -> Callable[[Op], OpResult]:
    """Executor that runs each op in a fresh process and judges its output."""
    def execute(op: Op) -> OpResult:
        out_path = workdir / (op.stdout_to or "op.stdout")
        seconds, code, rss_kb = spawn(command(op), workdir, out_path)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return judge(op, code, stdout, seconds, rss_kb, workload, seed, digests)
    return execute


def run_pass(ops: list[Op], execute: Callable[[Op], OpResult]
             ) -> tuple[float, list[OpResult]]:
    """Run every op once with ``execute``, probing the machine's speed between ops."""
    start = time.perf_counter()
    results, speed = [], probe()
    for op in ops:
        result = execute(op)
        before, speed = speed, probe()
        result.scaled = scale(result.seconds, before, speed)
        results.append(result)
    return time.perf_counter() - start, results


def setup(workload: str, seed: int, workdir: Path, *, tiny: bool = False) -> Setup:
    """Generate the seeded inputs and time a cold CLI start, several times.

    setup_s is the median of (input generation + one cold ``prefrev``
    start) over the repeats; startup_s is the median cold start alone.
    Both are scaled to the reference speed like every op time.
    """
    totals, starts = [], []
    speed = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build(workload, seed, str(workdir), tiny=tiny)
        generated = time.perf_counter() - start
        seconds, code, _ = spawn([sys.executable, "-m", "prefrev.cli", "--help"],
                                 workdir, workdir / "startup.stdout")
        if code != 0:
            raise SystemExit(f"prefrev does not start (exit {code})")
        before, speed = speed, probe()
        totals.append(scale(generated + seconds, before, speed))
        starts.append(scale(seconds, before, speed))
    return Setup(ops, statistics.median(totals), statistics.median(starts))


def group_seconds(passes: list[list[OpResult]], group: str) -> float:
    """Sum over the group's ops of each op's median time across passes."""
    return sum(statistics.median(p[i].scaled for p in passes)
               for i, r in enumerate(passes[0]) if group in r.op.groups())


def end_to_end(passes: list[list[OpResult]], setup_s: float) -> dict[str, float]:
    check_s = group_seconds(passes, "check")
    units = sum(r.units for r in passes[0] if "check" in r.op.groups())
    return {
        "wall_s": statistics.median(sum(r.scaled for r in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in p) for p in passes) / 1024,
        "check_s": check_s,
        "units_per_s": units / check_s if check_s else 0.0,
    }


def kind_metrics(passes: list[list[OpResult]]) -> dict[str, tuple[float, str]]:
    """Time per op kind, and the failure ratio.

    These are printed but left out of the JSON result: each is zero on a
    workload without that kind of op, and a zero median has no spread.
    """
    encode_s = group_seconds(passes, "encode")
    clauses = sum(r.clauses for r in passes[0])
    results = [r for p in passes for r in p]
    return {
        "encode_s": (encode_s, "s"),
        "solve_s": (group_seconds(passes, "solve"), "s"),
        "verify_s": (group_seconds(passes, "verify"), "s"),
        "clauses_per_s": (clauses / encode_s if encode_s else 0.0, "1/s"),
        "fail_ratio": (sum(1 for r in results if r.error) / len(results), "ratio"),
    }


def report(failures: list[OpResult], attempted: int,
           metrics: dict[str, tuple[float, str]],
           printed: dict[str, tuple[float, str]]) -> dict:
    for r in failures:
        print(f"FAILED {r.op.name}: {r.error}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "prefrev" / "cli.py", SOLVER) if not p.is_file()]
    if missing:
        print(f"error: not a prefrev checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir, scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args, workdir: Path, scratch: Path) -> dict:
    digests = load_digests()
    prepared = setup(args.workload, args.seed, workdir)
    if args.trace:
        import tracing
        return tracing.traced_run(args.workload, args.seed, prepared, workdir,
                                scratch, digests)

    execute = in_subprocess(workdir, args.workload, args.seed, digests)
    begin = time.perf_counter()
    passes = []
    while True:
        wall, results = run_pass(prepared.ops, execute)
        passes.append(results)
        if time.perf_counter() - begin + wall > args.seconds:
            break
    metrics = end_to_end(passes, prepared.setup_s)
    failures = [r for p in passes for r in p if r.error]
    return report(failures, sum(len(p) for p in passes),
                  {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()},
                  kind_metrics(passes))


if __name__ == "__main__":
    sys.exit(main())
