#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (m=3, n<=3, small proofs).

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
(exit 0 when every check holds; it takes well under a minute).

It runs every workload's op kinds at tiny sizes, untraced and traced, and
checks that every op passes the oracle and that the metric names and
units are exactly those ``BENCHMARK.json`` declares.  It then feeds the
oracle a tampered witness, wrong verdicts and a changed stdout, and
checks that each counts as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

import oracle
import run
import tracing
import workloads

SEED = 3


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def declared_units(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def units_of(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_runs(workdir) -> dict:
    """Every tiny op passes, untraced and traced, with the declared metrics."""
    results = {}
    for workload in workloads.WORKLOADS:
        prepared = run.setup(workload, SEED, workdir, tiny=True)
        _, ops = run.run_pass(prepared.ops, run.in_subprocess(workdir, workload, SEED, None))
        failed = [f"{r.op.name}: {r.error}" for r in ops if r.error]
        require(not failed, f"{workload} ops failed: {failed}")
        metrics = run.end_to_end([ops], prepared.setup_s)
        require(set(metrics) == set(run.END_TO_END_UNITS),
                f"{workload} end-to-end metrics {sorted(metrics)}")
        require(run.END_TO_END_UNITS == declared_units("end_to_end"),
                "end-to-end names or units differ from BENCHMARK.json")
        require(all(v > 0 for v in metrics.values()), f"{workload}: a zero metric")

        with contextlib.redirect_stdout(io.StringIO()):
            traced = tracing.traced_run(workload, SEED, prepared, workdir,
                                        workdir, None)
        require(traced["failed"] == 0, f"{workload} traced ops failed")
        require(units_of(traced) == declared_units("per_layer"),
                f"{workload} per-layer names or units differ from BENCHMARK.json")
        require(traced["metrics"]["trace.missing_names"]["value"] == 0,
                f"{workload}: a traced name is missing")
        results[workload] = ops
    return results


def check_oracle(results: dict, workdir) -> None:
    """Tampered witnesses and wrong verdicts count as failed ops."""
    witness_op = next(r for r in results["hunt"] if r.op.name.startswith("hwm-table"))
    lines = witness_op.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("witness: "))
    witness = json.loads(lines[at][len("witness: "):])

    table_path = witness_op.op.argv[witness_op.op.argv.index("--table") + 1]
    with open(workdir / table_path, encoding="utf-8") as handle:
        m = int(re.search(r"m=(\d+)", handle.readline()).group(1))
        table = [oracle.labels(m).index(line.strip().rsplit(",", 1)[1]) for line in handle]
    rule = oracle.table_rule(table, m)
    _, unit = oracle.reversal_witness(witness, rule, strong=False)
    require(oracle.expect_witness("hwm", rule, expected_unit=unit)(
        1, witness_op.stdout).error is None, "the planted witness failed its re-check")
    require(oracle.expect_witness("hwm", rule, expected_unit=unit + 1)(
        1, witness_op.stdout).error is not None, "a witness off the planted one passed")
    others = [x for x in "abc" if x != witness["winner_after"]]
    for field, value in (("winner_after", others[0]),
                         ("voter", (witness["voter"] + 1) % 3)):
        tampered = dict(witness, **{field: value})
        text = "\n".join(lines[:at] + ["witness: " + json.dumps(tampered)]
                         + lines[at + 1:])
        require(witness_op.op.expect(1, text).error is not None,
                f"a witness with a changed {field} passed the oracle")

    garbled = run.judge(witness_op.op, 1, "result: violation\nwitness: {\n", 0.0, 0,
                        "hunt", SEED, None)
    require(garbled.error is not None, "a garbled witness passed")

    certify = results["certify"][0]
    require(certify.op.expect(1, certify.stdout).error is not None,
            "a certificate with exit code 1 passed")
    require(certify.op.expect(0, witness_op.stdout).error is not None,
            "a violation reported as a certificate passed")
    require(witness_op.op.expect(0, certify.stdout).error is not None,
            "a certificate where a witness was planted passed")

    by_kind = {r.op.kind: r for r in results["pipeline"]}
    encode = by_kind[workloads.ENCODE]
    fewer = re.sub(r"^clauses: (\d+)", lambda mt: f"clauses: {int(mt.group(1)) - 1}",
                   encode.stdout, flags=re.M)
    require(encode.op.expect(0, fewer).error is not None, "a changed clause count passed")
    solve = by_kind[workloads.SOLVE]
    require(solve.op.expect(20, "s UNSATISFIABLE\n").error is not None,
            "UNSAT where SAT was expected passed")

    digests = {f"certify/{certify.op.name}": "0" * 64}
    judged = run.judge(certify.op, certify.code, certify.stdout, 0.0, 0,
                       "certify", run.DEFAULT_SEED, digests)
    require(judged.error is not None, "stdout differing from its digest passed")


def main() -> int:
    workdir = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_oracle(check_runs(workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
