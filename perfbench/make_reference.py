#!/usr/bin/env python3
"""Record the reference stdout digests the oracle compares against.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py``.

Runs one pass of every workload at the default seed, requires every op to
pass the oracle, and writes the sha256 of each prefrev op's stdout to
``reference.json``.  Run it only at a commit whose output is the
reference: prefrev's output is meant to stay byte-identical, so a later
change that alters it shows up as failed ops, not as a new reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import record
import run
import workloads


def main() -> int:
    workdir = run.ROOT / ".perfbench" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, run.DEFAULT_SEED, str(workdir))
            _, results = run.run_pass(
                ops, run.in_subprocess(workdir, workload, run.DEFAULT_SEED, None))
            for r in results:
                if r.error:
                    print(f"{workload}/{r.op.name}: {r.error}", file=sys.stderr)
                    return 1
                if not r.op.solver:
                    digests[f"{workload}/{r.op.name}"] = \
                        hashlib.sha256(r.stdout.encode()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps({"git_sha": record.git_sha(), "seed": run.DEFAULT_SEED,
                                         "digests": digests}, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"{len(digests)} digests written to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
