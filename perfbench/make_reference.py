"""Rewrite reference.json from the program as it stands.

    python3 perfbench/make_reference.py

Runs every job of every workload once (all eight corrupt indices for
``verify-corrupt``) and records its exit code and normalized output hash.
Only a change that alters the program's outputs on purpose should run this.
"""

import json
import sys

from run import REFERENCE, RUN_LIMIT_S, WORKLOADS, fingerprint, now, spawn, workload_round


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        for job in workload_round(workload, seed=0):
            deadline = now() + RUN_LIMIT_S
            stats, output = spawn(job.args, deadline)
            if stats["exit_code"] is None:
                print(f"{job.key}: timed out", file=sys.stderr)
                return 1
            reference[job.key] = {"exit": stats["exit_code"], "sha256": fingerprint(job, output)}
            print(job.key, reference[job.key], file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
