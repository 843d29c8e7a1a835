"""Record the sha256 of every request's stdout for the default seed.

    python3 bench/record_digests.py

Runs every pass a default run of each workload makes (seed DEFAULT_SEED,
run_seconds from BENCHMARK.json) and writes bench/digests.json, keyed by the
request's argv.  Workers compare each request they issue against this table,
whatever the seed, so any drift in CLI output counts as a failed request.
Re-record only for a change that is meant to alter CLI output.
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from run import ROOT, RUN_DEADLINE_S, passes_for, run_passes  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _write(table: dict) -> None:
    with open(os.path.join(BENCH_DIR, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "requests": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    _write({})  # workers must not judge the new outputs by the old table
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_DEADLINE_S
        passes = run_passes(workload, DEFAULT_SEED, passes_for(workload, seconds), deadline)
        for r in passes:
            if r["failed"]:
                print(f"{workload}: failed requests {r['failed']}", file=sys.stderr)
                return 1
        table[workload] = {key: d for r in passes for key, d in zip(r["requests"], r["digests"])}
    _write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
