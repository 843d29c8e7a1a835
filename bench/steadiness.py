"""Run-to-run spread of the end-to-end metrics, recorded for later changes.

    python3 bench/steadiness.py [--workload NAME ...] [--seeds 1 2 ...]
                                [--seconds S] [--write]

Runs ``run.py`` once per seed and workload (tracing off) and reports, for
each end-to-end metric, the median of the values and their spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  A later change whose effect on a metric is
smaller than this spread cannot be told from noise: report it as
unresolved, not as unchanged.  --write appends the set, with every raw
value, to bench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(101, 111)))
    p.add_argument("--seconds", type=float)
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": seconds, "seeds": args.seeds,
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed requests",
                      file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals),
                          "bound": bounds[name], "values": vals}
            print(f"{workload:22} {name:16} median {rows[name]['median']:10.4f} "
                  f"spread {rows[name]['spread']:.3f} (bound {bounds[name]}) "
                  f"{' '.join(f'{v:.4g}' for v in vals)}", flush=True)
        record["workloads"][workload] = rows
    if args.write:
        path = os.path.join(BENCH_DIR, "steadiness.json")
        sets = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                sets = json.load(fh)["sets"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"sets": sets + [record]}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
