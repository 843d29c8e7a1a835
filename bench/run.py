"""weightpoly benchmark: closed loop, one client, three seeded request mixes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, a table

A run issues ``round(S / NOMINAL_PASS_S[workload])`` passes, and at least
enough for MIN_REQUESTS requests, one after another.  Pass k is a fresh
``bench/worker.py`` process issuing the seeded list
``workloads.requests(workload, seed, k)``, so the program's caches start
empty in every pass and fill only from that pass's requests.
The pass count depends on S alone, so one seed and one S issue the same
requests, unless the host runs more than SLOW_HOST_FACTOR slower than the
nominal pass times: then the run ends early to stay bounded in time.

--trace 0 reports the end-to-end metrics, timed with tracing off.  Times are
calibrated (bench/calibrate.py): each is scaled by the host speed measured
around it, so they read as wall times on the reference host and the shared
host's drift in speed cancels.
  setup_s          median over at least SETUP_SAMPLES fresh workers of the
                   time from spawn to the first request (interpreter start,
                   import weightpoly, request generation);
  requests_per_s   requests issued / summed time of the requests;
  latency_p50_ms,  percentiles of the time of every request of the run;
  latency_p90_ms
  peak_rss_mb      median over the passes of the worker's ru_maxrss.
The error rate is failed / attempted from the result's own fields; any
failure makes the run incorrect.  --workload all prints it as error_rate.
--trace 1 runs half as many passes, each untraced and then traced, checks
that both give the same stdout bytes, and reports the per-layer metrics of
the traced passes (sums over passes) plus trace.overhead_ratio, the traced
passes' calibrated request time over the untraced passes'.  Spans are written to bench/out/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from calibrate import calibrated, calibrated_setup  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, requests  # noqa: E402

# Seconds one pass takes on the reference machine (2 shared cores, Python
# 3.11); sets how many passes fill a run of --seconds.
NOMINAL_PASS_S = {
    "polygon-session": 7.5,
    "count-identity": 3.0,
    "duality-fingerprint": 7.0,
}
# The p90 latency needs at least ten samples beyond it.
MIN_REQUESTS = 100
# setup_s is the median over this many fresh-process set-ups at least.
SETUP_SAMPLES = 25
# On a host this much slower than the nominal pass times, a run stops
# starting passes once it has MIN_REQUESTS, so its length stays bounded.
SLOW_HOST_FACTOR = 1.25
# A run must end within 180 s; stop waiting for workers well before that.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "polytopes.v_to_h.s": "s",
    "polytopes.v_to_h.calls": "count",
    "polytopes.v_to_h.rows_in": "count",
    "polytopes.v_to_h.facets_out": "count",
    "polytopes.v_to_h.cache_hit_ratio": "ratio",
    "polytopes.h_to_v.s": "s",
    "polytopes.h_to_v.calls": "count",
    "polytopes.h_to_v.vertices_out": "count",
    "polytopes.h_to_v.cache_hit_ratio": "ratio",
    "polytopes.remove_redundant.s": "s",
    "polytopes.vertex_graph.s": "s",
    "polytopes.vertex_graph.pairs": "count",
    "polytopes.vertex_graph.cache_hit_ratio": "ratio",
    "exact.rank.s": "s",
    "exact.rank.calls": "count",
    "polytopes.lattice_points.s": "s",
    "polytopes.lattice_points.calls": "count",
    "polytopes.lattice_points.points": "count",
    "counting.weight_multiplicity.s": "s",
    "counting.weight_multiplicity.calls": "count",
    "counting.ehrhart_fit.s": "s",
    "polytopes.canonical_incidence.s": "s",
    "polytopes.canonical_incidence.calls": "count",
    "toric.normal_fan.s": "s",
    "toric.singularity_report.s": "s",
    "toric.facet_labels.s": "s",
    "exact.lattice_index.s": "s",
    "builders.self_s": "s",
    "reference.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "exact.self_s": "s",
    "polytopes.self_s": "s",
    "toric.self_s": "s",
    "counting.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metric name -> traced function, for the metrics named after a function.
_FUNCTION_OF = {"polytopes.vertex_graph": "polytopes._vertex_graph"}
# Metric suffix -> index into the tracer's per-function counts.
_COUNT_FIELD = {"calls": 0, "rows_in": 1, "pairs": 1, "vertices_out": 2,
                "facets_out": 2, "points": 2}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed request)."""


def passes_for(workload: str, seconds: float) -> int:
    per_pass = len(requests(workload, DEFAULT_SEED, 0, ""))
    return max(round(seconds / NOMINAL_PASS_S[workload]), -(-MIN_REQUESTS // per_pass))


def _spawn(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("run deadline passed")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args,
           "--spawned-at", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"worker printed no result: {proc.stderr.strip()}") from None


def run_pass(workload: str, seed: int, k: int, deadline: float,
             traced: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--pass", str(k)]
    if traced:
        args += ["--trace", os.path.join(OUT_DIR, f"spans-{workload}-{k}.tsv")]
    return _spawn(args, deadline)


def run_passes(workload: str, seed: int, passes: int, deadline: float,
               budget_s: float | None = None) -> list[dict]:
    """Passes 0..passes-1.  With budget_s, stop before a pass that would end
    after budget_s at the mean pass time so far, once MIN_REQUESTS are in."""
    start = time.monotonic()
    results = []
    for k in range(passes):
        if (budget_s is not None and k > 0
                and (time.monotonic() - start) * (k + 1) / k > budget_s
                and sum(len(r["requests"]) for r in results) >= MIN_REQUESTS):
            break
        results.append(run_pass(workload, seed, k, deadline))
    return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _loop_s(r: dict) -> float:
    return sum(calibrated(r["latencies"], r["cal"]))


def end_to_end(workload: str, seed: int, runs: list[dict], deadline: float) -> dict:
    setups = [calibrated_setup(r["setup_s"], r["cal"]) for r in runs]
    for k in range(SETUP_SAMPLES - len(setups)):
        r = _spawn(["--workload", workload, "--seed", str(seed), "--pass", str(k),
                    "--setup-only"], deadline)
        setups.append(calibrated_setup(r["setup_s"], r["cal"]))
    latencies = [x for r in runs for x in calibrated(r["latencies"], r["cal"])]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(latencies) / sum(_loop_s(r) for r in runs),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    summary: dict[str, float] = {}
    counts: dict[str, list[int]] = {}
    cache: dict[str, list[int]] = {}
    for r in traced:
        for key, value in r["summary"].items():
            summary[key] = summary.get(key, 0.0) + value
        for key, value in r["counts"].items():
            acc = counts.setdefault(key, [0, 0, 0])
            for i, v in enumerate(value):
                acc[i] += v
        for key, (hits, misses) in r["cache"].items():
            acc = cache.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = (sum(_loop_s(r) for r in traced)
                            / sum(_loop_s(r) for r in plain))
        elif name == "cli.output_bytes":
            values[name] = sum(r["output_bytes"] for r in traced)
        elif name.endswith(".self_s"):
            values[name] = summary[name]
        else:
            base, field = name.rsplit(".", 1)
            func = _FUNCTION_OF.get(base, base)
            if field == "s":
                values[name] = summary.get(func + ".s", 0.0)
            elif field == "cache_hit_ratio":
                hits, misses = cache[func]
                values[name] = hits / (hits + misses) if hits + misses else 0.0
            else:
                values[name] = counts.get(func, [0, 0, 0])[_COUNT_FIELD[field]]
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    passes = passes_for(workload, seconds)
    if trace:
        # Half the passes, each run untraced and then traced right after, so
        # the run lasts about as long and the pair sees the same host load.
        pairs = [(run_pass(workload, seed, k, deadline),
                  run_pass(workload, seed, k, deadline, traced=True))
                 for k in range(-(-passes // 2))]
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
    else:
        plain = run_passes(workload, seed, passes, deadline,
                           budget_s=SLOW_HOST_FACTOR * passes * NOMINAL_PASS_S[workload])
    failures = {(k, int(i)): reason for k, r in enumerate(plain)
                for i, reason in r["failed"].items()}
    if trace:
        for k, (p, t) in enumerate(zip(plain, traced)):
            for i, (a, b) in enumerate(zip(p["digests"], t["digests"])):
                if a != b:
                    failures.setdefault((k, i), "traced stdout differs")
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(workload, seed, plain, deadline)
    for (k, i), reason in sorted(failures.items()):
        print(f"FAILED {workload} pass {k}: {plain[k]['requests'][i]}: {reason}",
              file=sys.stderr)
    attempted = sum(len(r["requests"]) for r in plain)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "weightpoly", "cli.py")):
        print(f"no weightpoly sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        table = {}
        for workload in WORKLOADS:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
            result["metrics"]["error_rate"] = _metric(
                result["failed"] / result["attempted"], "ratio")
            for name, m in result["metrics"].items():
                print(f"{workload:22} {name:40} {m['value']:14.6g} {m['unit']}")
            table[workload] = result
        print(json.dumps(table))
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
