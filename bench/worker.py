"""One pass of a workload, in a fresh process: the unit run.py times.

    python3 bench/worker.py --workload NAME --seed N --pass K --spawned-at NS
                            [--trace SPANS_PATH] [--setup-only]

Imports weightpoly from the checkout's src/ (never from an installed copy),
generates the pass's requests, then issues them in order through
``weightpoly.cli.main(argv)`` in this process, capturing stdout.  The caches
start empty because the process is new; nothing here clears or warms them.
Times the calibration kernel before every request and after the last one.
Prints one JSON object with the timings, per-request digests, failures and,
with --trace, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _import_cli():
    sys.path.insert(0, SRC)
    try:
        import weightpoly.cli
    except ImportError as exc:
        sys.exit(f"cannot import weightpoly from {SRC}: {exc}")
    if not os.path.abspath(weightpoly.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"weightpoly was imported from {weightpoly.cli.__file__}, not {SRC}")
    return weightpoly.cli


def _issue(main, argv: list[str]) -> tuple[object, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--spawned-at", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before spawning")
    p.add_argument("--trace", help="write spans here and report per-layer aggregates")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cli = _import_cli()
    import calibrate
    import checks
    import workloads

    os.chdir(ROOT)
    out_rel = os.path.relpath(OUT_DIR, ROOT)
    if args.workload == "duality-fingerprint":
        workloads.write_cube_files(out_rel)
    argvs = workloads.requests(args.workload, args.seed, args.pass_index, out_rel)
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    if args.setup_only:
        cal = [calibrate.sample() for _ in range(calibrate.SETUP_SAMPLES)]
        print(json.dumps({"setup_s": setup_s, "cal": cal}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, summarize
        tracer = Tracer()
        tracer.install()

    latencies, codes, outputs, cal = [], [], [], []
    clock = time.perf_counter
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.current_request = i
        cal.append(calibrate.sample())
        t0 = clock()
        code, out = _issue(cli.main, argv)
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(out)
    cal.append(calibrate.sample())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["requests"].get(args.workload, {})
    failed = checks.failed_requests(args.workload, argvs, codes, outputs, expected)
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "cal": cal,
        "rss_kb": rss_kb,
        "requests": [checks.request_key(a) for a in argvs],
        "digests": [checks.digest(o) for o in outputs],
        "output_bytes": sum(len(o.encode("utf-8")) for o in outputs),
        "failed": {str(i): reason for i, reason in sorted(failed.items())},
    }
    if tracer is not None:
        result["summary"] = summarize(tracer.span_names(), tracer.start,
                                      tracer.end, tracer.parent)
        result["counts"] = tracer.counts
        result["cache"] = tracer.cache_counts()
        tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
