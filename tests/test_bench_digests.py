"""Every benchmark request prints the bytes recorded in bench/digests.json.

Pass 0 of seed 1 of each workload runs through cli.main in this process, so
drift in CLI output fails here and not only in the benchmark.  Only reads
bench/; the --polytope-file cube requests are skipped, since the benchmark
writes their files at run time.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from weightpoly.cli import main

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    import checks
    import workloads
finally:
    sys.path.remove(BENCH_DIR)

with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
    DIGESTS = json.load(fh)["requests"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_zero_of_every_workload_matches_the_recorded_digests(workload):
    argvs = [argv for argv in workloads.requests(workload, workloads.DEFAULT_SEED, 0, "unused")
             if "--polytope-file" not in argv]
    assert argvs
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        assert checks.digest(out.getvalue()) == DIGESTS[workload][checks.request_key(argv)], argv
