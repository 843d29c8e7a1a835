"""Every benchmark request prints the bytes recorded in bench/digests.json.

Pass 0 of seed 1 of each workload runs through cli.main in this process, so
drift in CLI output fails here and not only in the benchmark.  The cube files
of the --polytope-file requests are written to a temporary directory and
looked up under the keys the benchmark records (bench/out/cubeN.json).  The
benchmark's own checks (checks.failed_requests) then run over the outputs,
so the polygon cross-counts and the diag/entry fingerprint agreement are
checked here too.  Only reads bench/.
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

RECORDED_OUT_DIR = os.path.join("bench", "out")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_zero_of_every_workload_matches_the_recorded_digests(workload, tmp_path):
    workloads.write_cube_files(str(tmp_path))
    argvs = workloads.requests(workload, workloads.DEFAULT_SEED, 0, str(tmp_path))
    recorded = workloads.requests(workload, workloads.DEFAULT_SEED, 0, RECORDED_OUT_DIR)
    assert argvs
    codes, outputs = [], []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(argv))
        outputs.append(out.getvalue())
    expected = DIGESTS[workload]
    for argv, key_argv, code, out in zip(argvs, recorded, codes, outputs):
        assert code == 0, argv
        assert checks.digest(out) == expected[checks.request_key(key_argv)], argv
    assert checks.failed_requests(workload, recorded, codes, outputs, expected) == {}
