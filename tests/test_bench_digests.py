"""Every benchmark request prints the bytes recorded in bench/digests.json.

Pass 0 of seed 1 of each workload runs through cli.main in this process, so
drift in CLI output fails here and not only in the benchmark.  The cube files
of the --polytope-file requests are written to a temporary directory and
looked up under the keys the benchmark records (bench/out/cubeN.json).  The
benchmark's own checks (checks.failed_requests) then run over the outputs,
so the polygon cross-counts and the diag/entry fingerprint agreement are
checked here too.  Every request of passes 0-1 of seeds 1-3 parses by the
CLI's plain reader, with no argparse parser built.  Only reads bench/.
"""

import argparse
import contextlib
import io
import json
import os
import sys

import pytest

from weightpoly import cli
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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_request_parses_with_no_argparse_parser(workload, monkeypatch):
    argvs = [argv for seed in (1, 2, 3) for pass_index in (0, 1)
             for argv in workloads.requests(workload, seed, pass_index, RECORDED_OUT_DIR)]
    assert argvs

    def refused(*args, **kwargs):
        raise AssertionError("an ArgumentParser was built")
    with monkeypatch.context() as patched:
        patched.setattr(argparse.ArgumentParser, "__init__", refused)
        parsed = [cli._plain_parse(argv) for argv in argvs]
    for argv, args in zip(argvs, parsed):
        assert args is not None and args == cli.build_parser().parse_args(argv), argv
