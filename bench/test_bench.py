"""Tests of the benchmark itself:  python3 -m pytest -q bench

The request-validity test runs every pass of a default run for two seeds and
takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Every metric named by the benchmark's definition, with its unit.
NAMED_END_TO_END = {"setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
NAMED_PER_LAYER = [
    "polytopes.v_to_h.s", "polytopes.v_to_h.calls", "polytopes.v_to_h.rows_in",
    "polytopes.v_to_h.facets_out", "polytopes.v_to_h.cache_hit_ratio",
    "polytopes.h_to_v.s", "polytopes.h_to_v.calls", "polytopes.h_to_v.vertices_out",
    "polytopes.h_to_v.cache_hit_ratio", "polytopes.remove_redundant.s",
    "polytopes.vertex_graph.s", "polytopes.vertex_graph.pairs",
    "polytopes.vertex_graph.cache_hit_ratio", "exact.rank.s", "exact.rank.calls",
    "polytopes.lattice_points.s", "polytopes.lattice_points.calls",
    "polytopes.lattice_points.points", "counting.weight_multiplicity.s",
    "counting.weight_multiplicity.calls", "counting.ehrhart_fit.s",
    "polytopes.canonical_incidence.s", "polytopes.canonical_incidence.calls",
    "toric.normal_fan.s", "toric.singularity_report.s", "toric.facet_labels.s",
    "exact.lattice_index.s", "builders.self_s", "reference.self_s", "cli.self_s",
    "cli.output_bytes", "exact.self_s", "polytopes.self_s", "toric.self_s",
    "counting.self_s", "trace.overhead_ratio",
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_requests(workload):
    for k in range(3):
        first = workloads.requests(workload, 7, k, "out")
        assert first == workloads.requests(workload, 7, k, "out")
        assert first != workloads.requests(workload, 8, k, "out")


def test_every_run_has_enough_requests_for_p90():
    for workload in workloads.WORKLOADS:
        passes = run.passes_for(workload, SPEC["run_seconds"])
        per_pass = len(workloads.requests(workload, 1, 0, "out"))
        assert passes * per_pass >= run.MIN_REQUESTS
        assert run.passes_for(workload, 0.01) * per_pass >= run.MIN_REQUESTS


@pytest.mark.parametrize("per_pass, expected", [(60, 2), (30, 4)])
def test_a_slow_host_ends_the_run_early_once_p90_has_its_samples(
        monkeypatch, per_pass, expected):
    clock = [0.0]

    def fake_spawn(args, deadline):
        clock[0] += 10.0
        return {"requests": ["r"] * per_pass}

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    assert len(run.run_passes("count-identity", 1, 5, 1e9, budget_s=25.0)) == expected
    assert len(run.run_passes("count-identity", 1, 5, 1e9)) == 5


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_passes(workload, seed):
    passes = run.passes_for(workload, SPEC["run_seconds"])
    results = run.run_passes(workload, seed, passes, time.monotonic() + 600)
    assert [r["failed"] for r in results] == [{}] * passes


def test_traced_stdout_is_byte_identical_and_intra_module_calls_are_seen():
    deadline = time.monotonic() + 300
    plain = [run.run_pass("polygon-session", 3, 0, deadline)]
    traced = [run.run_pass("polygon-session", 3, 0, deadline, traced=True)]
    assert plain[0]["digests"] == traced[0]["digests"]
    assert traced[0]["failed"] == {}
    # v_to_h is only reached from remove_redundant, inside polytopes.
    assert traced[0]["counts"]["polytopes.v_to_h"][0] > 0
    layer = run.per_layer(plain, traced)
    assert layer["polytopes.v_to_h.cache_hit_ratio"]["value"] > 0
    assert layer["polytopes.lattice_points.calls"]["value"] == 0


def test_checks_flag_exit_codes_digest_drift_and_disagreeing_displays():
    r = ["--m", "1", "--r", "3,3,3,3,3", "--format", "json"]
    argvs = [[cmd, *r] for cmd in workloads.POLYGON_COMMANDS]
    docs = {"vertices": {"vertices": [[0], [1]]}, "polytope": {"ineqs": [1, 2]},
            "fan": {"cones": [1, 2]}, "singular": {"vertices": [1, 2]},
            "facets": {"facets": [1, 2]}}
    outputs = [json.dumps(docs[a[0]]) for a in argvs]
    ok = checks.failed_requests("polygon-session", argvs, [0] * 5, outputs, {})
    assert ok == {}
    docs["fan"]["cones"] = [1]
    outputs = [json.dumps(docs[a[0]]) for a in argvs]
    assert sorted(checks.failed_requests("polygon-session", argvs, [0] * 5, outputs, {})) \
        == [0, 1, 2, 3, 4]
    expected = {checks.request_key(argvs[0]): checks.digest("other")}
    failed = checks.failed_requests("count-identity", argvs, [0, 1, 0, 0, 0], outputs,
                                    expected)
    assert failed == {0: "stdout differs from the recorded digest", 1: "exit 1"}


def _span_tree():
    # cli.main [0,10] -> polytopes.h_to_v [1,4] -> exact.rank [2,3]
    #                 -> polytopes.v_to_h [5,9] -> polytopes.v_to_h [6,8]
    names = ["cli.main", "polytopes.h_to_v", "exact.rank", "polytopes.v_to_h",
             "polytopes.v_to_h"]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    return names, start, end, parent


def test_self_time_arithmetic_on_a_hand_built_tree():
    names, start, end, parent = _span_tree()
    assert list(tracing.self_times(start, end, parent)) == [3.0, 2.0, 1.0, 2.0, 2.0]
    summary = tracing.summarize(names, start, end, parent)
    assert summary["cli.self_s"] == 3.0
    assert summary["polytopes.self_s"] == 6.0
    assert summary["exact.self_s"] == 1.0
    assert summary["builders.self_s"] == 0.0
    # Inclusive time counts the outer v_to_h span only.
    assert summary["polytopes.v_to_h.s"] == 4.0
    assert summary["polytopes.h_to_v.s"] == 3.0
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == 10.0


def test_tracer_records_nested_spans_and_restores_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from weightpoly import cli, polytopes
    original = polytopes.v_to_h
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polytopes.v_to_h is not original
        assert cli.main(["polytope", "--m", "1", "--r", "3,3,3,3,3"]) == 0
    finally:
        tracer.uninstall()
    assert polytopes.v_to_h is original
    names = tracer.span_names()
    assert names[0] == "cli.main"
    assert "polytopes.remove_redundant" in names and "polytopes.v_to_h" in names
    summary = tracing.summarize(names, tracer.start, tracer.end, tracer.parent)
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(v for k, v in summary.items() if k.endswith(".self_s")) - total) < 1e-9


def _fake_pass(loop_s: float) -> dict:
    return {
        "setup_s": 0.1, "latencies": [loop_s / 20] * 20,
        "cal": [calibrate.REFERENCE_S] * 21,
        "rss_kb": 20480, "requests": ["r"] * 20, "digests": ["d"] * 20,
        "output_bytes": 100, "failed": {},
        "summary": {f"{m}.self_s": 0.5 for m in tracing.MODULES},
        "counts": {f"{m}.{f}": [2, 5, 7] for m, fs in tracing.TRACED.items()
                   for f in fs},
        "cache": {name: (3, 1) for name in tracing.CACHED},
    }


def test_calibration_cancels_a_host_that_slows_down_mid_pass():
    ref = calibrate.REFERENCE_S
    work = [0.010, 0.200, 0.050, 0.010, 0.300, 0.020]
    # The host runs at full speed for the first three requests and at half
    # speed for the rest; the calibration samples slow down with it.
    slow = [1, 1, 1, 2, 2, 2]
    latencies = [t * s for t, s in zip(work, slow)]
    cal = [ref * s for s in [1, 1, 1, 2, 2, 2, 2]]
    got = calibrate.calibrated(latencies, cal)
    assert got[:2] == work[:2] and got[4:] == work[4:]
    assert calibrate.calibrated_setup(0.3, [2 * ref] * 3 + [ref] * 10) == 0.15
    # The kernel's work is fixed: same result, same operations, every commit.
    assert calibrate.kernel() == 189430


def test_every_named_metric_is_emitted_with_its_unit():
    runs = [_fake_pass(2.0) for _ in range(run.SETUP_SAMPLES)]
    e2e = run.end_to_end("count-identity", 1, runs, time.monotonic() + 60)
    assert {k: v["unit"] for k, v in e2e.items()} == NAMED_END_TO_END
    assert e2e["requests_per_s"]["value"] == pytest.approx(10.0)
    layer = run.per_layer(runs, [_fake_pass(3.0) for _ in runs])
    assert sorted(layer) == sorted(NAMED_PER_LAYER)
    assert layer["trace.overhead_ratio"]["value"] == pytest.approx(1.5)
    assert layer["polytopes.v_to_h.cache_hit_ratio"]["value"] == 0.75
    assert layer["polytopes.v_to_h.rows_in"]["value"] == 5 * len(runs)
    spec_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert spec_units == {**{k: v["unit"] for k, v in e2e.items()},
                          **{k: v["unit"] for k, v in layer.items()}}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
