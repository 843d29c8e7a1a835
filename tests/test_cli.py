import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from weightpoly import cli, counting, polytopes, reference, toric
from weightpoly.builders import GTSpec, SideData, gt_hrep, polygon_hrep
from weightpoly.cli import build_parser, main
from weightpoly.polytopes import (_incidence, _scan_setup, combinatorial_fingerprint,
                                  h_to_v, remove_redundant, restrict_to_affine_hull,
                                  v_to_h)
from weightpoly.toric import normal_fan
from caches import clear_caches

PENTAGON = ["--m", "1", "--r", "3,3,3,3,3"]
HEXAGON = ["--m", "1", "--r", "3,3,3,3,4"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vertices_text_pentagon(capsys):
    code, out, _ = run(capsys, ["vertices"] + PENTAGON)
    assert code == 0
    assert out.splitlines() == ["(0, 3)", "(3, 0)", "(3, 6)", "(6, 3)", "(6, 6)"]


def test_vertices_json_matches_library(capsys):
    code, out, _ = run(capsys, ["vertices", "--format", "json"] + PENTAGON)
    assert code == 0
    expected = h_to_v(polygon_hrep(SideData.from_weights(1, (3, 3, 3, 3, 3))))
    assert json.loads(out) == expected.to_json_dict()


def test_facets_text_frozen(capsys):
    code, out, _ = run(capsys, ["facets"] + PENTAGON)
    assert code == 0
    assert sorted(out.splitlines()) == sorted([
        "N1(2): 1,0 <= 6",
        "N3(3): 1,-1 <= 3",
        "N1(3): -1,1 <= 3",
        "N2(3): -1,-1 <= -3",
        "N3(4): 0,1 <= 6",
    ])


def test_polytope_entry_chart(capsys):
    code, out, _ = run(capsys, ["polytope", "--chart", "entry"] + HEXAGON)
    assert code == 0
    assert out.splitlines()[0] == "dim: 2"


def test_ehrhart_default_entry_chart(capsys):
    code, out, _ = run(capsys, ["ehrhart"] + HEXAGON)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counts: 1,11,33,67,113,171,241"
    assert "mode: polynomial" in lines


def test_mult_and_fibers(capsys):
    code, out, _ = run(capsys, ["mult"] + HEXAGON)
    assert (code, out.strip()) == (0, "11")
    code, out, _ = run(capsys, ["fibers", "--m", "1", "--n", "6"])
    assert (code, out.strip()) == (0, "8")


def test_fibers_refuses_a_size_past_the_int_to_str_limit_before_computing_it(
        capsys, monkeypatch):
    # 2**e has at most 4300 digits exactly for e <= 14284; for m=1, e = n - 3.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, ["fibers", "--m", "1", "--n", "14287"])
        assert code == 0 and len(out.strip()) == 4300
        code, out, err = run(capsys, ["fibers", "--m", "1", "--n", "15000"])
        assert (code, out, err) == (
            2, "", "error: fiber size 2^14997 has more than 4300 decimal digits\n")

        def never(m, n):
            raise AssertionError("the fiber size must not be computed")

        monkeypatch.setattr(cli, "real_fiber_size", never)
        code, out, err = run(capsys, ["fibers", "--m", "1", "--n", "1000000"])
        assert (code, out) == (2, "") and err.startswith("error: fiber size 2^999997 has")
    finally:
        sys.set_int_max_str_digits(limit)


def test_mult_m3_at_dilate_four(capsys):
    code, out, _ = run(capsys, ["mult", "--m", "3", "--r", "4,4,4,4,4,4,4", "--dilate", "4"])
    assert (code, out) == (0, "145041\n")


def test_verify_identity_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify-identity"] + HEXAGON)
    assert code == 0
    assert out.splitlines()[-1] == "all pass"


def test_verify_identity_with_no_integral_dilate_exits_2(capsys):
    code, out, err = run(capsys, ["verify-identity", "--m", "1", "--r", "1/3,1/3,1/3,1/3",
                                  "--t-max", "2"])
    assert (code, out) == (2, "")
    assert err == ("error: no dilate t in 1..2 makes t*P and every t*r_i integral; "
                   "the least such t is 3\n")


def test_verify_identity_after_ehrhart_reuses_every_count(capsys):
    clear_caches()
    assert run(capsys, ["ehrhart", "--t-max", "3"] + HEXAGON)[0] == 0
    setup, counts = _scan_setup.cache_info(), polytopes.count_lattice_points.cache_info()
    code, out, _ = run(capsys, ["verify-identity", "--t-max", "3"] + HEXAGON)
    assert code == 0 and out.splitlines()[-1] == "all pass"
    assert _scan_setup.cache_info().misses == setup.misses
    after = polytopes.count_lattice_points.cache_info()
    assert (after.misses, after.hits) == (counts.misses, counts.hits + 3)


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(polytopes.__file__))
    env = {**os.environ, "PYTHONPATH": src}  # the package imports only the standard library
    done = subprocess.run([sys.executable, "-m", "weightpoly", "fibers", "--m", "1", "--n", "5"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "4\n", "")


def test_a_reader_that_closes_the_pipe_early_gets_exit_141_and_no_traceback():
    # About 1.8 MB of JSON: far more than a pipe holds, so the writer is still
    # writing when the reader goes away.
    src = os.path.dirname(os.path.dirname(polytopes.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "weightpoly", "fan", "--m", "1",
            "--r", ",".join(["1", "2"] * 6), "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""  # no traceback, no "Exception ignored" at shutdown


def test_a_broken_pipe_in_process_points_stdout_at_devnull_and_returns_141(
        monkeypatch, tmp_path):
    # The pipe test above runs main in a child; this one runs it here, with
    # stdout's descriptor a file's, so the redirect onto devnull can be seen.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Gone(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", Gone())
    try:
        assert main(["fibers", "--m", "1", "--n", "5"]) == 141
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_dual_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, ["dual"] + HEXAGON)
    assert code == 0
    assert out.splitlines()[-1] == "all pass"
    # P = 17/2: the counts differ at t = 1 and 3 but agree at t = 2, the one
    # multiple of L = 2 in 1..3, so the invariant passes.
    code, out, _ = run(capsys, ["dual", "--m", "1", "--r", "2,4,4,3,4"])
    lines = out.splitlines()
    assert code == 0
    assert lines[-3] == "dilate_counts: [9, 32, 60] vs [8, 32, 57] PASS"
    assert lines[-1] == "all pass"


def test_dual_with_no_comparable_dilate_exits_2(capsys):
    # P = 17/2, L = 2: at t_max = 1 no dilate count would be compared.
    argv = ["dual", "--m", "1", "--r", "2,4,4,3,4"]
    assert run(capsys, argv + ["--t-max", "1"]) == (
        2, "", "error: no dilate t in 1..1 makes t*P and every t*r_i integral; "
               "the least such t is 2\n")
    code, out, _ = run(capsys, argv + ["--t-max", "2"])
    lines = out.splitlines()
    assert (code, lines[-3], lines[-1]) == (
        0, "dilate_counts: [9, 32] vs [8, 32] PASS", "all pass")


def _failing_identity(s, t_max):
    return counting.IdentityReport(s, (counting.IdentityCheck(1, 9, 8, False),))


def _failing_duality(s, t_max):
    report = counting.verify_duality(s, t_max)
    bad = counting.DualityInvariant("dilate_counts", [9, 32, 60], [9, 31, 60], 2)
    return counting.DualityReport(report.side, report.dual_side, (bad,))


def _failing_battery():
    return reference.ReferenceReport((reference.ReferenceClaim("claim", 1, 2),))


@pytest.mark.parametrize("argv, name, failing, last_line, key", [
    (["verify-identity"] + HEXAGON, "verify_ehrhart_identity", _failing_identity,
     "t=1: count=9 mult=8 FAIL", "checks"),
    (["dual"] + HEXAGON, "verify_duality", _failing_duality,
     "dilate_counts: [9, 32, 60] vs [9, 31, 60] FAIL", "invariants"),
    (["paper-examples"], "reference_battery", _failing_battery,
     "claim: FAIL (expected 1, computed 2)", "claims"),
], ids=["verify-identity", "dual", "paper-examples"])
def test_checking_commands_text_json_and_exit_code_read_one_verdict(
        capsys, monkeypatch, argv, name, failing, last_line, key):
    monkeypatch.setattr(cli, name, failing)
    code, out, _ = run(capsys, argv)
    assert (code, out.splitlines()[-2:]) == (1, [last_line, "FAILED"])
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert [row["pass"] for row in json.loads(out)[key]] == [False]


@pytest.mark.parametrize("argv", [["--m", "3", "--r", "9,8,7,6,5,4,3"],
                                  ["--m", "2", "--r", "9,9,9,9,9,9,7", "--t-max", "3"]],
                         ids=["dual-halves", "dual-thirds"])
def test_dual_with_non_integral_dual_weights_passes(capsys, argv):
    # The dual weights are halves (thirds): counts are compared at t = 2 (3).
    code, out, _ = run(capsys, ["dual"] + argv)
    assert code == 0
    assert out.splitlines()[-1] == "all pass"


def test_fingerprint_matches_library(capsys):
    code, out, _ = run(capsys, ["fingerprint"] + PENTAGON)
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))
    assert code == 0
    assert out.strip() == combinatorial_fingerprint(polygon_hrep(s))


def test_paper_examples_all_pass(capsys):
    code, out, _ = run(capsys, ["paper-examples"])
    assert code == 0
    assert out.splitlines()[-1] == "all pass"
    code, out, _ = run(capsys, ["paper-examples", "--format", "json"])
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["claims"])


def test_side_file_input(capsys, tmp_path):
    p = tmp_path / "side.json"
    p.write_text(json.dumps({"m": 1, "r": ["3", "3", "3", "3", "3"]}))
    code, out, _ = run(capsys, ["vertices", "--side-file", str(p)])
    assert code == 0
    assert len(out.splitlines()) == 5


def test_polytope_file_input(capsys, tmp_path):
    s = SideData.from_weights(1, (3, 3, 3, 3, 4))
    p = tmp_path / "poly.json"
    p.write_text(json.dumps(remove_redundant(polygon_hrep(s)).to_json_dict()))
    code, out, _ = run(capsys, ["vertices", "--polytope-file", str(p)])
    assert code == 0
    assert len(out.splitlines()) == 6


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, ["vertices", "--m", "1"])
    assert code == 2 and "need --m and --r" in err
    code, _, err = run(capsys, ["vertices", "--m", "1", "--r", "3,x"])
    assert code == 2
    code, _, err = run(capsys, ["vertices", "--m", "1", "--r", "1,1,1"])
    assert code == 2  # three sides have no diagonal chart
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["vertices", "--side-file", str(bad)])
    assert code == 2 and "cannot read side file" in err
    code, _, err = run(capsys, ["mult"] + PENTAGON)
    assert code == 2  # P = 15/2 is not an integral weight


@pytest.mark.parametrize("name, doc", [
    ("polytope", {"dim": 1, "ineqs": [{"a": [True], "b": "1"}]}),
    ("polytope", {"dim": 1, "ineqs": [{"a": [1.5], "b": "1"}]}),
    ("polytope", {"dim": 1, "ineqs": [{"a": ["1"]}]}),
    ("polytope", {"dim": True, "ineqs": [{"a": ["1"], "b": "1"}, {"a": ["-1"], "b": "0"}]}),
    ("polytope", {"dim": 1, "ineqs": [5]}),
    ("polytope", [1, 2]),
    ("side", {"m": 1}),
    ("side", {"m": 1, "r": [True, 1, 1, 1]}),
    ("side", "m=1"),
    ("side", {"m": 1, "r": "33333"}),
    ("polytope", {"dim": 2, "ineqs": [{"a": "10", "b": "1"}, {"a": [-1, 0], "b": 0},
                                      {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0}]}),
])
def test_malformed_input_files_exit_two(capsys, tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["polytope", f"--{name}-file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("name, doc", [
    ("polytope", {"dim": 1, "ineqs": [{"a": ["1"], "b": "1/0"}]}),
    ("side", {"m": 1, "r": ["1/0", 1, 1, 1]}),
])
def test_a_zero_denominator_in_a_file_exits_two(capsys, tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["vertices", f"--{name}-file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed {name} file:") and err.count("\n") == 1


@pytest.mark.parametrize("name, doc", [
    ("side", {"m": 1, "r": {"3": 0, "4": 0, "5": 0, "6": 0, "7": 0}}),
    ("polytope", {"dim": 1, "ineqs": [{"a": {"1": 5}, "b": "2"}]}),
], ids=["side-weights", "polytope-normal"])
def test_a_json_object_is_not_a_vector_in_a_file(capsys, tmp_path, name, doc):
    # Iterating the object would read its keys as the vector.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["vertices", f"--{name}-file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed {name} file: TypeError(\"not a vector: {{")


def test_a_zero_denominator_in_r_keeps_its_message(capsys):
    assert run(capsys, ["vertices", "--m", "1", "--r", "1/0,1,1,1"]) == (
        2, "", "error: cannot parse --r: Fraction(1, 0)\n")


@pytest.mark.parametrize("command", ["fan", "singular"])
def test_fan_and_singular_of_an_empty_polytope_exit_two(capsys, command):
    code, out, err = run(capsys, [command, "--m", "1", "--r", "1,1,1,1,10"])
    assert (code, out, err) == (2, "", "error: polytope is empty\n")


def test_facets_of_an_empty_polygon_print_nothing(capsys):
    # Only the infeasibility certificate is left, and it names no facet.
    assert run(capsys, ["facets", "--m", "1", "--r", "1,1,1,1,10"]) == (0, "", "")


@pytest.mark.parametrize("command", ["fan", "singular"])
def test_fan_and_singular_of_a_lower_dimensional_chart_name_both_dimensions(capsys, command):
    code, out, err = run(capsys, [command, "--m", "1", "--r", "1,1,1,3"])
    assert (code, out, err) == (2, "", "error: normal fan needs a full-dimensional polytope: "
                                       "dimension 0 in ambient dimension 1\n")


@pytest.mark.parametrize("dilate, expected", [
    ("0", (0, "1\n", "")),
    ("-1", (2, "", "error: dilate must be a nonnegative integer\n"))])
def test_mult_reads_its_dilate(capsys, dilate, expected):
    assert run(capsys, ["mult", "--m", "1", "--r", "1,1,1,1", "--dilate", dilate]) == expected


def _rows(pairs):
    return [{"a": list(a), "b": b} for a, b in pairs]


@pytest.mark.parametrize("doc, expected", [
    ({"dim": 3, "ineqs": _rows([((1, 0, 0), 2), ((-1, 0, 0), 0), ((0, 1, 0), 2),
                                ((0, -1, 0), 0), ((0, 0, 1), 2), ((0, 0, -1), 0),
                                ((1, 1, 0), 5)]),
      "eqs": _rows([((1, 1, 1), 3)])},
     "dim: 3\neq: 1,1,1 = 3\nineq: -2,1,1 <= 3\nineq: -1,-1,2 <= 3\n"
     "ineq: -1,2,-1 <= 3\nineq: 1,-2,1 <= 3\nineq: 1,1,-2 <= 3\nineq: 2,-1,-1 <= 3\n"),
    ({"dim": 2, "ineqs": _rows([((1, 0), 1), ((0, 2), 4), ((-1, 0), -1),
                                ((0, 1), 2), ((0, -1), 0), ((1, 1), 9)])},
     "dim: 2\neq: 1,0 = 1\nineq: 0,2 <= 4\nineq: 0,-1 <= 0\n"),
    ({"dim": 2, "ineqs": _rows([((1, 0), 1), ((-1, 0), -1), ((0, 1), 2),
                                ((0, -1), -2), ((1, 1), 5)])},
     "dim: 2\neq: 1,0 = 1\neq: 2,-1 = 0\n"),
], ids=["with_eq", "implicit", "dim-0"])
def test_polytope_of_lower_dimensional_files_is_pinned(capsys, tmp_path, doc, expected):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, ["polytope", "--polytope-file", str(path)]) == (0, expected, "")


# 2x + 2y = 1 on the unit square: integer points only at even dilates.
HALF_DIAGONAL = {"dim": 2, "ineqs": _rows([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]),
                 "eqs": _rows([((2, 2), 1)])}


def test_ehrhart_of_an_equality_file_is_pinned(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(HALF_DIAGONAL))
    argv = ["ehrhart", "--polytope-file", str(path), "--t-max", "6"]
    assert run(capsys, argv) == (0, "counts: 1,0,2,0,3,0,4\nmode: quasi\nperiod: 2\n"
                                    "degree: 1\nclass 0: 1,1/2\nclass 1: 0,0\n", "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"counts": [1, 0, 2, 0, 3, 0, 4], "mode": "quasi", "period": 2,
                               "degree": 1, "coefficients": [["1", "1/2"], ["0", "0"]]}


def test_ehrhart_of_an_equality_file_runs_one_dd_pass_on_the_polytope_itself(capsys, tmp_path):
    # The m=2 slice in all 15 pattern entries: its equalities cut the DD's
    # lines, so the fit reads the ambient record, not a chart's.
    P = gt_hrep(GTSpec(6, (6, 6, 6, 0, 0, 0), (3, 7, 10, 13, 16)))
    path = tmp_path / "slice.json"
    path.write_text(json.dumps(P.to_json_dict()))
    clear_caches()
    argv = ["ehrhart", "--polytope-file", str(path), "--t-max", "4"]
    assert run(capsys, argv) == (0, "counts: 1,30,195,700,1845\nmode: polynomial\n"
                                    "period: 1\ndegree: 4\nclass 0: 1,5,10,10,4\n", "")
    # One DD pass ran, and it is P's own.
    assert _incidence.cache_info().misses == 1
    hits = _incidence.cache_info().hits
    verts = h_to_v(P).vertices
    assert _incidence.cache_info().hits == hits + 1
    chart, f = restrict_to_affine_hull(P)
    assert verts == tuple(sorted(f.apply(v) for v in h_to_v(chart).vertices))


def test_ehrhart_of_an_equality_file_charts_nothing(capsys, tmp_path, monkeypatch):
    charted = []
    restrict = polytopes.restrict_to_affine_hull

    def counting_restrict(Q):
        charted.append(Q)
        return restrict(Q)

    monkeypatch.setattr(polytopes, "restrict_to_affine_hull", counting_restrict)
    _scan_setup.cache_clear()
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(HALF_DIAGONAL))
    assert run(capsys, ["ehrhart", "--polytope-file", str(path)])[0] == 0
    # The count scans P in its own coordinates; the fit reads P's own incidence.
    assert charted == []


def test_fingerprint_after_dual_labels_no_chart_twice(capsys, monkeypatch):
    labelled = []
    canonical = polytopes.canonical_incidence

    def counting(*args):
        labelled.append(args)
        return canonical(*args)

    monkeypatch.setattr(polytopes, "canonical_incidence", counting)
    clear_caches()
    assert run(capsys, ["dual"] + HEXAGON)[0] == 0
    assert run(capsys, ["fingerprint", "--chart", "entry"] + HEXAGON)[0] == 0
    assert len(labelled) == 2  # the primal and the dual entry chart


LINE = "error: polytope is unbounded (recession line); bounded input required\n"
RAY = "error: polytope is unbounded (recession ray); bounded input required\n"
UNBOUNDED_FILES = {
    "slab": ({"dim": 2, "ineqs": _rows([((1, 0), 1), ((-1, 0), 0)])}, LINE),
    "half-line": ({"dim": 1, "ineqs": _rows([((1,), 3)])}, RAY),
    "equality-only": ({"dim": 2, "eqs": _rows([((1, 1), 1)])}, LINE),
}
INFEASIBLE_SLAB_OUTPUT = {
    ("vertices", "text"): "",
    ("vertices", "json"): '{\n  "dim": 2,\n  "vertices": []\n}\n',
    ("polytope", "text"): "dim: 2\nineq: 0,0 <= -1\n",
    ("polytope", "json"): '{\n  "dim": 2,\n  "ineqs": [\n    {\n      "a": [\n        "0",\n'
                          '        "0"\n      ],\n      "b": "-1"\n    }\n  ],\n  "eqs": []\n}\n',
    ("fingerprint", "text"): "dim=-1;empty\n",
    ("fingerprint", "json"): '{\n  "fingerprint": "dim=-1;empty"\n}\n',
    ("ehrhart", "text"): "counts: 0,0,0,0,0,0,0\nmode: polynomial\nperiod: 1\ndegree: 0\n"
                         "class 0: 0\n",
    ("ehrhart", "json"): '{\n  "counts": [\n' + "".join(f"    0{sep}\n" for sep in ",,,,,,")
                         + '    0\n  ],\n  "mode": "polynomial",\n  "period": 1,\n'
                         '  "degree": 0,\n  "coefficients": [\n    [\n      "0"\n    ]\n'
                         '  ]\n}\n',
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["vertices", "polytope", "fingerprint", "ehrhart"])
def test_non_pointed_and_unbounded_files_are_pinned(capsys, tmp_path, command, fmt):
    path = tmp_path / "poly.json"
    for doc, message in UNBOUNDED_FILES.values():
        path.write_text(json.dumps(doc))
        argv = [command, "--polytope-file", str(path), "--format", fmt]
        assert run(capsys, argv) == (2, "", message)
    path.write_text(json.dumps({"dim": 2, "ineqs": _rows([((1, 0), 0), ((-1, 0), -1)])}))
    argv = [command, "--polytope-file", str(path), "--format", fmt]
    assert run(capsys, argv) == (0, INFEASIBLE_SLAB_OUTPUT[command, fmt], "")


def _empty_output(command: str, fmt: str, dim: int) -> str:
    """What a command prints for an empty polytope file in Q^dim: the
    infeasible slab's output, written in that dimension."""
    if command == "vertices":
        return "" if fmt == "text" else f'{{\n  "dim": {dim},\n  "vertices": []\n}}\n'
    if command == "polytope":
        if fmt == "text":
            return f"dim: {dim}\nineq: {','.join(['0'] * dim)} <= -1\n"
        doc = {"dim": dim, "ineqs": [{"a": ["0"] * dim, "b": "-1"}], "eqs": []}
        return json.dumps(doc, indent=2) + "\n"
    return INFEASIBLE_SLAB_OUTPUT[command, fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["vertices", "polytope", "fingerprint", "ehrhart"])
def test_files_with_fewer_rows_than_dim_exit_fast_or_print_the_empty_polytope(
        capsys, tmp_path, command, fmt):
    """A nonempty P with fewer rows than dim holds a line, so its DD runs in
    the rows' own coordinates, not in dim + 1 (which is quadratic in dim)."""
    path = tmp_path / "poly.json"
    dense_eq = {"dim": 3000, "eqs": [{"a": [str(i % 7 + 1) for i in range(3000)], "b": "5"}]}
    for doc in ({"dim": 3000}, dense_eq):
        path.write_text(json.dumps(doc))
        argv = [command, "--polytope-file", str(path), "--format", fmt]
        assert run(capsys, argv) == (2, "", LINE)
    for dim, rows in ((3, [((1, 0, 0), 1), ((-1, 0, 0), -2)]), (3000, [((0,) * 3000, -1)])):
        path.write_text(json.dumps({"dim": dim, "ineqs": _rows(rows)}))
        argv = [command, "--polytope-file", str(path), "--format", fmt]
        assert run(capsys, argv) == (0, _empty_output(command, fmt, dim), "")


def test_fan_then_singular_run_one_dd_pass_and_one_incidence(capsys):
    clear_caches()
    for command in ("fan", "singular"):
        assert run(capsys, [command] + HEXAGON)[0] == 0
    # _incidence runs the one DD pass; fan and singular never need h_to_v.
    assert _incidence.cache_info().misses == 1
    assert h_to_v.cache_info().misses == 0
    assert v_to_h.cache_info().misses == 0


PENTAGON_ENTRY_BYTES = {  # P = 15/2: the entry chart's vertices have denominator 2
    "vertices": "(0, 3/2)\n(0, 3)\n(3/2, 3/2)\n(3/2, 9/2)\n(3, 3)\n",
    "fan": "ambient: 2\nvertex (0, 3/2): rays (0, 1) (1, 0)\nvertex (0, 3): rays (0, -1) (1, 1)\n"
           "vertex (3/2, 3/2): rays (-1, 0) (1, 1)\nvertex (3/2, 9/2): rays (-1, -1) (1, -1)\n"
           "vertex (3, 3): rays (-1, -1) (-1, 1)\n",
    "ehrhart": "counts: 1,9,31,60,106,156,226\nmode: quasi\nperiod: 2\ndegree: 2\n"
               "class 0: 1,15/4,45/8\nclass 1: 3/8,3,45/8\n",
}


def test_only_vertex_printing_and_mapping_build_vertex_fractions(capsys, monkeypatch):
    built = []
    fractions = polytopes._vertex_fractions

    def counted(scale, ints):
        built.append(scale)
        return fractions(scale, ints)

    monkeypatch.setattr(polytopes, "_vertex_fractions", counted)
    for command in (["fingerprint", "--chart", "entry"], ["dual"]):
        clear_caches()
        assert run(capsys, command + PENTAGON)[0] == 0
    assert built == []
    for command, expected in PENTAGON_ENTRY_BYTES.items():
        clear_caches()
        assert run(capsys, [command, "--chart", "entry"] + PENTAGON) == (0, expected, "")
        # ehrhart reads its period off the record's scale: no vertex Fraction.
        assert built == ([] if command == "ehrhart" else [2])
        built.clear()


SESSION_COMMANDS = ("vertices", "polytope", "fan", "singular", "facets")
GENERIC_HEXAGON = ["--m", "1", "--r", "1,2,2,3,3,4"]


def test_polygon_session_builds_each_record_once_and_prints_the_same_bytes(
        capsys, monkeypatch):
    argvs = [[command] + GENERIC_HEXAGON + ["--format", fmt]
             for fmt in ("text", "json") for command in SESSION_COMMANDS]
    cold = []
    for argv in argvs:
        clear_caches()
        cold.append(run(capsys, argv))
    assert all(code == 0 for code, _, _ in cold)
    indexed = []
    lattice_index = toric.lattice_index

    def counting_index(rays, dim):
        indexed.append(rays)
        return lattice_index(rays, dim)

    monkeypatch.setattr(toric, "lattice_index", counting_index)
    clear_caches()
    assert [run(capsys, argv) for argv in argvs] == cold
    assert polygon_hrep.cache_info().misses == 1
    assert normal_fan.cache_info().misses == 1
    fan = normal_fan(polygon_hrep(SideData.from_weights(1, (1, 2, 2, 3, 3, 4))))
    assert len(indexed) == len(fan.maximal_cones)


JSON_SCALARS = st.one_of(st.text(), st.integers(),
                         st.integers(min_value=-10 ** 60, max_value=10 ** 60),
                         st.booleans(), st.none())
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


SHARED = (1, -2, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
# One tuple object at several places and depths.
@example([SHARED, {"rays": [SHARED, SHARED], "deeper": {"ray": SHARED}}, [[SHARED]],
          (SHARED,)])
# Equal tuples whose texts differ.
@example([(True,), (1,), (1.0,), [(True,), (1,)], {"a": (1,), "b": (True,)}])
# A tuple holding a list, so unhashable, twice.
@example([SHARED + ([1, [2]],), {"k": (SHARED, [SHARED])}, ([1, [2]],)])
@example({})
@example([])
@example(())
@example({"": [[], {}, ()], "k": {"nested": {"deeper": [1, (2, 3)]}}})
@example(['quote " and backslash \\', "controls \x00\x01\x1f\t\n\r\b\f\x7f",
          "non-ASCII \u00e9\u4e2d \U0001f600", {"\u00e9 \"key\"": "\\"}])
@example([-1, -(10 ** 30), 10 ** 80, 0, True, False, None, [None, True]])
def test_json_text_is_json_dumps_with_indent_2(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_fan_json_is_written_from_the_records(capsys, monkeypatch):
    F = normal_fan(polygon_hrep(SideData.from_weights(1, (1, 2, 2, 3, 3, 4))))
    expected = json.dumps(toric.fan_to_json_dict(F), indent=2) + "\n"

    def refuse(*args):
        raise AssertionError("fan --format json built a payload")

    monkeypatch.setattr(toric, "fan_to_json_dict", refuse)
    monkeypatch.setattr(cli, "_json_text", refuse)
    assert run(capsys, ["fan", "--format", "json"] + GENERIC_HEXAGON) == (0, expected, "")
    assert (run(capsys, ["fan", "--chart", "entry", "--format", "text"] + PENTAGON)
            == (0, PENTAGON_ENTRY_BYTES["fan"], ""))


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["singular", "--format", "json"] + HEXAGON)
    _, second, _ = run(capsys, ["singular", "--format", "json"] + HEXAGON)
    assert first == second
    json.loads(first)


def test_usage_error_leaves_the_next_call_unchanged(capsys):
    assert build_parser() is build_parser()
    _, before, _ = run(capsys, ["vertices"] + PENTAGON)
    with pytest.raises(SystemExit) as exc:
        main(["vertices", "--no-such-flag"] + PENTAGON)
    assert exc.value.code == 2
    capsys.readouterr()
    code, after, _ = run(capsys, ["vertices"] + PENTAGON)
    assert code == 0
    assert after == before


# The CLI fuzz grammar: every subcommand, with weights, side files and
# polytope files drawn from valid and broken inputs, n <= 7 and entries <= 9
# so that no request is oversized.
FUZZ_COMMANDS = ("polytope", "vertices", "fan", "singular", "facets", "ehrhart", "mult",
                 "verify-identity", "dual", "fibers", "fingerprint", "paper-examples")
WITH_POLYTOPE_FILE = {"polytope", "vertices", "fan", "singular", "ehrhart", "fingerprint"}
WITH_T_MAX = {"ehrhart", "verify-identity", "dual"}
MALFORMED_WEIGHTS = ("", ",", " ", "a,b", "1/0", "3,,3", "1.5,2,3", "3;3;3", "3/", "0x3,3,3",
                     "nan,1,1", "--1,2,3")
DEEP = "[" * 10_000 + "]" * 10_000  # past the decoder's recursion limit
BROKEN_TEXTS = ("", "{", "[1, 2", "nul", "\"dim\"", DEEP, "{\"dim\": " + DEEP + "}")
BROKEN_POLYTOPES = (
    [], None, 3, "dim", {}, {"dim": "2"}, {"dim": -1}, {"dim": True}, {"dim": 1.0},
    {"dim": 2, "ineqs": 5}, {"dim": 2, "ineqs": [[1, 2]]}, {"dim": 2, "ineqs": [{"a": [1, 0]}]},
    *[{"dim": 2, "ineqs": [{"a": a, "b": 1}]}
      for a in ([1], ["x", 1], ["1/0", 1], [0.5, 1], [None, 1], [[1], 1], [0, 0], "12")],
    {"dim": 2, "eqs": [{"a": [0, 0], "b": 0}]}, {"dim": 2, "ineqs": [{"a": [1, 0], "b": "1/0"}]},
)
VALID_POLYTOPES = (
    HALF_DIAGONAL, {"dim": 0}, {"dim": 1, "ineqs": _rows([((1,), 2), ((-1,), 0)])},
    {"dim": 2, "ineqs": _rows([((1, 0), 0), ((-1, 0), -1)])},
    {"dim": 3, "ineqs": _rows([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                               ((-1, -1, -1), 0)])},
    {"dim": 2, "ineqs": _rows([((1, 0), "1/2"), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]),
     "eqs": _rows([((1, -1), 0)])},
    *[doc for doc, _ in UNBOUNDED_FILES.values()],
)
BROKEN_SIDES = ([], None, {}, {"m": 1}, {"r": [3, 3, 3]}, {"m": "1", "r": [3, 3, 3]},
                {"m": True, "r": [3, 3, 3]}, {"m": 1.0, "r": [3, 3, 3]}, {"m": 1, "r": "3,3,3"},
                {"m": 1, "r": [[3], 3, 3]}, {"m": 1, "r": [None, 3, 3]},
                {"m": 1, "r": ["1/0", 3, 3]}, {"m": 1, "r": [0.5, 3, 3]}, {"m": 1, "r": 3})


def _fuzz_weights(rng) -> str:
    """Mostly admissible lists (entries 4-9, n = 5-7), else any entries
    (zero, negative, fractional, none at all), else malformed text."""
    kind = rng.choices(("admissible", "any", "malformed"), (6, 2, 2))[0]
    if kind == "admissible":
        return ",".join(str(rng.randint(4, 9)) for _ in range(rng.randint(5, 7)))
    if kind == "any":
        entries = [str(rng.randint(-1, 9)) for _ in range(7)] + ["5/2", "9/2", "1/3", "0"]
        return ",".join(rng.choices(entries, k=rng.randint(0, 7)))
    return rng.choice(MALFORMED_WEIGHTS)


def _fuzz_polytope_doc(rng):
    """A valid or broken document, or random rows, some entries broken."""
    kind = rng.choices(("valid", "broken", "random"), (3, 2, 3))[0]
    if kind != "random":
        return rng.choice(VALID_POLYTOPES if kind == "valid" else BROKEN_POLYTOPES)
    dim = rng.randint(0, 4)
    entries = list(range(-9, 10)) * 3 + ["1/2", "-3/2", "x", "1/0", 0.5, None]

    def rows(k):
        return [{"a": rng.choices(entries, k=dim), "b": rng.choice(entries)} for _ in range(k)]
    return {"dim": dim, "ineqs": rows(rng.randint(0, 6)), "eqs": rows(rng.randint(0, 2))}


def _fuzz_argv(rng) -> tuple[list[str], dict[str, str]]:
    """(argv, {file flag: file text}) drawn from the grammar above."""
    command = rng.choice(FUZZ_COMMANDS)
    argv, files = [command], {}
    m = rng.choices((1, 2, 3, 4, 0, -1), (5, 3, 1, 1, 1, 1))[0]
    if command == "fibers":
        argv += ["--m", str(m), "--n", str(rng.randint(-1, 7))]
    elif command != "paper-examples":
        source = rng.choices(("weights", "side-file", "polytope-file", "none"), (6, 2, 4, 1))[0]
        if source == "polytope-file" and command not in WITH_POLYTOPE_FILE:
            source = "weights"
        if source == "weights":
            argv += ["--m", str(m), "--r", _fuzz_weights(rng)]
        elif source != "none":
            doc = (_fuzz_polytope_doc(rng) if source == "polytope-file" else
                   rng.choice(BROKEN_SIDES) if rng.random() < 0.4 else
                   {"m": m, "r": [rng.choice((3, 4, 5, 6, 7, 8, 9, "5/2"))
                                  for _ in range(rng.randint(4, 7))]})
            text = rng.choice(BROKEN_TEXTS) if rng.random() < 0.3 else json.dumps(doc)
            files[f"--{source}"] = text
        if command in WITH_POLYTOPE_FILE and rng.random() < 0.5:
            argv += ["--chart", rng.choice(("diag", "entry"))]
        if command in WITH_T_MAX:
            argv += ["--t-max", str(rng.choices((1, 2, 3, 0, -1), (3, 3, 3, 1, 1))[0])]
        if command == "mult" and rng.random() < 0.5:
            argv += ["--dilate", str(rng.randint(-1, 3))]
    fmt = rng.choices((None, "text", "json", "xml"), (4, 2, 3, 1))[0]
    if fmt is not None:
        argv += ["--format", fmt]
    if rng.random() < 0.05:
        argv.append(rng.choice(("--no-such-flag", "--m", "--t-max=x", "extra")))
    if rng.random() < 0.15:
        argv = _respelled(rng, argv)
    return argv, files


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def _respelled(rng, argv: list[str]) -> list[str]:
    """argv with one option respelled: its value in another spelling that
    argparse reads too (a leading space, a digit separator, non-ASCII digits,
    empty), or in a form that only argparse may read (a negative value,
    "--flag=value", an abbreviated or repeated flag, "--" before it, the
    option dropped, or a value outside every choice)."""
    if len(argv) < 3:
        return argv + ["--"]
    i = rng.randrange(1, len(argv) - 1, 2)
    flag, value = argv[i], argv[i + 1]
    forms = ([flag, " " + value], [flag, "0_" + value], [flag, value.translate(ARABIC_INDIC)],
             [flag, ""], [flag, "-" + value], [f"{flag}={value}"], [flag[:-1], value],
             [flag, value, flag, value], ["--", flag, value], [], [flag, "both"])
    return argv[:i] + rng.choice(forms) + argv[i + 2:]


def test_cli_fuzz_exits_0_1_or_2_with_no_traceback(tmp_path):
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32).map(lambda seed: _fuzz_argv(random.Random(seed))))
    def check(drawn):
        argv, files = drawn
        for flag, text in files.items():
            path = tmp_path / flag.strip("-")
            path.write_text(text)
            argv = argv + [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, files, code)
        assert "Traceback" not in err.getvalue(), (argv, files)
        seen.add((argv[0], code))

    check()
    assert {command for command, _ in seen} == set(FUZZ_COMMANDS)
    # Exit 1 is a failed check (verify-identity, dual, paper-examples), which
    # no input the grammar draws may give.
    assert {code for _, code in seen} == {0, 2}


def _outcome(argv, parse=None):
    """(exit code, stdout, stderr) of main(argv), its namespace parsed by
    parse when given instead of cli._parse."""
    out, err = io.StringIO(), io.StringIO()
    saved = cli._parse
    if parse is not None:
        cli._parse = parse
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    finally:
        cli._parse = saved
    return code, out.getvalue(), err.getvalue()


def _namespace(parse, argv):
    """vars() of parse(argv) without the command name, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            found = vars(parse(argv))
        except SystemExit:
            return None
    found.pop("command", None)
    return found


def _through_the_top_level(argv):
    return build_parser().parse_args(argv)


# The argv the plain reader must leave to argparse, and those it must read as
# argparse does.
IDENTITY = ["verify-identity", "--m", "1", "--r", "1,1,2,2,3,3", "--t-max"]
DEFERRED = (
    [], ["--help"], ["-h"], *[[command, "--help"] for command in FUZZ_COMMANDS],
    ["vertices", "-h"], ["vertices", "--form", "json"] + PENTAGON,
    ["vertices", "--for", "text", "--m", "1", "--r", "3,3,3,3,3", "--ch", "entry"],
    IDENTITY[:-1] + ["--t-max=3"], ["ehrhart", "--t-max=2", "--m=1", "--r=3,3,3,3,3"],
    IDENTITY + ["-3"], IDENTITY + ["--3"],
    ["vertices"] + PENTAGON + ["--"], ["vertices", "--", "--m", "1"], ["--", "vertices"],
    ["vertices", "--m", "2", "--m", "1", "--r", "3,3,3,3,3"],
    ["mult", "--dilate", "1", "--dilate", "2"] + HEXAGON,
    ["vertices", "--no-such"] + PENTAGON, ["vertices"] + PENTAGON + ["extra"],
    ["vertices", "--n", "5"] + PENTAGON, ["fibers", "--m", "1", "--n", "5", "--x"],
    ["--m", "1", "vertices"] + PENTAGON[2:], ["--format", "json", "vertices"] + PENTAGON,
    ["nosuch"], ["nosuch", "--help"], ["Vertices"] + PENTAGON,
    ["fibers", "--m", "1"], ["fibers", "--n", "5"], ["ehrhart", "--m", "x"],
    ["fibers", "--m", "1.0", "--n", "5"], ["vertices", "--chart", "both"] + PENTAGON,
    ["vertices", "--format", "JSON"] + PENTAGON,
)
PLAIN = (
    IDENTITY + [" -3"], IDENTITY + ["1_0"], IDENTITY + ["\u0663"], IDENTITY + ["\uff13 "],
    ["vertices", "--m", "1", "--r", ""], ["vertices"], ["paper-examples"],
    ["ehrhart", "--format", "json", "--chart", "diag", "--t-max", "0_4"] + HEXAGON,
    ["fibers", "--n", "5", "--m", "1"], ["fingerprint", "--polytope-file", "no such file"],
)


@pytest.mark.parametrize("argv", DEFERRED)
def test_the_plain_reader_leaves_every_choice_to_argparse(argv):
    assert cli._plain_parse(argv) is None


@pytest.mark.parametrize("argv", PLAIN)
def test_the_plain_reader_reads_what_argparse_reads(argv):
    assert cli._plain_parse(argv) == build_parser().parse_args(argv)


def test_the_plain_reader_and_the_top_level_parser_agree(tmp_path):
    rng_argvs = []
    for seed in range(400):
        argv, files = _fuzz_argv(random.Random(seed))
        for flag, text in files.items():
            path = tmp_path / f"{seed}-{flag.strip('-')}"
            path.write_text(text)
            argv = argv + [flag, str(path)]
        rng_argvs.append(argv)
    for argv in [*DEFERRED, *PLAIN, *rng_argvs]:
        assert _outcome(argv) == _outcome(argv, _through_the_top_level), argv
        assert _namespace(cli._parse, argv) == _namespace(_through_the_top_level, argv), argv


ONE_REQUEST = f"""
import argparse, contextlib, io, sys
sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")!r})
made = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from weightpoly import cli
on_import = len(made)
top_calls = []
build_parser = cli.build_parser
cli.build_parser = lambda: top_calls.append(1) or build_parser()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
print(on_import, made[:1], len(made), len(top_calls), "locale" in sys.modules, code,
      out.getvalue().splitlines()[-1])
"""


@pytest.mark.parametrize("t_max, expected", [
    (["--t-max", "3"], "0 [] 0 0 False 0 all pass\n"),
    (["--t-max=3"], f"0 ['weightpoly'] {len(cli._COMMANDS) + 1} 1 True 0 all pass\n"),
])
def test_a_plain_request_builds_no_parser_and_imports_no_locale(t_max, expected):
    argv = ["verify-identity", "--m", "1", "--r", "1,1,2,2,3,3"] + t_max
    run = subprocess.run([sys.executable, "-c", ONE_REQUEST, *argv], check=True,
                         capture_output=True, text=True)
    assert run.stdout == expected


def test_ehrhart_short_of_samples_fails_before_any_scan(capsys, monkeypatch):
    def scanned(*args):
        raise AssertionError("scanned")
    monkeypatch.setattr(polytopes, "_frontier", scanned)
    argv = ["ehrhart", "--m", "2", "--r", "3,3,3,3,3,3,3,3,3", "--chart", "entry"]
    assert run(capsys, argv + ["--t-max", "20"]) == (
        2, "", "error: insufficient samples: residue class 0 needs 11 dilates, has 6\n")
    # count_dilates' own t_max check still comes first
    assert run(capsys, argv + ["--t-max", "0"]) == (
        2, "", "error: t_max must be a positive integer\n")
