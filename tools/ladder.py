"""Time the ladder: chart construction, lattice counts and a lattice listing,
weight multiplicities, vertex and facet enumeration, the vertex graph, the
fan's singularities, the JSON texts of the fan and of its singularity
report, the fan fingerprint and the combinatorial fingerprint at fixed
sizes, each row from cold caches, and the start-up of a fresh interpreter
importing the CLI.

    python3 tools/ladder.py [--out BENCH.json]

Each row runs REPEATS times.  Before each run every cache of the weightpoly
modules is emptied and the row's input is prepared untimed: a count or
listing row builds its polytope and the polytope's scan setup (its box by
interval propagation; no double description), so the timed part is the
lattice scans alone; a cold count row builds only its polytope (or side
data), so the setup, and for the identity row the chart and the
multiplicities, for the fit row the double description and the fit, are
timed with the scans; a multiplicity
row builds its query; a chart row builds its side data (or GTSpec), and the
remove_redundant polygon row also the polygon's incidence, emptying
polygon_hrep's cache after; the remove_redundant gt_hrep row builds the
slice and its incidence; each h_to_v row builds its polygon, chart or
gt_hrep slice alone, so its double description is timed; the vertex-graph row builds the
polygon's incidence (its double description), the fan rows its vertex
graph, the fan and singular JSON rows the fan and its singularities, the
combinatorial fingerprint row its chart and its cube with their incidence
(so the timed part is the labelling), and the v_to_h rows the VPolytope
of the polygon's vertices (in Q^8, through a fixed injective map, for the
second).  The start-up row
prepares nothing; each run is a fresh interpreter that imports
weightpoly.cli, timed from spawn to exit, and its values
are the standard-library modules that import loads, sorted (its
tracemalloc peak is the spawning process's, not the child's).  The first
request row also prepares nothing; each run is a fresh interpreter that
imports weightpoly.cli and calls main on one count-identity request, timed
in the child around main, and its values are the exit code and the sha256
of stdout.  Both run on a fresh copy of this checkout's src/weightpoly
with no __pycache__, made in a temporary directory each run (the start-up
row's time includes the copy), under PYTHONDONTWRITEBYTECODE=1 with no
PYTHONPYCACHEPREFIX: each run compiles this package from source, as a
benchmark worker in a fresh checkout does, whatever __pycache__ the
checkout holds, and loads the standard library from its installed
bytecode.  A row records the median and every run's wall time in ms, the
median calibrated by bench/calibrate.py (each run scaled by the host speed
sampled before it and after it, as the benchmark scales a request), the
tracemalloc peak of one more run, and the values it computed, so two
checkouts' files can be compared value for value.  A row
that scans lattice points also records its work count, scan_states: the
calls of polytopes._narrow, one per state the scan visits, summed over the
row's dilates in that same tracemalloc run, with the function wrapped here
to count them; a row that labels an incidence records search_nodes, the
calls of polytopes._CanonicalSearch.refine, one per node of the canonical
labelling search, counted alike.  A run whose
timed part takes longer than TIMEOUT_S seconds ends the row, which is
recorded as a timeout (never dropped).  Standard library only; weightpoly,
the cache helper tests/caches.py and the calibration kernel
bench/calibrate.py are imported from this checkout's src/, tests/ and
bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "bench")]

import calibrate  # noqa: E402
from caches import clear_caches  # noqa: E402
from weightpoly.builders import GTSpec, SideData, gt_hrep, gt_slice, polygon_hrep  # noqa: E402
from weightpoly.counting import (MultiplicityQuery, count_dilates, ehrhart_fit,  # noqa: E402
                                 verify_ehrhart_identity, weight_multiplicity)
from weightpoly import polytopes  # noqa: E402
from weightpoly.polytopes import (HPolytope, VPolytope, _incidence,  # noqa: E402
                                  _scan_setup, _vertex_graph, combinatorial_fingerprint,
                                  count_lattice_points, h_to_v, lattice_points,
                                  polytope_dim, remove_redundant, v_to_h)
from weightpoly.toric import (_fan_json_text, _singularity_json_text,  # noqa: E402
                              fan_fingerprint, normal_fan)


def _scanned(polytope):
    def prepare():
        P = polytope()
        _scan_setup(P)
        return P
    return prepare


def _counts(polytope, dilates):
    return _scanned(polytope), lambda P: [count_lattice_points(P, t) for t in dilates]


def _cold_counts(polytope, dilates):
    """Counts of the dilates with the scan setup timed too."""
    return polytope, lambda P: [count_lattice_points(P, t) for t in dilates]


def _cold_identity(m, r, t_max):
    """verify_ehrhart_identity's lattice counts, chart and setup timed too."""
    def run(s):
        report = verify_ehrhart_identity(s, t_max)
        return [report.all_pass, [check.lattice_count for check in report.checks]]
    return lambda: SideData.from_weights(m, r), run


def _cold_fit(polytope, t_max):
    """ehrhart_fit of the counts 1..t_max, setup and double description timed
    too: the period, the degree and the sha256 of the coefficients' JSON."""
    def run(P):
        fit = ehrhart_fit(count_dilates(P, t_max))
        text = json.dumps(fit.to_json_dict()["coefficients"])
        return [fit.period, fit.degree, hashlib.sha256(text.encode()).hexdigest()]
    return polytope, run


def _listing(polytope, dilate):
    def run(P):
        points = lattice_points(P, dilate)
        return [len(points), hashlib.sha256(repr(points).encode()).hexdigest()]
    return _scanned(polytope), run


def _chart(m, r, chart):
    return lambda: getattr(gt_slice(SideData.from_weights(m, r)), chart)


def _chart_record(P):
    """A chart's dimension, row count and the sha256 of its JSON."""
    text = json.dumps(P.to_json_dict())
    return [P.dim, len(P.ineqs), hashlib.sha256(text.encode()).hexdigest()]


def _entry_chart(m, r):
    return (lambda: SideData.from_weights(m, r),
            lambda s: _chart_record(gt_slice(s).entry_chart))


def _irredundant_polygon(r):
    """remove_redundant(polygon_hrep) of the polygon r, its incidence built first."""
    def prepare():
        s = SideData.from_weights(1, r)
        _incidence(polygon_hrep(s))
        polygon_hrep.cache_clear()
        return s
    return prepare, lambda s: _chart_record(remove_redundant(polygon_hrep(s)))


def _irredundant_gt(spec):
    """remove_redundant(gt_hrep(spec)), the slice's incidence built first."""
    def prepare():
        P = gt_hrep(spec)
        _incidence(P)
        return P

    def run(P):
        H = remove_redundant(P)
        dim, rows, digest = _chart_record(H)
        return [dim, polytope_dim(P), rows, len(H.eqs), digest]
    return prepare, run


def _mult(m, r, t):
    return (lambda: MultiplicityQuery.from_side(SideData.from_weights(m, r), t),
            lambda q: [weight_multiplicity(q)])


def _polygon(r, built_first):
    """Prepare the polygon of weights r with built_first(P) already computed."""
    def prepare():
        P = polygon_hrep(SideData.from_weights(1, r))
        built_first(P)
        return P
    return prepare


def _vertices_and_edges(P):
    verts, neighbors = _vertex_graph(P)
    return [len(verts), sum(map(len, neighbors)) // 2]


def _vertex_count(P):
    return [len(h_to_v(P).vertices)]


def _vertex_list(P):
    """The vertex count and the sha256 of the vertex list."""
    verts = h_to_v(P).vertices
    return [len(verts), hashlib.sha256(repr(verts).encode()).hexdigest()]


def _cones_and_singular(P):
    report = normal_fan(P).singularities
    return [len(report.entries), len(report.singular)]


def _singularities(P):
    return normal_fan(P).singularities


def _json_bytes(write):
    """The byte count and sha256 of write(normal_fan(P)), a fan JSON writer."""
    def run(P):
        text = write(normal_fan(P)).encode()
        return [len(text), hashlib.sha256(text).hexdigest()]
    return run


def _polygon_vertices(r, embed=None):
    """The VPolytope of the polygon r's vertices, mapped by embed if given."""
    def prepare():
        verts = h_to_v(polygon_hrep(SideData.from_weights(1, r))).vertices
        if embed is None:
            return VPolytope(len(verts[0]), verts)
        return VPolytope(len(embed(verts[0])), [embed(v) for v in verts])
    return prepare


def _into_q8(v):
    """A fixed injective affine map Q^6 -> Q^8: v, then two mixed coordinates."""
    return (*v, v[0] + 2 * v[1] - v[3] + 1, v[2] - v[4] + 3 * v[5] - 2)


def _facets_eqs_record(V):
    """v_to_h(V)'s facet and equality counts and the sha256 of its JSON."""
    H = v_to_h(V)
    text = json.dumps(H.to_json_dict())
    return [len(H.ineqs), len(H.eqs), hashlib.sha256(text.encode()).hexdigest()]


def _cones_and_fingerprint(P):
    F = normal_fan(P)
    return [len(F.maximal_cones), hashlib.sha256(fan_fingerprint(F).encode()).hexdigest()]


def _cube(d):
    """The unit d-cube, 0 <= x_i <= 1."""
    rows = []
    for i in range(d):
        unit = tuple(int(i == j) for j in range(d))
        rows += [(unit, 1), (tuple(-c for c in unit), 0)]
    return HPolytope(d, tuple(rows))


def _fingerprinted(*builds):
    """Prepare the polytopes with their incidence records built."""
    def prepare():
        polys = [build() for build in builds]
        for P in polys:
            _incidence(P)
        return polys
    return prepare


def _facets_vertices_fingerprints(polys):
    """Per polytope its facet and vertex counts and the sha256 of its
    combinatorial fingerprint."""
    records = []
    for P in polys:
        fp = combinatorial_fingerprint(P)
        vert_masks, _, _, faces = _incidence(P)
        records.append([len(faces[1]), len(vert_masks), hashlib.sha256(fp.encode()).hexdigest()])
    return records


STARTUP = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
           "import weightpoly.cli; print(' '.join(sorted(name for name in set(sys.modules) - before"
           " if name.split('.')[0] in sys.stdlib_module_names)))")


def _spawn(code: str) -> str:
    """The stdout of code run in a fresh interpreter on a fresh copy of
    src/weightpoly, with no __pycache__, in a temporary directory passed as
    sys.argv[1]; PYTHONDONTWRITEBYTECODE=1 and no PYTHONPYCACHEPREFIX, so each
    run compiles this package from source, as a fresh checkout does, and
    reads the installed standard library's bytecode."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree(os.path.join(ROOT, "src", "weightpoly"), os.path.join(src, "weightpoly"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        return subprocess.run([sys.executable, "-c", code, src], env=env, check=True,
                              capture_output=True, text=True).stdout


def _startup(_):
    return _spawn(STARTUP).split()


FIRST_REQUEST = ["ehrhart", "--m", "1", "--r", "3,1,2,3,1,2", "--chart", "entry", "--t-max", "7"]
FIRST_REQUEST_CODE = """import contextlib, hashlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import weightpoly.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = weightpoly.cli.main({argv!r})
    elapsed = time.perf_counter() - start
print(elapsed, code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


class ChildTimed:
    """A row's values and the seconds its child process timed, which the
    row records in place of the spawning process's wall time."""

    def __init__(self, values, seconds: float):
        self.values, self.seconds = values, seconds


def _first_request(_):
    code = FIRST_REQUEST_CODE.format(argv=FIRST_REQUEST)
    elapsed, exit_code, digest = _spawn(code).split()
    return ChildTimed([int(exit_code), digest], float(elapsed))


REPEATS = 3
TIMEOUT_S = 60
POLYGON = tuple(range(1, 10)) + (11,)

GT6 = (6, (4, 3, 2, 1, 0, 0), (2, 4, 6, 8, 9))  # k, lam, the row sums of mu=(2,2,2,2,1,1)
GT8 = (8, (6, 5, 4, 3, 2, 1, 0, 0), (3, 6, 9, 12, 15, 17, 19))
# k, lam, row sums: the m=2 r=(2,2,2,3,3,3,3) slice, which its entry chart counts alike.
GT7 = (7, (6, 6, 6, 0, 0, 0, 0), (2, 4, 6, 9, 12, 15))

# name: (prepare, run); run(prepare()) is timed and returns the row's values.
ROWS = {
    "gt_hrep k=6 lam=(4,3,2,1,0,0) mu=(2,2,2,2,1,1), t=1..3":
        _counts(lambda: gt_hrep(GTSpec(*GT6)), range(1, 4)),
    "gt_hrep k=7 lam=(6,6,6,0,0,0,0) row sums (2,4,6,9,12,15), m=2 r=(2,2,2,3,3,3,3), t=6":
        _counts(lambda: gt_hrep(GTSpec(*GT7)), (6,)),
    "entry chart m=2 r=(2,2,2,3,3,3,3), t=1..6":
        _counts(_chart(2, (2, 2, 2, 3, 3, 3, 3), "entry_chart"), range(1, 7)),
    "entry chart m=2 r=3^9, t=1..3":
        _counts(_chart(2, (3,) * 9, "entry_chart"), range(1, 4)),
    "entry chart m=3 r=2^8, t=1..3":
        _counts(_chart(3, (2,) * 8, "entry_chart"), range(1, 4)),
    "polygon r=(1,...,9,11), diag chart, t=1..4":
        _counts(_chart(1, POLYGON, "diag_chart"), range(1, 5)),
    "polygon r=(1,...,9,11), entry chart, t=1..4":
        _counts(_chart(1, POLYGON, "entry_chart"), range(1, 5)),
    "cold gt_hrep k=8 lam=(6,5,4,3,2,1,0,0) row sums (3,6,9,12,15,17,19), t=1,2":
        _cold_counts(lambda: gt_hrep(GTSpec(*GT8)), (1, 2)),
    "cold verify_ehrhart_identity m=2 r=3^11, t_max=3 (all pass, counts)":
        _cold_identity(2, (3,) * 11, 3),
    "cold count_dilates + ehrhart_fit entry chart m=1 r=(1,2)^4, t_max=11"
    " (period, degree, sha256)": _cold_fit(_chart(1, (1, 2) * 4, "entry_chart"), 11),
    "lattice_points entry chart m=2 r=(2,2,2,3,3,3,3), t=4 (points, sha256)":
        _listing(_chart(2, (2, 2, 2, 3, 3, 3, 3), "entry_chart"), 4),
    "gt_slice entry chart m=2 r=3^11 (dim, rows, sha256)": _entry_chart(2, (3,) * 11),
    "gt_slice entry chart m=3 r=4^9 (dim, rows, sha256)": _entry_chart(3, (4,) * 9),
    "gt_hrep k=6 lam=(4,3,2,1,0,0) mu=(2,2,2,2,1,1) (dim, rows, sha256)":
        (lambda: GTSpec(*GT6), lambda spec: _chart_record(gt_hrep(spec))),
    "remove_redundant(polygon_hrep) r=(1,2)^7 (dim, rows, sha256)":
        _irredundant_polygon((1, 2) * 7),
    "remove_redundant(gt_hrep) k=6 lam=(4,3,2,1,0,0) mu=(2,2,2,2,1,1)"
    " (dim, polytope_dim, rows, eqs, sha256)": _irredundant_gt(GTSpec(*GT6)),
    "mult m=3 r=4^7, t=4": _mult(3, (4,) * 7, 4),
    "mult m=2 r=3^11, t=1": _mult(2, (3,) * 11, 1),
    "mult m=1 r=(1,...,13,9), t=6": _mult(1, (*range(1, 14), 9), 6),
    "h_to_v polygon r=(1,2)^6 (vertices)":
        (_polygon((1, 2) * 6, lambda P: None), _vertex_count),
    "h_to_v polygon r=(1,...,13) (vertices, sha256)":
        (_polygon(tuple(range(1, 14)), lambda P: None), _vertex_list),
    "h_to_v entry chart m=2 r=3^10 (vertices, sha256)":
        (_chart(2, (3,) * 10, "entry_chart"), _vertex_list),
    "h_to_v gt_hrep k=6 lam=(4,3,2,1,0,0) mu=(2,2,2,2,1,1), 15 ambient coordinates"
    " (vertices, sha256)": (lambda: gt_hrep(GTSpec(*GT6)), _vertex_list),
    "_vertex_graph polygon r=(1,2)^6 (vertices, edges)":
        (_polygon((1, 2) * 6, _incidence), _vertices_and_edges),
    "fan_fingerprint(normal_fan) polygon r=(1,2)^6 (cones, sha256)":
        (_polygon((1, 2) * 6, _vertex_graph), _cones_and_fingerprint),
    "combinatorial_fingerprint equal-weight n=10 entry chart and 5-cube"
    " (facets, vertices, sha256)":
        (_fingerprinted(_chart(1, (1,) * 10, "entry_chart"), lambda: _cube(5)),
         _facets_vertices_fingerprints),
    "normal_fan(P).singularities polygon r=(1,2)^6 (cones, singular cones)":
        (_polygon((1, 2) * 6, _vertex_graph), _cones_and_singular),
    "fan JSON polygon r=(1,2)^6 (bytes, sha256)":
        (_polygon((1, 2) * 6, _singularities), _json_bytes(_fan_json_text)),
    "singular JSON polygon r=(1,2)^6 (bytes, sha256)":
        (_polygon((1, 2) * 6, _singularities), _json_bytes(_singularity_json_text)),
    "v_to_h vertices of polygon r=(1,2)^5 (facets, eqs, sha256)":
        (_polygon_vertices((1, 2) * 5), _facets_eqs_record),
    "v_to_h vertices of polygon r=(1,...,9) mapped into Q^8 (facets, eqs, sha256)":
        (_polygon_vertices(tuple(range(1, 10)), _into_q8), _facets_eqs_record),
    "import weightpoly.cli, fresh interpreter, spawn to exit (stdlib modules it loads)":
        (lambda: None, _startup),
    "cli.main first request, fresh interpreter, timed around main: " + " ".join(FIRST_REQUEST)
    + " (exit code, stdout sha256)": (lambda: None, _first_request),
}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def time_row(prepare, run) -> dict:
    """The row's record: median and runs in ms, the calibrated median,
    tracemalloc peak, values, the scan states when the row scans and the
    search nodes when it labels."""
    runs, cal, values = [], [], None
    signal.signal(signal.SIGALRM, _alarm)
    try:
        for _ in range(REPEATS):
            clear_caches()
            data = prepare()
            cal.append(calibrate.sample())
            signal.alarm(TIMEOUT_S)
            start = time.perf_counter()
            values = run(data)
            elapsed = time.perf_counter() - start
            signal.alarm(0)
            if isinstance(values, ChildTimed):
                values, elapsed = values.values, values.seconds
            runs.append(elapsed * 1000)
    except _Timeout:
        return {"timeout_s": TIMEOUT_S}
    finally:
        signal.alarm(0)
    cal.append(calibrate.sample())
    clear_caches()
    data = prepare()
    narrow, states = polytopes._narrow, [0]
    refine, nodes = polytopes._CanonicalSearch.refine, [0]

    def counted(*args):
        states[0] += 1
        return narrow(*args)

    def counted_refine(search, colors):
        nodes[0] += 1
        return refine(search, colors)

    polytopes._narrow = counted
    polytopes._CanonicalSearch.refine = counted_refine
    tracemalloc.start()
    try:
        run(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        polytopes._narrow = narrow
        polytopes._CanonicalSearch.refine = refine
    record = {"median_ms": round(statistics.median(runs), 3),
              "calibrated_median_ms": round(statistics.median(calibrate.calibrated(runs, cal)), 3),
              "runs_ms": [round(t, 3) for t in runs],
              "peak_kib": round(peak / 1024, 1),
              "values": values}
    if states[0]:
        record["scan_states"] = states[0]
    if nodes[0]:
        record["search_nodes"] = nodes[0]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    rows = []
    for name, (prepare, run) in ROWS.items():
        record = {"row": name, **time_row(prepare, run)}
        rows.append(record)
        print(json.dumps(record), file=sys.stderr)
    text = json.dumps({"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count(),
                       "repeats": REPEATS,
                       "timeout_s": TIMEOUT_S,
                       "rows": rows}, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
