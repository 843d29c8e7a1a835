"""tools/ladder.py loads, its rows are well formed, and every private name
it reads exists: a rename fails here, not on the ladder's next run."""

import importlib.util
import os
import pathlib
import subprocess
import sys

from weightpoly import polytopes, toric

LADDER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def _load_ladder():
    """The ladder as a module, sys.path left as it was (the ladder puts
    src/, tests/ and bench/ in front)."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("ladder", LADDER)
        ladder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ladder)
    finally:
        sys.path[:] = path
    return ladder


def test_every_ladder_row_is_a_pair_of_callables():
    rows = _load_ladder().ROWS
    assert rows
    for name, row in rows.items():
        assert isinstance(row, tuple) and len(row) == 2, name
        assert all(map(callable, row)), name


def test_every_private_name_the_ladder_reads_exists():
    ladder = _load_ladder()
    for module, name in ((polytopes, "_narrow"), (polytopes, "_incidence"),
                         (polytopes, "_scan_setup"), (polytopes, "_vertex_graph"),
                         (toric, "_fan_json_text"), (toric, "_singularity_json_text"),
                         (polytopes._CanonicalSearch, "refine")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # The names it imports are the package's own objects.
    assert ladder._incidence is polytopes._incidence
    assert ladder._scan_setup is polytopes._scan_setup
    assert ladder._vertex_graph is polytopes._vertex_graph
    assert ladder._fan_json_text is toric._fan_json_text
    assert ladder._singularity_json_text is toric._singularity_json_text
    assert ladder.polytopes is polytopes


def test_rows_count_scan_states_and_search_nodes(monkeypatch):
    """A row that scans records scan_states, the _narrow calls, and a row
    that labels records search_nodes, the calls of
    polytopes._CanonicalSearch.refine, both counted in the tracemalloc run;
    a row records neither count when its work has none, and both functions
    are put back."""
    ladder = _load_ladder()
    monkeypatch.setattr(ladder, "REPEATS", 1)
    narrow, refine = polytopes._narrow, polytopes._CanonicalSearch.refine
    labelled = ladder.time_row(*ladder.ROWS[
        "combinatorial_fingerprint equal-weight n=10 entry chart and 5-cube"
        " (facets, vertices, sha256)"])
    scanned = ladder.time_row(*ladder.ROWS["polygon r=(1,...,9,11), entry chart, t=1..4"])
    assert polytopes._narrow is narrow and polytopes._CanonicalSearch.refine is refine
    assert labelled["search_nodes"] > 0 and "scan_states" not in labelled
    assert [values[:2] for values in labelled["values"]] == [[20, 98], [10, 32]]
    assert scanned["scan_states"] > 0 and "search_nodes" not in scanned


def test_the_spawn_rows_read_and_write_no_bytecode(monkeypatch, tmp_path):
    """The start-up and first-request rows spawn on a fresh copy of
    src/weightpoly with no __pycache__, under PYTHONDONTWRITEBYTECODE and no
    PYTHONPYCACHEPREFIX, so every run compiles the package from source
    whatever __pycache__ the checkout holds, and the copy is gone after."""
    ladder = _load_ladder()
    package = pathlib.Path(polytopes.__file__).parent
    sources = sorted(path.name for path in package.glob("*.py"))
    copies = []

    def fake_run(argv, env, **kwargs):
        assert argv[:2] == [sys.executable, "-c"] and len(argv) == 4 and kwargs["check"]
        assert "sys.path.insert(0, sys.argv[1])" in argv[2]
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env
        src = argv[3]
        assert os.listdir(src) == ["weightpoly"]
        assert sorted(os.listdir(os.path.join(src, "weightpoly"))) == sources
        copies.append(src)
        return subprocess.CompletedProcess(argv, 0, stdout="0.001 0 digest\n")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))  # dropped for the child
    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    spawned = [(prepare, run) for prepare, run in ladder.ROWS.values()
               if run in (ladder._startup, ladder._first_request)]
    assert len(spawned) == 2
    for prepare, run in spawned:
        run(prepare())
    assert len(set(copies)) == 2 and not any(map(os.path.exists, copies))
