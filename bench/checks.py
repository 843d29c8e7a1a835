"""Output checks that decide whether a request counts as failed.

A request fails when its exit code is not 0 (verify-identity, dual and
paper-examples exit 1 on a failing check of their own), when it raised, when
its stdout differs from a recorded digest, in polygon-session when the five
displays of one polygon disagree with each other, and in duality-fingerprint
when one polygon's fingerprints differ between the diag and entry charts
(the charts are affinely isomorphic).
"""

from __future__ import annotations

import hashlib
import json


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def polygon_mismatches(argvs: list[list[str]], outputs: list[str]) -> set[int]:
    """Indices of polygon-session requests whose polygon's displays disagree.

    For one polygon, the vertex count must equal the number of fan cones and
    of singularity entries, and the irredundant inequality count must equal
    the number of facet labels.
    """
    groups: dict[str, dict[str, int]] = {}
    for i, argv in enumerate(argvs):
        groups.setdefault(argv[argv.index("--r") + 1], {})[argv[0]] = i
    bad: set[int] = set()
    for idx in groups.values():
        try:
            docs = {cmd: json.loads(outputs[i]) for cmd, i in idx.items()}
            vertices = len(docs["vertices"]["vertices"])
            ok = (len(docs["fan"]["cones"]) == vertices
                  and len(docs["singular"]["vertices"]) == vertices
                  and len(docs["polytope"]["ineqs"]) == len(docs["facets"]["facets"]))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            bad.update(idx.values())
    return bad


def chart_mismatches(argvs: list[list[str]], outputs: list[str]) -> set[int]:
    """Indices of --chart diag/entry fingerprint pairs of one polygon that differ."""
    by_side: dict[str, list[int]] = {}
    for i, argv in enumerate(argvs):
        if argv[0] == "fingerprint" and "--chart" in argv and argv[argv.index("--m") + 1] == "1":
            by_side.setdefault(argv[argv.index("--r") + 1], []).append(i)
    bad: set[int] = set()
    for idx in by_side.values():
        if len({outputs[i] for i in idx}) > 1:
            bad.update(idx)
    return bad


def failed_requests(workload: str, argvs: list[list[str]], codes: list,
                    outputs: list[str], expected: dict[str, str]) -> dict[int, str]:
    """Map from request index to the reason it failed."""
    failed: dict[int, str] = {}
    for i, (argv, code, out) in enumerate(zip(argvs, codes, outputs)):
        if code != 0:
            failed[i] = f"exit {code}"
        elif expected.get(request_key(argv), digest(out)) != digest(out):
            failed[i] = "stdout differs from the recorded digest"
    if workload == "polygon-session":
        for i in polygon_mismatches(argvs, outputs):
            failed.setdefault(i, "displays of one polygon disagree")
    if workload == "duality-fingerprint":
        for i in chart_mismatches(argvs, outputs):
            failed.setdefault(i, "fingerprints differ between charts")
    return failed
