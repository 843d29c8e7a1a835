"""Built-in battery of frozen worked examples.

Each claim pins an independently known value (vertex lists, singular-point
counts, facet counts, the 11-point counting anchor, fiber sizes) and recomputes
it from scratch; the report lists expected versus computed per claim.  This is
the one-shot "is the whole pipeline still right" switch, exposed on the command
line as the paper-examples subcommand.
"""

from __future__ import annotations

from .builders import SideData, gt_slice, polygon_hrep
from .counting import real_fiber_size, verify_duality, verify_ehrhart_identity
from .exact import frac_str
from .polytopes import _record, h_to_v, polytope_dim, remove_redundant
from .toric import _catalogue, normal_fan, singularity_report


@_record
class ReferenceClaim:
    claim_id: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@_record
class ReferenceReport:
    claims: tuple[ReferenceClaim, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json_dict(self) -> dict:
        return {"claims": [
            {"claim": c.claim_id, "expected": c.expected,
             "computed": c.computed, "pass": c.passed}
            for c in self.claims]}


_VERTEX_CLAIMS = {
    "pentagon-vertices": ((3, 3, 3, 3, 3),
                          [["0", "3"], ["3", "0"], ["3", "6"], ["6", "3"], ["6", "6"]]),
    "hexagon-vertices": ((3, 3, 3, 3, 4),
                         [["0", "3"], ["2", "1"], ["4", "1"], ["4", "7"], ["6", "3"], ["6", "7"]]),
    "heptagon-vertices": ((3, 4, 3, 4, 3),
                          [["1", "2"], ["1", "4"], ["2", "1"], ["4", "1"], ["4", "7"], ["7", "4"], ["7", "7"]]),
}

_SINGULAR_CLAIMS = {
    "pentagon-singular-points": ((3, 3, 3, 3, 3), {"count": 2, "orders": [2, 2]}),
    "hexagon-singular-points": ((3, 3, 3, 3, 4), {"count": 1, "orders": [2]}),
    "heptagon-singular-points": ((3, 4, 3, 4, 3), {"count": 0, "orders": []}),
}


def reference_battery() -> ReferenceReport:
    """Recompute every frozen claim."""
    claims: list[ReferenceClaim] = []

    for claim_id, (r, expected) in _VERTEX_CLAIMS.items():
        verts = h_to_v(polygon_hrep(SideData.from_weights(1, r))).vertices
        computed = [[frac_str(c) for c in v] for v in verts]
        claims.append(ReferenceClaim(claim_id, expected, computed))

    for claim_id, (r, expected) in _SINGULAR_CLAIMS.items():
        report = singularity_report(normal_fan(polygon_hrep(SideData.from_weights(1, r))))
        singular = report.singular
        computed = {"count": len(singular), "orders": sorted(e.index for e in singular)}
        claims.append(ReferenceClaim(claim_id, expected, computed))

    simplex = remove_redundant(polygon_hrep(
        SideData.from_weights(1, (2, 2, 2, 2, 2, 9))))
    claims.append(ReferenceClaim(
        "simplex-shape",
        {"facets": 4, "vertices": 4},
        {"facets": len(simplex.ineqs), "vertices": len(h_to_v(simplex).vertices)}))

    cat = _catalogue(SideData.from_weights(1, (3, 3, 3, 3, 4)))
    claims.append(ReferenceClaim(
        "catalogue-coincidence",
        True, any({"N2(2)", "N3(2)"} <= set(tags) for tags in cat.values())))

    s_dim = SideData.from_weights(2, (2, 2, 2, 2, 2, 2))
    m, n = s_dim.m, s_dim.n
    claims.append(ReferenceClaim(
        "slice-dimension",
        m * n - 2 * m - m * m,
        polytope_dim(gt_slice(s_dim).entry_chart)))

    dual_report = verify_duality(SideData.from_weights(1, (3, 3, 3, 3, 4)), 3)
    claims.append(ReferenceClaim("duality-invariants", True, dual_report.all_pass))

    identity = verify_ehrhart_identity(SideData.from_weights(1, (3, 3, 3, 3, 4)), 3)
    by_dilate = {c.dilate: c for c in identity.checks}
    claims.append(ReferenceClaim(
        "count-identity",
        {"dilate_1_count": 11, "all_equal": True},
        {"dilate_1_count": by_dilate[1].lattice_count if 1 in by_dilate else None,
         "all_equal": identity.all_pass and len(identity.checks) == 3}))

    claims.append(ReferenceClaim("fiber-size-1-5", 4, real_fiber_size(1, 5)))
    claims.append(ReferenceClaim("fiber-size-1-6", 8, real_fiber_size(1, 6)))

    return ReferenceReport(tuple(claims))
