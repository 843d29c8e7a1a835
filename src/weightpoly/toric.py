"""Vertex fans, singularity classification, and facet naming.

For a full-dimensional lattice-rational polytope, each vertex spans a cone on
its primitive inward edge directions.  The toric variety this fan describes is
smooth at a vertex exactly when those directions form a lattice basis.  A
simplicial cone whose edge directions span a sublattice of index k >= 2 is
reported as cyclic_quotient(k): k is that index, and the local group is not
computed, so it need not be cyclic or of order k (ROADMAP.md, item 3).  Cones
with more than dim rays are reported as non-simplicial, never refined.
The index is exact.lattice_index of the cone's rays, which stops reducing
rays once the index is 1.
A Cone that a caller builds takes ray entries by the lattice-data rule of the
exact module: ints pass as they are, integral rationals convert to ints, and
a float, a bool or a non-integral rational raises ValueError.  normal_fan
does not rebuild its cones that way: it assembles each cone, and the fan,
from the vertex graph, whose rays are already primitive integer edge
directions, one tuple per distinct direction.  The two JSON displays of a
fan, _fan_json_text (the fan) and _singularity_json_text (its singularity
report), are written straight from these records: each shared ray's text
once per call, and each cone's vertex text once per fan (Fan._vertex_json),
which both read.

Facets of the m=1 diagonal polytopes are matched against the fixed catalogue
of supporting hyperplanes x_1 = r_1 +- r_2, x_{i-1} +- x_{i-2} = r_i,
x_{n-3} = r_{n-1} +- r_n, and labeled N1/N2/N3 by index.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .builders import SideData, triangle_inequalities
from .exact import Vec, _int_rows, frac_str, lattice_index, vec
from .polytopes import (
    HPolytope,
    _assembled,
    _check_dim,
    _fractions,
    _joint_primitive,
    _record,
    _vertex_graph,
    canonical_incidence,
    polytope_dim,
)


@_record
class Cone:
    """A cone spanned by primitive, pairwise non-parallel integer rays.

    A cone built by a caller is checked, its ray entries read by the
    lattice-data rule of exact._int_rows (module docstring); normal_fan
    assembles its cones from the vertex graph without these checks.
    """

    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rays = tuple(map(tuple, _int_rows(self.rays)))
        except TypeError as exc:
            raise ValueError(f"cone rays must be integer vectors: {exc}") from None
        if any(gcd(*ray) != 1 for ray in rays):
            raise ValueError("cone rays must be primitive integer vectors")
        # A primitive ray is parallel to another only if equal to it or to its negation.
        if len({r for ray in rays for r in (ray, tuple(-c for c in ray))}) < 2 * len(rays):
            raise ValueError("cone rays must be pairwise non-parallel")
        object.__setattr__(self, "rays", rays)


@_record
class Fan:
    """One cone per vertex of the source polytope, tagged with it; its edges as pairs i < j.

    Two derived values are cached on the fan: its singularity report
    (singularities) and each cone's vertex JSON text (_vertex_json).
    """

    ambient_dim: int
    maximal_cones: tuple[tuple[Vec, Cone], ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_dim(self.ambient_dim)
        cones = []
        for entry in self.maximal_cones:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[1], Cone)):
                raise ValueError(f"maximal cone {entry!r} is not a (vertex, Cone) pair")
            v, c = vec(entry[0]), entry[1]
            if len(v) != self.ambient_dim:
                raise ValueError("cone vertex has wrong dimension")
            for ray in c.rays:
                if len(ray) != self.ambient_dim:
                    raise ValueError("cone ray has wrong dimension")
            cones.append((v, c))
        cones = tuple(cones)
        edges = tuple(self.edges)
        for last, e in zip(((),) + edges, edges):  # one pass; a bool is not an int
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                    and 0 <= e[0] < e[1] < len(cones) and last < e):
                raise ValueError(f"fan edge {e!r} is not a cone-index pair i < j after {last!r}")
        object.__setattr__(self, "maximal_cones", cones)
        object.__setattr__(self, "edges", edges)

    @functools.cached_property
    def singularities(self) -> SingularityReport:
        """Classify each maximal cone, once per fan.

        Lattice-basis rays are smooth; a simplicial cone whose rays span a
        sublattice of index k >= 2 is labelled cyclic_quotient(k), with no
        check that its local group is cyclic of order k; cones with more rays
        than the dimension are non-simplicial (index still reported for the
        lattice their rays generate).  One lattice_index per cone, which
        inserts the rays into a triangular basis and stops at the first ray
        that makes the index 1.
        """
        entries = []
        for v, cone in self.maximal_cones:
            idx = lattice_index(cone.rays, self.ambient_dim)
            if len(cone.rays) > self.ambient_dim:
                kind = "non_simplicial"
            elif idx == 1:
                kind = "smooth"
            else:
                kind = "cyclic_quotient"
            entries.append(VertexSingularity(v, kind, idx))
        return SingularityReport(tuple(entries))

    @functools.cached_property
    def _vertex_json(self) -> tuple[str, ...]:
        """Each cone's vertex as the JSON text of its frac_str list at the
        depth where both JSON writers put it (a "vertex" value of an item of
        the top object's list), once per fan.  A frac_str text holds only
        ASCII digits, "-" and "/", which JSON writes unescaped."""
        return tuple([_json_list(",\n        ".join([f'"{frac_str(c)}"' for c in v]), "      ")
                      for v, _ in self.maximal_cones])


@_record
class VertexSingularity:
    """Local classification at one vertex: smooth, cyclic quotient, or worse."""

    vertex: Vec
    kind: str                   # "smooth" | "cyclic_quotient" | "non_simplicial"
    index: int

    @property
    def label(self) -> str:
        if self.kind == "cyclic_quotient":
            return f"cyclic_quotient({self.index})"
        return self.kind

    @property
    def json_status(self) -> str:
        return _JSON_STATUS[self.kind]


# The JSON status word of each kind.
_JSON_STATUS = {"smooth": "smooth", "cyclic_quotient": "cyclic",
                "non_simplicial": "nonsimplicial"}


@_record
class SingularityReport:
    entries: tuple[VertexSingularity, ...]

    @property
    def singular(self) -> tuple[VertexSingularity, ...]:
        return tuple(e for e in self.entries if e.kind != "smooth")

    @property
    def is_smooth(self) -> bool:
        return not self.singular

    def to_json_dict(self) -> dict:
        return {"vertices": [
            {"vertex": [frac_str(c) for c in e.vertex],
             "status": e.json_status, "index": e.index}
            for e in self.entries]}


@_record
class FacetLabel:
    """A facet inequality together with every catalogue tag it matches."""

    normal: Vec
    rhs: Fraction
    tags: tuple[str, ...]


@functools.lru_cache(maxsize=512)
def normal_fan(P: HPolytope) -> Fan:
    """The fan of vertex tangent cones (primitive inward edge directions).

    Requires a bounded, full-dimensional polytope; cones are ordered by vertex
    and there is exactly one per vertex.  Rays and edges are those _vertex_graph
    already holds, the rays as primitive integer edge directions.  Cached per
    polytope, so each fan, and with it its singularity report, is built once.

    The cones and the fan are assembled, not rebuilt through their checking
    constructors: each ray set is primitive int tuples, sorted, and pairwise
    non-parallel, since two edges at a vertex of a polytope are never
    collinear; the vertices are _vertex_graph's Fraction tuples and the
    edges the sorted pairs i < j.
    """
    dim = polytope_dim(P)
    if dim == -1:
        raise ValueError("polytope is empty")
    if dim != P.dim:
        raise ValueError("normal fan needs a full-dimensional polytope: "
                         f"dimension {dim} in ambient dimension {P.dim}")
    verts, neighbors = _vertex_graph(P)
    cones = []
    for v, edges in zip(verts, neighbors):
        rays = tuple(sorted(edges.values()))
        if len(rays) < P.dim:
            raise AssertionError("vertex with fewer edges than the dimension")
        cones.append((v, _assembled(Cone, rays=rays)))
    edges = tuple((i, j) for i, nb in enumerate(neighbors) for j in sorted(nb) if i < j)
    return _assembled(Fan, ambient_dim=P.dim, maximal_cones=tuple(cones), edges=edges)


def singularity_report(F: Fan) -> SingularityReport:
    """The classification of each maximal cone of F, F.singularities: computed
    on the first read and kept on the fan."""
    return F.singularities


def _catalogue(s: SideData) -> dict[tuple[tuple[int, ...], int], tuple[str, ...]]:
    """Each coprime integer row (an HPolytope's _coprime form) of the triangle
    inequalities, mapped to the tags of the rows on it; rows and tags in
    catalogue order, N1, N2, N3 per triangle.  Each key is the row's
    _joint_primitive form, the rule that made the record's rows.
    """
    cat: dict[tuple[tuple[int, ...], int], tuple[str, ...]] = {}
    for tri in triangle_inequalities(s):
        for tag, a, b in sorted(tri):
            key = _joint_primitive(a, b)
            cat[key] = cat.get(key, ()) + (tag,)
    return cat


def facet_labels(s: SideData, P: HPolytope) -> list[FacetLabel]:
    """Tag each facet of an m=1 diagonal polytope with its catalogue names.

    Coincident catalogue hyperplanes (e.g. r_1 = r_2 making two entries both
    read x_1 = 0) put several tags on one facet.  A facet matching nothing
    raises, since the catalogue is exhaustive for these polytopes.  The
    lookup key of a facet is its row of P._coprime, and each label holds
    that row as Fractions (_fractions).  Side data with m != 1 has no
    catalogue: triangle_inequalities raises for it.
    """
    cat = _catalogue(s)
    labels = []
    for (a, b), key in zip(P.ineqs, P._coprime):
        if not any(a):
            continue
        tags = cat.get(key)
        if tags is None:
            raise ValueError(
                f"facet outside the label catalogue: {[frac_str(c) for c in a]} <= {frac_str(b)}")
        *normal, rhs = _fractions((*key[0], key[1]))
        labels.append(FacetLabel(tuple(normal), rhs, tags))
    return labels


def fan_fingerprint(F: Fan) -> str:
    """Canonical encoding of the fan's combinatorics.

    Cones are labeled by (ray count, lattice index, simplicial or not) and the
    graph of F.edges, connected for a polytope, is canonicalized (several cones
    without edges raise ValueError); equal fingerprints are necessary for the
    fans to define the same toric variety, not sufficient (rays enter only by index).
    """
    if len(F.maximal_cones) > 1 and not F.edges:
        raise ValueError("fan of several cones has no edges")
    report = F.singularities
    labels = [(len(c.rays), e.index, e.kind != "non_simplicial")
              for (_, c), e in zip(F.maximal_cones, report.entries)]
    enc = canonical_incidence(len(labels), labels, [frozenset(e) for e in F.edges])
    return f"ambient={F.ambient_dim};cones={len(labels)};{enc}"


def fan_to_json_dict(F: Fan) -> dict:
    """The fan as JSON data: per cone its vertex, rays, index and status.

    The rays are the cones' own int tuples, which JSON writes as lists.
    `fan --format json` prints _fan_json_text(F), which writes this data's
    text straight from the records; this dict is its test oracle.
    """
    report = F.singularities
    return {"cones": [
        {"vertex": [frac_str(c) for c in v],
         "rays": list(cone.rays),
         "index": e.index,
         "status": e.json_status}
        for (v, cone), e in zip(F.maximal_cones, report.entries)]}


def _json_list(body: str, indent: str) -> str:
    """The JSON list at indent, as json.dumps(..., indent=2) writes it, whose
    items' texts, joined by "," + newline + indent + two spaces, are body;
    "[]" when body is empty."""
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _fan_json_text(F: Fan) -> str:
    """json.dumps(fan_to_json_dict(F), indent=2), byte for byte, written from
    the records: no payload dicts, each cone from one template.

    Each distinct ray tuple is written once per call, keyed on its id: F
    holds every tuple for the whole call, so no id is reused, and a fan from
    normal_fan shares one tuple per edge direction (the n=10 equal-weight
    fan's 1,302 rays are 280 tuples).  Each vertex's text is the fan's
    cached F._vertex_json, which _singularity_json_text reads too.  The
    status words hold only ASCII letters, which JSON writes unescaped.
    """
    ray_text: dict[int, str] = {}
    cones = []
    for (_, cone), vertex, e in zip(F.maximal_cones, F._vertex_json, F.singularities.entries):
        texts = []
        for ray in cone.rays:
            text = ray_text.get(id(ray))
            if text is None:
                text = ray_text[id(ray)] = _json_list(
                    ",\n          ".join(map(repr, ray)), "        ")
            texts.append(text)
        rays = _json_list(",\n        ".join(texts), "      ")
        cones.append(f'{{\n      "vertex": {vertex},\n      "rays": {rays},'
                     f'\n      "index": {e.index!r},\n      "status": "{e.json_status}"\n    }}')
    return '{\n  "cones": ' + _json_list(",\n    ".join(cones), "  ") + "\n}"


def _singularity_json_text(F: Fan) -> str:
    """json.dumps(F.singularities.to_json_dict(), indent=2), byte for byte,
    written from the records as _fan_json_text writes the fan: each entry
    from one template, its vertex text the fan's cached F._vertex_json.
    `singular --format json` prints it; to_json_dict is its test oracle."""
    entries = [f'{{\n      "vertex": {vertex},\n      "status": "{e.json_status}",'
               f'\n      "index": {e.index!r}\n    }}'
               for vertex, e in zip(F._vertex_json, F.singularities.entries)]
    return '{\n  "vertices": ' + _json_list(",\n    ".join(entries), "  ") + "\n}"
