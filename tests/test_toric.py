import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from weightpoly import exact, polytopes, toric
from weightpoly.builders import SideData, gt_slice, polygon_hrep, triangle_inequalities
from weightpoly.exact import primitive_vector, vec
from weightpoly.polytopes import (HPolytope, VPolytope, _joint_primitive, h_to_v,
                                  polytope_dim, remove_redundant, v_to_h)
from weightpoly.toric import (_JSON_STATUS, Cone, Fan, VertexSingularity, _catalogue,
                              _fan_json_text, _singularity_json_text, facet_labels,
                              fan_fingerprint, fan_to_json_dict, normal_fan,
                              singularity_report)
from caches import clear_caches
from oracles import pairwise_cone_adjacency
from test_polytopes import full_dimensional_polytopes, small_bounded_polytopes


def box2():
    return HPolytope(dim=2, ineqs=(
        (vec([1, 0]), Fraction(1)), (vec([-1, 0]), Fraction(0)),
        (vec([0, 1]), Fraction(1)), (vec([0, -1]), Fraction(0))), eqs=())


def weighted_triangle():
    # vertices (0,0), (1,0), (0,2); vertex (1,0) is an order-2 quotient point
    return v_to_h(VPolytope.from_points(
        2, [vec([0, 0]), vec([1, 0]), vec([0, 2])]))


def test_cone_validation():
    Cone(rays=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        Cone(rays=((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        Cone(rays=((1, 0), (-1, 0)))
    for rays in [((0, 0), (1, 0)), ((2, 4),), ((1, 2), (3, 1), (-1, -2))]:
        with pytest.raises(ValueError):
            Cone(rays=rays)
    assert Cone(rays=((1, 2), (-1, 0), (0, -1))).rays == ((1, 2), (-1, 0), (0, -1))


def test_cone_entries_follow_the_lattice_data_rule():
    # ints pass, integral rationals convert to ints
    assert Cone(rays=((Fraction(4, 2), 1), (0, Fraction(-1)))).rays == ((2, 1), (0, -1))
    assert all(type(c) is int for ray in Cone(rays=((Fraction(1), 0), (0, 1))).rays
               for c in ray)
    # a non-integral rational, a float or a bool is refused, never truncated
    for bad in [Fraction(3, 2), "3/2", 1.9, 1.0, True]:
        with pytest.raises(ValueError):
            Cone(rays=((bad, 0), (0, 1)))


@pytest.mark.parametrize("weights", [("5/2", 3, 4, 5, 6, 7), (4,) * 10],
                         ids=["half-integral", "equal-weight-10"])
def test_display_chain_stays_on_the_int_path(monkeypatch, weights):
    clear_caches()
    P = polygon_hrep(SideData.from_weights(1, weights))
    polytopes._incidence(P)
    rows = [primitive_vector((b,) + tuple(-c for c in a)) for a, b in P.ineqs]
    rows.append((1,) + (0,) * P.dim)
    real = exact.clear_denominators
    calls = []

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(exact, "clear_denominators", counted)
    polytopes._dd_extreme_rays(rows, P.dim + 1)
    polytopes._vertex_graph(P)
    normal_fan(P).singularities
    assert calls == []


def test_display_chain_runs_no_record_constructor(monkeypatch):
    clear_caches()
    P = polygon_hrep(SideData.from_weights(1, (1, 2) * 4))
    calls = []
    for cls in (Cone, Fan, VPolytope):
        real = cls.__post_init__

        def counted(self, cls=cls, real=real):
            calls.append(cls.__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    h_to_v(P)
    normal_fan(P).singularities
    assert calls == []
    Cone(((1, 0),))  # the counter does see a constructor call
    assert calls == ["Cone"]


def test_fan_layer_needs_no_rank_on_a_full_dimensional_polygon(monkeypatch):
    real_rank = polytopes.rank
    rank_calls = []

    def counted_rank(rows):
        rank_calls.append(len(rows))
        return real_rank(rows)

    monkeypatch.setattr(polytopes, "rank", counted_rank)
    s = SideData.from_weights(1, ("5/2", 3, 4, 5, 6, 7))
    P = polygon_hrep(s)
    assert any(c.denominator > 1 for v in h_to_v(P).vertices for c in v)
    fan_fingerprint(normal_fan(P))
    facet_labels(s, remove_redundant(P))
    assert rank_calls == []  # the polygon is full-dimensional, so no rank is needed


def test_normal_fan_square_structure():
    F = normal_fan(box2())
    assert F.ambient_dim == 2
    assert len(F.maximal_cones) == 4
    corner = dict(F.maximal_cones)[(Fraction(0), Fraction(0))]
    assert sorted(corner.rays) == [(0, 1), (1, 0)]  # primitive edge directions
    assert singularity_report(F).is_smooth


def test_normal_fan_requires_full_dimension():
    seg = HPolytope(dim=2, ineqs=((vec([1, 0]), Fraction(1)),
                                  (vec([-1, 0]), Fraction(0))),
                    eqs=((vec([0, 1]), Fraction(0)),))
    with pytest.raises(ValueError):
        normal_fan(seg)


def test_singularity_report_weighted_triangle():
    rep = singularity_report(normal_fan(weighted_triangle()))
    singular = rep.singular
    assert len(singular) == 1
    entry = singular[0]
    assert entry.vertex == (Fraction(1), Fraction(0))
    assert entry.kind == "cyclic_quotient" and entry.index == 2
    assert entry.label == "cyclic_quotient(2)"
    assert not rep.is_smooth


def test_singularity_report_nonsimplicial_vertex():
    octahedron = v_to_h(VPolytope.from_points(3, [
        vec([1, 0, 0]), vec([-1, 0, 0]), vec([0, 1, 0]),
        vec([0, -1, 0]), vec([0, 0, 1]), vec([0, 0, -1])]))
    rep = singularity_report(normal_fan(octahedron))
    assert not rep.is_smooth
    assert {e.kind for e in rep.entries} == {"non_simplicial"}
    statuses = {e["status"] for e in rep.to_json_dict()["vertices"]}
    assert statuses == {"nonsimplicial"}  # short form in JSON, long form on the object


def test_pentagon_facet_labels_frozen():
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))
    labels = facet_labels(s, remove_redundant(polygon_hrep(s)))
    got = {(l.tags, tuple(l.normal), l.rhs) for l in labels}
    assert got == {
        (("N1(2)",), (Fraction(1), Fraction(0)), Fraction(6)),
        (("N3(3)",), (Fraction(1), Fraction(-1)), Fraction(3)),
        (("N1(3)",), (Fraction(-1), Fraction(1)), Fraction(3)),
        (("N2(3)",), (Fraction(-1), Fraction(-1)), Fraction(-3)),
        (("N3(4)",), (Fraction(0), Fraction(1)), Fraction(6)),
    }


def test_coincident_catalogue_entries_share_one_facet():
    s = SideData.from_weights(1, (1, 1, 1, 1))
    labels = facet_labels(s, remove_redundant(polygon_hrep(s)))
    by_tags = {l.tags: (tuple(l.normal), l.rhs) for l in labels}
    assert by_tags == {
        ("N1(2)", "N3(3)"): ((Fraction(1),), Fraction(2)),
        ("N2(2)", "N3(2)", "N1(3)", "N2(3)"): ((Fraction(-1),), Fraction(0)),
    }


def test_facet_labels_reject_foreign_facets():
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))
    with pytest.raises(ValueError):
        facet_labels(s, box2())


def test_fan_fingerprint_invariance_and_separation():
    tri = weighted_triangle()
    swapped = HPolytope(dim=2, ineqs=tuple(((a[1], a[0]), b) for a, b in tri.ineqs),
                        eqs=())
    assert fan_fingerprint(normal_fan(tri)) == fan_fingerprint(normal_fan(swapped))
    assert fan_fingerprint(normal_fan(tri)) != fan_fingerprint(normal_fan(box2()))


def test_fan_json_shape():
    d = fan_to_json_dict(normal_fan(box2()))
    assert len(d["cones"]) == 4
    assert {"vertex", "rays", "index", "status"} <= set(d["cones"][0])
    assert fan_to_json_dict(Fan(2, ())) == {"cones": []}
    assert fan_to_json_dict(normal_fan(HPolytope(0, (), ()))) == {"cones": [
        {"vertex": [], "rays": [], "index": 1, "status": "smooth"}]}


def assert_fan_json_text_is_json_dumps(F):
    assert _fan_json_text(F) == json.dumps(fan_to_json_dict(F), indent=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(full_dimensional_polytopes())
def test_fan_json_text_is_json_dumps_of_the_fan_dict(P):
    assert_fan_json_text_is_json_dumps(normal_fan(P))


# The polygon-session bases, then its equal-weight sizes.
@pytest.mark.parametrize("r", [
    (1, 2, 2, 3, 3, 4), (1, 2, 2, 3, 3, 4, 4), (1, 1, 2, 2, 3, 3, 4, 5),
    (1, 2, 1, 3, 2, 4, 1, 3, 2), *((4,) * n for n in (6, 7, 8, 9, 10))])
@pytest.mark.parametrize("chart", ["diag", "entry"])
def test_polygon_fan_json_text_is_json_dumps_of_the_fan_dict(r, chart):
    s = SideData.from_weights(1, r)
    assert_fan_json_text_is_json_dumps(
        normal_fan(polygon_hrep(s) if chart == "diag" else gt_slice(s).entry_chart))


@pytest.mark.parametrize("F", [
    Fan(2, (((Fraction(1, 2), Fraction(-3)), Cone(((1, 0), (0, 1)))),)),
    Fan(2, (((0, 0), Cone(((1, 0), (0, 1)))), ((1, 0), Cone(((-1, 0), (0, 1)))),
            ((0, 1), Cone(((1, 0), (0, -1)))))),
    Fan(2, ()),
    normal_fan(HPolytope(0, (), ())),
], ids=["fraction-vertex", "separate-ray-tuples", "no-cones", "point"])
def test_hand_built_fan_json_text_is_json_dumps_of_the_fan_dict(F):
    assert_fan_json_text_is_json_dumps(F)


def assert_singularity_json_text_is_json_dumps(F):
    assert _singularity_json_text(F) == json.dumps(F.singularities.to_json_dict(), indent=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_bounded_polytopes())
def test_singularity_json_text_is_json_dumps_of_the_report_dict(P):
    if polytope_dim(P) == P.dim:
        assert_singularity_json_text_is_json_dumps(normal_fan(P))


# The polygon-session bases, then its equal-weight sizes.
@pytest.mark.parametrize("r", [
    (1, 2, 2, 3, 3, 4), (1, 2, 2, 3, 3, 4, 4), (1, 1, 2, 2, 3, 3, 4, 5),
    (1, 2, 1, 3, 2, 4, 1, 3, 2), (1, 1, 1, 1, 1, 1, 1), ("5/2", 3, 4, 5, 6, 7),
    *((4,) * n for n in (6, 7, 8, 9, 10))])
@pytest.mark.parametrize("chart", ["diag", "entry"])
def test_polygon_singularity_json_text_is_json_dumps_of_the_report_dict(r, chart):
    s = SideData.from_weights(1, r)
    assert_singularity_json_text_is_json_dumps(
        normal_fan(polygon_hrep(s) if chart == "diag" else gt_slice(s).entry_chart))


OCTAHEDRON = VPolytope.from_points(3, [vec([1, 0, 0]), vec([-1, 0, 0]), vec([0, 1, 0]),
                                       vec([0, -1, 0]), vec([0, 0, 1]), vec([0, 0, -1])])


@pytest.mark.parametrize("F", [
    Fan(2, (((Fraction(1, 2), Fraction(-3)), Cone(((1, 0), (0, 1)))),)),
    Fan(2, (((Fraction(-7, 3), 0), Cone(((1, 0), (1, 2)))),
            ((1, Fraction(5, 4)), Cone(((1, 0), (0, 1), (-1, 1)))))),
    Fan(3, (((0, 0, Fraction(1, 2)), Cone(((1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)))),)),
    normal_fan(v_to_h(OCTAHEDRON)),
    Fan(2, ()),
    normal_fan(HPolytope(0, (), ())),
], ids=["fraction-vertex", "cyclic-and-non-simplicial", "non-simplicial-3d", "octahedron",
        "no-cones", "point"])
def test_hand_built_singularity_json_text_is_json_dumps_of_the_report_dict(F):
    assert_singularity_json_text_is_json_dumps(F)
    # The fan's JSON reads the same cached vertex texts.
    assert_fan_json_text_is_json_dumps(F)


def test_json_status_reads_the_one_mapping():
    assert _JSON_STATUS == {"smooth": "smooth", "cyclic_quotient": "cyclic",
                            "non_simplicial": "nonsimplicial"}
    for kind, word in _JSON_STATUS.items():
        assert VertexSingularity((), kind, 1).json_status == word


def test_both_fan_writers_format_each_vertex_once_per_fan(monkeypatch):
    F = Fan(2, (((Fraction(1, 2), Fraction(-3)), Cone(((1, 0), (0, 1)))),
                ((0, 1), Cone(((-1, 0), (0, -1))))))
    calls = []
    real = toric.frac_str

    def counted(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(toric, "frac_str", counted)
    fan_text, report_text = _fan_json_text(F), _singularity_json_text(F)
    assert len(calls) == 4
    assert _fan_json_text(F) == fan_text and _singularity_json_text(F) == report_text
    assert len(calls) == 4


@pytest.mark.parametrize("r", [(3, 3, 3, 3, 3), (3, 3, 3, 3, 4), ("5/2", 3, 4, 5, 6, 7),
                               (1, 2, 2, 3, 3, 4, 4), (1, 2, 3, 4, 5, 6, 7, 8, 9)])
def test_polygon_fan_edges_match_the_pairwise_rule(r):
    F = normal_fan(polygon_hrep(SideData.from_weights(1, r)))
    assert [frozenset(e) for e in F.edges] == pairwise_cone_adjacency(F)
    assert 2 * len(F.edges) == sum(len(c.rays) for _, c in F.maximal_cones)


@pytest.mark.parametrize("r, digest", [
    ((3, 3, 3, 3, 3), "6b3bf2ff230579fc2c13e99d498d8a6d588b4feb72ed16d4177f3cbb75f4345f"),
    ((3, 3, 3, 3, 4), "1682b4d786eabb51b092aa3e255a776f763735b48155c872105ad24ea458cf06"),
    (("5/2", 3, 4, 5, 6, 7), "32c8e277589efeecf35bae5c0c30fa06c96973d63f21183fd5d259ea12ff5fe3"),
    ((1, 2, 2, 3, 3, 4, 4), "23631505a31036d09c9c87f70e62d3c88149ca24117554fa4b8c879f8cc18e6c"),
    ((1, 2, 3, 4, 5, 6, 7, 8, 9),
     "98d5ce7281a58a02e5648d5a2e96a65dab4a96ef932eac37011d7879df078470"),
])
def test_polygon_fan_fingerprints_are_pinned(r, digest):
    fp = fan_fingerprint(normal_fan(polygon_hrep(SideData.from_weights(1, r))))
    assert hashlib.sha256(fp.encode()).hexdigest() == digest


def segment_fan(edges=()):
    """The normal fan of [0, 1], built by hand."""
    return Fan(1, (((0,), Cone(((1,),))), ((1,), Cone(((-1,),)))), edges)


@pytest.mark.parametrize("edges", [
    ((False, 1),), ((0, True),), ((0, 2),), ((-1, 1),), ((1, 0),), ((0, 0),),
    ((0,),), ((0, 1, 1),), ([0, 1],), ((0, 1), (0, 1)), ((Fraction(0), 1),)],
    ids=["bool-i", "bool-j", "out-of-range", "negative", "reversed", "loop",
         "short", "long", "list", "repeated", "fraction"])
def test_fan_rejects_malformed_edges(edges):
    with pytest.raises(ValueError):
        segment_fan(edges)


@pytest.mark.parametrize("cones", [
    (((0, 0), ((1, 0), (0, 1))),), (((0, 0),),), ((Cone(((1, 0), (0, 1))), (0, 0)),),
    (Cone(((1, 0), (0, 1))),), (((0, 0), Cone(((1, 0), (0, 1))), 1),)],
    ids=["rays-not-a-cone", "short", "swapped", "bare-cone", "long"])
def test_fan_rejects_malformed_maximal_cones(cones):
    with pytest.raises(ValueError, match="is not a \\(vertex, Cone\\) pair"):
        Fan(2, cones)


@pytest.mark.parametrize("call, message", [
    (lambda: Fan(2, (((0,), Cone(((1, 0),))),)), "cone vertex has wrong dimension"),
    (lambda: Fan(1, (((0,), Cone(((1, 0),))),)), "cone ray has wrong dimension"),
    (lambda: facet_labels(SideData.from_weights(2, (1, 1, 1, 1)), box2()),
     "diagonal coordinates exist only for m=1"),
], ids=["cone-vertex", "cone-ray", "facet-labels-m2"])
def test_malformed_toric_input_raises_its_pinned_text(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_fan_fingerprint_reads_the_edges_it_is_given():
    segment = HPolytope(dim=1, ineqs=((vec([1]), Fraction(1)), (vec([-1]), Fraction(0))),
                        eqs=())
    F = normal_fan(segment)
    assert F == segment_fan(((0, 1),))
    with pytest.raises(ValueError):
        fan_fingerprint(segment_fan())
    assert fan_fingerprint(segment_fan(((0, 1),))) == fan_fingerprint(F)
    square = normal_fan(box2())
    with pytest.raises(ValueError):
        fan_fingerprint(Fan(2, square.maximal_cones))
    assert (fan_fingerprint(Fan(2, square.maximal_cones, square.edges))
            == fan_fingerprint(square))


@pytest.mark.parametrize("r", [
    (3, 3, 3, 3, 3), (1, 1, 1, 1), (3, 3, 3, 3, 4), (1, 2, 3, 4, 5, 6, 7, 8, 9),
    ("5/2", "5/2", 3, 3, 3), ("1/2", "1/3", "1/4", "1/5", "1/6", "1/7")])
def test_catalogue_keys_are_the_joint_primitive_rows_in_catalogue_order(r):
    s = SideData.from_weights(1, r)
    expected = {}
    for tri in triangle_inequalities(s):
        for tag, a, b in sorted(tri):
            expected.setdefault(_joint_primitive(a, b), []).append(tag)
    cat = _catalogue(s)
    assert list(cat.items()) == [(key, tuple(tags)) for key, tags in expected.items()]
