import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import sys
from collections import Counter
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weightpoly import cli, exact, polytopes
from weightpoly.builders import (GTSpec, SideData, dual_side_data, fm_polytope, gt_hrep,
                                 gt_slice, polygon_hrep)
from weightpoly.counting import verify_duality
from weightpoly.exact import (clear_denominators, dot, integer_solutions, primitive_vector,
                              vec)
from weightpoly.polytopes import (AffineMap, HPolytope, UnboundedPolytopeError,
                                  VPolytope, _affine_hull,
                                  _hpolytope, _incidence, _joint_primitive, _onto_hull,
                                  _scan_setup,
                                  _vertex_graph,
                                  affine_image,
                                  canonical_incidence,
                                  combinatorial_fingerprint, contains,
                                  count_lattice_points, edges_at_vertex,
                                  empty_hrep, h_to_v, lattice_points,
                                  polytope_dim,
                                  remove_redundant, restrict_to_affine_hull,
                                  v_to_h)
from weightpoly.toric import Cone, Fan, facet_labels, fan_fingerprint, normal_fan
from caches import clear_caches
from oracles import (_rank, all_vertex_affine_hull_equalities,
                     brute_force_canonical_incidence, brute_force_edges,
                     chart_route_remove_redundant, chart_route_v_to_h,
                     constructor_route_hpolytope, doubled_row_incidence,
                     brute_force_lattice_points, brute_force_vertices, gt_pattern_count,
                     pairwise_cone_adjacency, random_box_with_cuts, random_box_with_equalities,
                     reference_dd_extreme_rays, reference_refine, section_rule_h_to_v,
                     tightness_incidence, v_to_h_route_remove_redundant)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    import workloads
finally:
    sys.path.remove(BENCH_DIR)


def box(dim, lo, hi):
    ineqs = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        ineqs.append((tuple(vec(e)), Fraction(hi)))
        ineqs.append((tuple(vec([-c for c in e])), Fraction(-lo)))
    return HPolytope(dim=dim, ineqs=tuple(ineqs), eqs=())


SQUARE = box(2, 0, 1)


def _rows(pairs):
    return tuple((vec(a), Fraction(b)) for a, b in pairs)


def _minus(u, v):
    return tuple(a - b for a, b in zip(u, v))


def test_h_to_v_square():
    V = h_to_v(SQUARE)
    assert V.vertices == tuple(sorted(
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
         (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))))


def test_h_to_v_matches_subset_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 3)
        P = box(d, rng.randint(-3, 0), rng.randint(1, 4))
        extra = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(extra):
            P = HPolytope(dim=d, ineqs=P.ineqs + ((vec(extra), Fraction(rng.randint(0, 6))),), eqs=())
        assert h_to_v(P).vertices == brute_force_vertices(P)


def test_empty_detection_and_certificate():
    infeasible = HPolytope(dim=1, ineqs=((vec([1]), Fraction(0)),
                                         (vec([-1]), Fraction(-1))), eqs=())
    assert h_to_v(infeasible).vertices == ()
    cert = remove_redundant(infeasible)
    assert cert == empty_hrep(1)


def test_empty_with_recession_rays_is_still_empty():
    P = HPolytope(dim=2, ineqs=((vec([1, 0]), Fraction(0)),
                                (vec([-1, 0]), Fraction(-1)),
                                (vec([0, 1]), Fraction(5))), eqs=())
    assert h_to_v(P).vertices == ()


def test_unbounded_raises():
    half = HPolytope(dim=2, ineqs=((vec([1, 0]), Fraction(1)),), eqs=())
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(half)


@pytest.mark.parametrize("eqs", [(), (((0, 0, 1), 2),)])
def test_slabs_raise_when_feasible_and_are_empty_when_not(eqs):
    """The normals of a slab miss a line, so the homogenized cone is not pointed."""
    d = 3 if eqs else 2
    x = (1,) + (0,) * (d - 1)
    minus_x = tuple(-c for c in x)
    slab = HPolytope(d, _rows([(x, 1), (minus_x, 0)]), _rows(eqs))
    with pytest.raises(UnboundedPolytopeError, match="recession line"):
        h_to_v(slab)
    infeasible = HPolytope(d, _rows([(x, 0), (minus_x, -1)]), _rows(eqs))
    assert h_to_v(infeasible) == VPolytope(d, ())
    with pytest.raises(UnboundedPolytopeError, match="recession line"):
        h_to_v(HPolytope(d, (), _rows(eqs)))


def test_remove_redundant_drops_slack_row_and_is_idempotent():
    loose = HPolytope(dim=2, ineqs=SQUARE.ineqs + ((vec([1, 1]), Fraction(9)),), eqs=())
    tight = remove_redundant(loose)
    assert len(tight.ineqs) == 4
    assert remove_redundant(tight) == tight


def test_v_to_h_from_points_filters_interior():
    pts = [vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1]), vec(["1/2", "1/2"])]
    V = VPolytope.from_points(2, pts)
    assert len(V.vertices) == 4
    H = v_to_h(V)
    assert sorted(h_to_v(H).vertices) == sorted(V.vertices)


def test_contains_boundary_interior_outside():
    assert contains(SQUARE, vec([0, 0]))
    assert contains(SQUARE, vec(["1/2", "1/3"]))
    assert not contains(SQUARE, vec([2, 0]))
    diagonal = HPolytope(2, SQUARE.ineqs, ((vec([1, -1]), Fraction(0)),))
    assert contains(diagonal, (1, 1)) and not contains(diagonal, (1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: VPolytope(2, ((1,),)), "vertex has wrong length"),
    (lambda: AffineMap(1, 2, ((1,),), (0,)),
     "matrix/offset rows must match the codomain dimension"),
    (lambda: AffineMap(2, 1, ((1,),), (0,)), "matrix columns must match the domain dimension"),
    (lambda: AffineMap.identity(2).apply((1,)), "point has wrong dimension"),
    (lambda: contains(SQUARE, (1,)), "point has wrong dimension"),
    (lambda: edges_at_vertex(SQUARE, ("1/2", 0)), "('1/2', '0') is not a vertex of this polytope"),
    (lambda: affine_image(SQUARE, AffineMap.identity(3)),
     "map domain does not match the polytope dimension"),
], ids=["vertex-length", "map-rows", "map-columns", "apply", "contains", "edges_at_vertex",
        "affine_image"])
def test_malformed_polytope_input_raises_its_pinned_text(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_restrict_to_affine_hull_of_no_equalities_is_p_itself():
    assert restrict_to_affine_hull(SQUARE) == (SQUARE, AffineMap.identity(2))


def test_polytope_dim_cases():
    assert polytope_dim(SQUARE) == 2
    assert polytope_dim(empty_hrep(3)) == -1
    point = HPolytope(dim=2, ineqs=(), eqs=((vec([1, 0]), Fraction(1)),
                                            (vec([0, 1]), Fraction(2))))
    assert polytope_dim(point) == 0


def test_lattice_points_square_and_dilate():
    assert len(lattice_points(SQUARE)) == 4
    assert len(lattice_points(SQUARE, 3)) == 16
    half = HPolytope(dim=1, ineqs=((vec([1]), Fraction(1, 2)),
                                   (vec([-1]), Fraction(0))), eqs=())
    assert lattice_points(half) == [(0,)]
    assert lattice_points(half, 2) == [(0,), (1,)]


def test_lattice_points_with_equality_constraint():
    P = HPolytope(dim=2, ineqs=((vec([1, 0]), Fraction(3)),
                                (vec([-1, 0]), Fraction(0))),
                  eqs=((vec([1, 1]), Fraction(3)),))
    assert lattice_points(P) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_lattice_points_matches_box_oracle_on_randoms():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 3)
        P = box(d, rng.randint(-2, 0), rng.randint(0, 3))
        t = rng.randint(1, 2)
        got = lattice_points(P, t)
        assert tuple(got) == brute_force_lattice_points(P, t)
        assert sorted(got) == got


def test_lattice_points_with_equalities_match_box_oracle():
    rng = random.Random(23)
    integer_empty = 0
    for _ in range(200):
        d = rng.randint(2, 4)
        P = box(d, rng.randint(-1, 0), rng.randint(1, 2))
        eqs = []
        for _ in range(rng.randint(1, d - 1)):
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(normal):
                eqs.append((vec(normal), Fraction(rng.randint(-3, 6), rng.choice((1, 2)))))
        P = HPolytope(dim=d, ineqs=P.ineqs, eqs=tuple(eqs))
        t = rng.randint(1, 3)
        got = lattice_points(P, t)
        assert tuple(got) == brute_force_lattice_points(P, t)
        if not got and h_to_v(P).vertices:
            integer_empty += 1
    assert integer_empty > 0  # parity-infeasible slices are exercised
    # 2x + 2y = 1 charts with a fractional offset: only even dilates hold
    # points, mapped back through the chart map at that dilate.
    P = HPolytope(2, SQUARE.ineqs, ((vec([2, 2]), Fraction(1)),))
    listed = [lattice_points(P, t) for t in range(1, 5)]
    assert listed == [list(brute_force_lattice_points(P, t)) for t in range(1, 5)]
    assert [len(points) for points in listed] == [0, 2, 0, 3]


def test_lattice_scan_leaves_no_reference_cycle():
    lattice_points(SQUARE, 3)
    gc.collect()
    gc.disable()
    try:
        assert len(lattice_points(SQUARE, 3)) == 16
        assert gc.collect() == 0  # the point list was freed by reference counting
    finally:
        gc.enable()


def test_count_lattice_points_matches_the_list_and_the_box_oracle():
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.integers(1, 3))
    def check(rng, cuts, t):
        make = random_box_with_cuts if cuts else random_box_with_equalities
        P = make(rng, HPolytope)
        count = count_lattice_points(P, t)
        assert count == len(lattice_points(P, t)) == len(brute_force_lattice_points(P, t))
        if not h_to_v(P).vertices:
            seen.add("empty")
        elif polytope_dim(P) == 0:
            seen.add("dim-0")
        elif count == 0:
            seen.add("integer-empty")  # rationally nonempty, no integer point

    check()
    assert seen == {"empty", "dim-0", "integer-empty"}
    assert count_lattice_points(HPolytope(0, (), ()), 2) == 1
    assert count_lattice_points(empty_hrep(2), 3) == 0


def _counting_scan_calls(monkeypatch):
    """Patch polytopes._narrow to count its calls, one per state the scan visits."""
    calls = []
    narrow = polytopes._narrow

    def counted(*args):
        calls.append(args[1])
        return narrow(*args)

    monkeypatch.setattr(polytopes, "_narrow", counted)
    count_lattice_points.cache_clear()  # so every count below runs its scan
    return calls


def test_merged_states_are_narrowed_once_on_a_3d_example(monkeypatch):
    # x0 + x1 >= 2 and x2 <= x1 in the box [0, 2]^3: level 2 reads x1 alone,
    # so the ranges [2, 2], [1, 2] and [0, 2] of x1 merge into one difference
    # array and each x1 is narrowed once: 1 + 3 + 3 states, against 1 + 3 + 6
    # for one state per prefix.
    P = HPolytope(3, _rows([((-1, -1, 0), -2), ((0, -1, 1), 0)]) + box(3, 0, 2).ineqs)
    calls = _counting_scan_calls(monkeypatch)
    assert count_lattice_points(P) == len(brute_force_lattice_points(P)) == 14
    assert calls == [(), (0,), (1,), (2,), (0,), (1,), (2,)]


@pytest.mark.parametrize("m, weights, t, count, states", [
    (1, (1, 2) * 4, 11, 303612, 98),  # memoising on the read coordinates alone took 860
    # The propagated box is looser than the vertex box at level 0 (3789 there).
    (2, (8, 6, 6, 6, 6, 4, 4), 3, 561415, 4279),
])
def test_the_frontier_narrows_no_more_states_on_entry_charts(monkeypatch, m, weights, t,
                                                            count, states):
    P = gt_slice(SideData.from_weights(m, weights)).entry_chart
    calls = _counting_scan_calls(monkeypatch)
    assert count_lattice_points(P, t) == count
    assert len(calls) == states


def test_cached_counts_still_reject_a_float_or_bool_dilate():
    # 2.0 == 2 and True == 1 with equal hashes, so an untyped cache lookup
    # would answer them from the entries of the valid dilates.
    P = box(2, 0, 2)
    count_lattice_points.cache_clear()
    for _ in range(2):  # before the valid dilates' entries exist, then after them
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="dilate must be a positive integer"):
                count_lattice_points(P, bad)
        assert count_lattice_points(P, 2) == 25 and count_lattice_points(P, 1) == 9
    assert count_lattice_points(P, dilate=2) == 25


def test_each_count_is_scanned_once_per_polytope_and_dilate():
    P = box(3, -1, 2)
    count_lattice_points.cache_clear()
    assert [count_lattice_points(P, t) for t in (1, 2, 1, 2)] == [64, 343, 64, 343]
    info = count_lattice_points.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_hpolytope_hash_is_stored_and_equality_reads_only_the_fields():
    a = HPolytope(2, (((1, 0), 1), ((0, 1), 2), ((1, 0), 3)))  # the duplicate keeps 1
    b = HPolytope(2, ((vec([1, 0]), Fraction(1)), (vec([0, 1]), Fraction(2))))
    assert a == b and hash(a) == hash(b) == hash((2, b.ineqs, b.eqs))
    assert a != HPolytope(2, b.ineqs[:1])
    assert HPolytope.__match_args__ == ("dim", "ineqs", "eqs")
    assert repr(a) == repr(b) and "_hash" not in repr(a)


def _holds_its_coprime_rows(P):
    return P._coprime == tuple(_joint_primitive(a, b) for a, b in P.ineqs + P.eqs)


def test_records_of_every_route_hold_the_coprime_form_of_each_row():
    mixed = HPolytope(2, (((1, 0), 1), ((0, "1/2"), Fraction(3, 4)), ((1, 0), "1/3"),
                          ((0, 0), -1), ((Fraction(2, 3), "-4"), 0)),
                      (((2, 4), "6"), ((Fraction(1, 2), 1), 3), ((2, 4), "6")))
    assert len(mixed.ineqs) == 4 and len(mixed.eqs) == 2  # deduped, certificate kept
    s = SideData.from_weights(1, ("5/2", 3, 4, 5, 6, 7))
    charted = fm_polytope(SideData.from_weights(2, (2, 2, 3, 3, 2, 2)))
    sliced = gt_hrep(GTSpec(4, (4, 3, 1, 0), (2, 4, 6)))
    # x = 1 is implicit, and the facet y <= 2 has only the row x + y <= 3
    flat = HPolytope(2, (((1, 0), 1), ((-1, 0), -1), ((1, 1), 3), ((0, -1), 0)))
    routes = [
        mixed,
        HPolytope.from_json_dict(mixed.to_json_dict()),
        HPolytope.from_json_dict({"dim": 1, "ineqs": [{"a": ["2/3"], "b": "1/2"},
                                                      {"a": [-3], "b": 0}]}),
        *[empty_hrep(d) for d in range(4)],
        polygon_hrep(s),
        gt_hrep(GTSpec(4, (4, 3, 1, 0))),
        sliced,
        charted.entry_chart,
        charted.diag_chart,
        affine_image(SQUARE, AffineMap(2, 3, (vec([2, 1]), vec([0, 1]), vec([1, -1])),
                                       vec(["1/2", 0, 0]))),
        remove_redundant(polygon_hrep(s)),
        remove_redundant(sliced),
        remove_redundant(flat),
        v_to_h(h_to_v(polygon_hrep(s))),
        v_to_h(VPolytope(3, ((0, 0, 1), (1, 0, "1/2"), (0, 2, 1)))),
        restrict_to_affine_hull(sliced)[0],
    ]
    for P in routes:
        assert _holds_its_coprime_rows(P), P
    assert remove_redundant(flat).ineqs[-1] == (vec([0, 1]), 2)  # by _onto_hull
    assert restrict_to_affine_hull(sliced)[0].dim < sliced.dim

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(raw_hpolytope_rows())
    def check(case):
        dim, ineqs, eqs, faults = case
        assume(not faults)
        assert _holds_its_coprime_rows(HPolytope(dim, ineqs, eqs))

    check()


def test_reading_a_built_record_derives_no_coprime_row(monkeypatch):
    s = SideData.from_weights(1, ("5/2", 3, 4, 5, 6, 7))
    polygon = polygon_hrep(s)
    chart = fm_polytope(SideData.from_weights(2, (2, 2, 3, 3, 2, 2))).entry_chart
    sliced = gt_hrep(GTSpec(4, (4, 3, 1, 0), (2, 4, 6)))
    canon = remove_redundant(polygon)
    _incidence.cache_clear()
    _scan_setup.cache_clear()
    calls = []
    real = polytopes._joint_primitive

    def counted(normal, rhs):
        calls.append(normal)
        return real(normal, rhs)

    monkeypatch.setattr(polytopes, "_joint_primitive", counted)
    for P in (polygon, chart, sliced):
        _incidence(P)
    assert not chart.eqs and _scan_setup(chart) is not None
    assert _incidence(sliced)[3][0] and _incidence(polygon)[3][0] == ()
    assert len(facet_labels(s, canon)) == len(canon.ineqs)
    assert calls == []
    HPolytope(1, (((2,), 1),))  # the counter does see a row being born
    assert len(calls) == 1


def test_scan_setup_is_computed_once_per_polytope_and_rounded_per_dilate():
    # 2x + 4y <= 3 is the coprime row (2, 4 | 3), whose normal alone is not
    # primitive: at dilate t its rhs is 3t and the scan floors (3t - 2x) // 4,
    # odd and even t alike; the cached setup must serve every dilate.
    rows = ((vec([2, 4]), Fraction(3)), (vec([-1, 0]), Fraction(0)),
            (vec([0, -1]), Fraction(0)), (vec([3, -2]), Fraction(2)))
    P = HPolytope(2, rows)
    before = _scan_setup.cache_info()
    for t in (3, 1, 2):
        points = lattice_points(P, t)
        assert tuple(points) == brute_force_lattice_points(P, t)
        assert count_lattice_points(P, t) == len(points) > 0
    after = _scan_setup.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 5)

    # An explicit equality is a row pair in Q's own coordinates, its rhs
    # scaled per dilate like every other row's, so Q's one setup serves
    # every dilate too.
    Q = HPolytope(3, tuple((a + (Fraction(0),), b) for a, b in rows)
                  + ((vec([0, 0, -1]), Fraction(0)), (vec([0, 0, 1]), Fraction(5, 2))),
                  ((vec([1, -1, 1]), Fraction(1)),))
    before = _scan_setup.cache_info()
    for t in (3, 1, 2):
        points = lattice_points(Q, t)
        assert tuple(points) == brute_force_lattice_points(Q, t)
        assert count_lattice_points(Q, t) == len(points) > 0
    after = _scan_setup.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 5)


def test_frontier_rounds_the_box_up_at_low_and_down_at_high():
    # A level with no rows keeps exactly its box's integers: the scaled low
    # end rounds up, negative fractions towards zero, and an exact quotient
    # stays put, at every dilate.
    def kept(box, scale, dilate=1):
        setup = (None, None, [box], scale)
        return sorted(x for (x,) in polytopes._frontier(setup, [([], polytopes._EACH, ())], dilate))

    assert kept((7, 9), 2) == [4]
    assert kept((-7, 7), 2) == [-3, -2, -1, 0, 1, 2, 3]
    assert kept((6, 6), 3) == [2]
    assert kept((-7, 7), 2, 2) == list(range(-7, 8))
    assert kept((1, 2), 3) == []
    assert kept((1, 2), 3, 2) == [1]

    segment = HPolytope(1, ((vec([1]), Fraction(7, 2)), (vec([-1]), Fraction(7, 2))))
    assert lattice_points(segment) == [(x,) for x in range(-3, 4)]


def test_one_scan_setup_serves_every_dilate_of_a_sliced_pattern_polytope():
    lam, sums = (4, 3, 2, 1, 0), (2, 5, 7, 9)
    P = gt_hrep(GTSpec(5, lam, sums))
    count_lattice_points.cache_clear()  # so every dilate below runs its scan
    before = _scan_setup.cache_info()
    counts = [count_lattice_points(P, t) for t in range(1, 9)]
    after = _scan_setup.cache_info()
    assert counts == [gt_pattern_count([t * c for c in lam], [t * c for c in sums + (10,)])
                      for t in range(1, 9)]
    assert counts[:3] == [14, 90, 374] and counts[-1] == 28413
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 7)


def test_gt_slices_count_and_list_their_patterns_at_every_dilate():
    seen = set()

    # The row sums are the slice's equalities.  Half the draws take them off
    # a drawn pattern, so that slice is nonempty; the rest draw them freely.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 5))
        lam = tuple(sorted(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)),
                           reverse=True))
        if data.draw(st.booleans()):
            rows = [lam]
            while len(rows[-1]) > 1:
                above = rows[-1]
                rows.append([data.draw(st.integers(low, high))
                             for high, low in zip(above, above[1:])])
            sums = tuple(sum(row) for row in reversed(rows[1:]))
        else:
            sums = tuple(data.draw(st.lists(st.integers(0, sum(lam)), min_size=k - 1,
                                            max_size=k - 1)))
        P = gt_hrep(GTSpec(k, lam, sums))
        for t in (1, 2, 3):
            expected = gt_pattern_count([t * c for c in lam],
                                        [t * c for c in sums + (sum(lam),)])
            assert count_lattice_points(P, t) == len(lattice_points(P, t)) == expected
            seen.add(expected > 0)

    check()
    assert seen == {False, True}


def test_an_equality_polytope_is_scanned_in_its_own_coordinates(monkeypatch):
    # 2x + 2y = 1 has integer solutions only at even dilates: at odd t its
    # row pair's floor and ceiling cross, so the scan keeps no state.
    P = HPolytope(2, SQUARE.ineqs, ((vec([2, 2]), Fraction(1)),))
    charted = []
    restrict = polytopes.restrict_to_affine_hull

    def counting_restrict(Q):
        charted.append(Q)
        return restrict(Q)

    monkeypatch.setattr(polytopes, "restrict_to_affine_hull", counting_restrict)
    _scan_setup.cache_clear()
    listed = [len(lattice_points(P, t)) for t in range(1, 5)]
    counted = [count_lattice_points(P, t) for t in range(1, 5)]
    assert listed == counted == [0, 2, 0, 3]
    assert charted == [] and _scan_setup.cache_info().misses == 1


def test_count_scan_leaves_no_reference_cycle():
    count_lattice_points(SQUARE, 3)
    count_lattice_points.cache_clear()  # so the measured call runs the scan
    gc.collect()
    gc.disable()
    try:
        assert count_lattice_points(SQUARE, 3) == 16
        assert gc.collect() == 0  # the memo was freed by reference counting
    finally:
        gc.enable()

def test_edges_at_vertex_square_corner():
    dirs = edges_at_vertex(SQUARE, vec([0, 0]))
    assert sorted(dirs) == [(0, 1), (1, 0)]


def test_edges_at_vertex_with_rational_vertices_match_the_brute_force_edges():
    P = HPolytope(2, ((vec([2, 1]), Fraction(5, 2)), (vec([1, 3]), Fraction(3)),
                      (vec([-1, 0]), Fraction(0)), (vec([0, -1]), Fraction(0))), ())
    edges = brute_force_edges(P)
    verts = brute_force_vertices(P)
    assert (Fraction(9, 10), Fraction(7, 10)) in verts
    for v in verts:
        want = sorted([primitive_vector(_minus(w, v)) for u, w in edges if u == v]
                      + [primitive_vector(_minus(u, v)) for u, w in edges if w == v])
        assert list(edges_at_vertex(P, v)) == want


def test_affine_image_square_shear():
    shear = AffineMap(2, 2, (("1", "1"), ("0", "1")), ("0", "0"))
    img = affine_image(SQUARE, shear)
    assert sorted(h_to_v(img).vertices) == sorted(
        (vec([0, 0]), vec([1, 0]), vec([1, 1]), vec([2, 1])))


@pytest.mark.parametrize("f", [
    AffineMap(2, 2, (vec([1, 2]), vec([2, 4])), vec([0, 1])),
    AffineMap(2, 3, (vec([1, 2]), vec([2, 4]), vec([0, 0])), vec([0, 0, 0])),
], ids=["square", "into-3d"])
def test_affine_image_of_h_input_rejects_a_singular_map(f):
    with pytest.raises(ValueError, match="^H-representation image needs an injective affine map$"):
        affine_image(SQUARE, f)


def test_affine_image_embedding_into_3d():
    emb = AffineMap(2, 3, (("1", "0"), ("0", "1"), ("1", "1")), ("0", "0", "1"))
    img = affine_image(h_to_v(SQUARE), emb)
    assert len(img.vertices) == 4
    assert all(v[2] == v[0] + v[1] + 1 for v in img.vertices)


def test_affine_image_of_h_input_into_3d_maps_vertices_without_convexifying():
    emb = AffineMap(2, 3, (vec([2, 1]), vec([0, 1]), vec([1, -1])), vec([1, 0, 0]))
    h_to_v(SQUARE)
    before = _incidence.cache_info().misses
    img = affine_image(SQUARE, emb)
    between = _incidence.cache_info().misses
    images = [emb.apply(v) for v in h_to_v(SQUARE).vertices]
    assert img == v_to_h(VPolytope.from_points(3, images))  # the route through from_points
    after = _incidence.cache_info().misses
    assert (between - before, after - between) == (0, 1)
    assert sorted(h_to_v(img).vertices) == sorted(images)


@pytest.mark.parametrize("P, image", [
    (empty_hrep(2), empty_hrep(3)),
    (HPolytope(2, (((-1, 0), 0), ((0, -1), 0), ((1, 1), -1))), empty_hrep(3)),
    (VPolytope(2, ()), VPolytope(3, ())),
], ids=["empty_hrep", "infeasible", "no-vertices"])
def test_affine_image_into_3d_of_an_empty_polytope_is_empty(P, image):
    emb = AffineMap(2, 3, (vec([2, 1]), vec([0, 1]), vec([1, -1])), vec([1, 0, 0]))
    assert affine_image(P, emb) == image


def test_restrict_to_affine_hull_segment():
    seg = VPolytope.from_points(3, [vec([0, 0, 1]), vec([2, 2, 1])])
    H = v_to_h(seg)
    chart, back = restrict_to_affine_hull(H)
    assert chart.dim == 1
    lifted = sorted(back.apply(v) for v in h_to_v(chart).vertices)
    assert lifted == sorted(seg.vertices)


def test_restrict_to_affine_hull_takes_a_rational_offset_from_the_hermite_form():
    # 2x + 2y = 1 has integer solutions only at even dilates: t0 = 2.
    P = HPolytope(2, box(2, 0, 1).ineqs, ((vec([2, 2]), Fraction(1)),))
    t0, _, _ = integer_solutions([(2, 2)], (1,), 2)
    chart, back = restrict_to_affine_hull(P)
    assert t0 == 2 and chart.dim == 1
    assert math.lcm(*(c.denominator for c in back.offset)) == t0
    lifted = sorted(back.apply(v) for v in h_to_v(chart).vertices)
    assert lifted == list(h_to_v(P).vertices)
    for t in range(1, 5):
        assert lattice_points(P, t) == list(brute_force_lattice_points(P, t))
    assert [count_lattice_points(P, t) for t in range(1, 5)] == [0, 2, 0, 3]


def test_restrict_rejects_infeasible_equalities():
    P = HPolytope(dim=1, ineqs=(), eqs=((vec([1]), Fraction(0)),
                                        (vec([1]), Fraction(1))))
    with pytest.raises(ValueError):
        restrict_to_affine_hull(P)


def test_scan_of_infeasible_equalities_is_empty():
    P = HPolytope(2, SQUARE.ineqs, _rows([((1, 0), 0), ((1, 0), 1)]))
    for t in (1, 2, 3):
        assert count_lattice_points(P, t) == 0
        assert lattice_points(P, t) == []


def test_equality_scan_runs_no_double_description_of_the_ambient_system():
    lam, sums = (4, 3, 2, 1, 0), (2, 5, 7, 9)
    P = gt_hrep(GTSpec(5, lam, sums))
    clear_caches()
    counts = [count_lattice_points(P, t) for t in (1, 2, 3)]
    assert counts == [gt_pattern_count([t * c for c in lam], [t * c for c in sums + (10,)])
                      for t in (1, 2, 3)]
    assert _incidence.cache_info().misses == 0  # the propagated box needs no DD
    _incidence(P)
    assert _incidence.cache_info().misses == 1  # P itself was never computed


@pytest.mark.parametrize("P, kind", [
    (HPolytope(3, (), _rows([((1, 1, 0), 1)])), "line"),
    (HPolytope(2, _rows([((-1, 0), 0)]), _rows([((1, 1), 1)])), "ray"),
])
def test_equality_scan_of_unbounded_input_raises_the_ambient_message(P, kind):
    message = f"polytope is unbounded (recession {kind}); bounded input required"
    for scan in (count_lattice_points, lattice_points):
        with pytest.raises(UnboundedPolytopeError) as exc:
            scan(P, 1)
        assert str(exc.value) == message


def test_fingerprint_invariant_under_coordinate_swap():
    swapped = HPolytope(dim=2, ineqs=tuple(((a[1], a[0]), b) for a, b in SQUARE.ineqs), eqs=())
    rect = box(2, 0, 1)
    assert combinatorial_fingerprint(SQUARE) == combinatorial_fingerprint(swapped)
    assert combinatorial_fingerprint(SQUARE) == combinatorial_fingerprint(rect)
    tri = VPolytope.from_points(2, [vec([0, 0]), vec([1, 0]), vec([0, 1])])
    assert combinatorial_fingerprint(v_to_h(tri)) != combinatorial_fingerprint(SQUARE)
    assert combinatorial_fingerprint(empty_hrep(2)) == "dim=-1;empty"


def test_six_cube_fingerprint_is_pinned():
    fp = combinatorial_fingerprint(box(6, 0, 1))
    assert len(fp) == 889 and fp.startswith("dim=6;facets=12;vertices=64;")
    assert hashlib.sha256(fp.encode()).hexdigest() == (
        "1f8d52c5f236c5072c4667a4d0d34670b42001b750315fe6ec59667e6a73ffe8")


@st.composite
def labelled_incidences(draw):
    """0-8 left items, unlabelled or with repeated labels, and 0-12 right sets,
    empty ones and duplicates included."""
    n = draw(st.integers(0, 8))
    labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rights = []
    if n and draw(st.booleans()):
        # The pairs {i, sigma(i)} of a permutation: each item lies in two of
        # them, so refinement cannot tell cycles of different lengths apart
        # and the target cell is not an orbit.
        sigma = draw(st.permutations(range(n)))
        rights = [frozenset((i, sigma[i])) for i in range(n)]
    item_sets = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    rights += draw(st.lists(item_sets, max_size=8 - len(rights)))
    if rights:
        rights += draw(st.lists(st.sampled_from(rights), max_size=min(4, 12 - len(rights))))
    return n, labels, rights


def _has_nontrivial_automorphism(n, labels, rights):
    """Some item can be mapped to another iff marking either one gives
    isomorphic structures."""
    labels = labels if labels is not None else [0] * n
    marked = {brute_force_canonical_incidence(
        n, [(lab, i == k) for i, lab in enumerate(labels)], rights) for k in range(n)}
    return len(marked) < n


def test_pruned_search_matches_the_full_search():
    # No left items: the search is a single leaf, whatever the empty right sets.
    for rights, enc in (([], "L[];R[]"), ([frozenset()], "L[];R[]"),
                        ([frozenset(), frozenset()], "L[];R[|]")):
        assert canonical_incidence(0, None, rights) == enc
        assert brute_force_canonical_incidence(0, None, rights) == enc
    automorphic = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(labelled_incidences(), st.data())
    def check(case, data):
        n, labels, rights = case
        enc = canonical_incidence(n, labels, rights)
        assert enc == brute_force_canonical_incidence(n, labels, rights)
        perm = data.draw(st.permutations(range(n)))
        moved_labels = None
        if labels is not None:
            moved_labels = [None] * n
            for i, lab in enumerate(labels):
                moved_labels[perm[i]] = lab
        moved_rights = [frozenset(perm[j] for j in s) for s in reversed(rights)]
        assert canonical_incidence(n, moved_labels, moved_rights) == enc
        # The check is costly, so counting stops at 20 cases.
        if len(automorphic) < 20 and _has_nontrivial_automorphism(n, labels, rights):
            automorphic.append(case)

    check()
    assert len(automorphic) == 20  # the orbit pruning is exercised


def test_every_recorded_automorphism_keeps_labels_and_right_sets(monkeypatch):
    """A leaf records g from equal encodings alone; g must map each item to
    one of the same label and the right sets onto the right sets.  A leaf
    that sets a backjump has g map the first path of its encoding onto its
    own, so g fixes their common prefix pointwise, the path of the node the
    search unwinds to, which lies above the leaf's parent or is it."""
    searches = []
    jumps = []

    class Recording(polytopes._CanonicalSearch):
        def __init__(self, names, rights):
            super().__init__(names, rights)
            searches.append(self)

        def leaf(self, colors, fixed):
            assert self.jump is None
            enc = super().leaf(colors, fixed)
            if self.jump is not None:
                g = self.automorphisms[-1]
                path = self.leaves[enc][1]
                assert [g[p] for p in path] == list(fixed)
                assert all(g[p] == p for p in fixed[:self.jump])
                assert path[self.jump] != fixed[self.jump] and self.jump < len(fixed)
                jumps.append(len(fixed) - self.jump)
            return enc

    monkeypatch.setattr(polytopes, "_CanonicalSearch", Recording)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(labelled_incidences())
    def incidences(case):
        canonical_incidence(*case)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(full_dimensional_polytopes())
    def polytopes_and_fans(P):
        clear_caches()
        combinatorial_fingerprint(P)
        fan_fingerprint(normal_fan(P))  # labelled left items

    incidences()
    polytopes_and_fans()
    recorded = 0
    for search in searches:
        rights = Counter(frozenset(s) for s in search.rights)
        for g in search.automorphisms:
            assert all(search.names[i] == search.names[j] for i, j in enumerate(g))
            assert Counter(frozenset(g[j] for j in s) for s in search.rights) == rights
            recorded += 1
    assert recorded >= 300
    assert len(jumps) >= 100 and max(jumps) >= 3  # some jumps skip two levels or more


@pytest.mark.parametrize("lengths", [(2, 3), (2, 4), (2, 5), (3, 4), (2, 2, 3), (2, 6), (3, 5)])
def test_pruned_search_on_cycles_that_refinement_cannot_separate(lengths):
    """Each item of a union of cycles lies in two pairs, so refinement leaves
    one cell that is not an orbit, and the least leaf may lie under any cycle."""
    n = sum(lengths)
    for names in (list(range(n)), list(range(n))[::-1]):
        pairs, start = [], 0
        for k in lengths:
            cycle = names[start:start + k]
            pairs += [frozenset((cycle[i], cycle[(i + 1) % k])) for i in range(k)]
            start += k
        assert canonical_incidence(n, None, pairs) == (
            brute_force_canonical_incidence(n, None, pairs))


class _Reads(list):
    """A search's list of getters that counts the loops over it: refine
    loops over the right sets' getters once per round and over the items'
    getters once per round that keys the items."""

    def __init__(self, getters):
        super().__init__(getters)
        self.loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def _check_refinement_at_polytope_scale(monkeypatch, wrong_on_exit=False) -> list:
    """Label the charts of cubes and equal-weight polygon spaces, and a fan,
    checking that every refinement gets a dense coloring and returns the
    reference's coloring; returns (items, stopped on the right sets' count)
    per refinement.  With wrong_on_exit, a mutant: a refinement that stops
    on the count after some split returns its input coloring instead."""
    calls = []

    class Counting(polytopes._CanonicalSearch):
        def __init__(self, names, rights):
            super().__init__(names, rights)
            self.right_colors = _Reads(self.right_colors)
            self.held_ranks = _Reads(self.held_ranks)

        def refine(self, colors):
            assert set(colors) == set(range(max(colors) + 1))  # dense
            right, left = self.right_colors.loops, self.held_ranks.loops
            out = super().refine(list(colors))
            stopped = self.right_colors.loops - right > self.held_ranks.loops - left
            if wrong_on_exit and stopped:
                out = list(colors)
            assert out == reference_refine(self.rights, colors)
            calls.append((len(colors), stopped))
            return out

    monkeypatch.setattr(polytopes, "_CanonicalSearch", Counting)
    clear_caches()
    charts = [box(d, 0, 1) for d in (3, 4, 5)]
    for m, r in ((1, (1,) * 7), (1, (1,) * 8), (2, (2,) * 6)):
        s = SideData.from_weights(m, r)
        charted = gt_slice(s)
        charts += [polygon_hrep(s) if m == 1 else charted.diag_chart, charted.entry_chart]
    for P in charts:
        combinatorial_fingerprint(P)
    fan_fingerprint(normal_fan(charts[3]))  # labelled left items
    return calls


def test_refinement_matches_the_reference_at_polytope_scale(monkeypatch):
    """Every refinement the fingerprints of cubes and equal-weight polygon
    spaces run gets a dense coloring and returns the reference's coloring,
    and many stop on the right sets' count before keying the items."""
    calls = _check_refinement_at_polytope_scale(monkeypatch)
    assert len(calls) > 100 and max(n for n, _ in calls) >= 14
    assert sum(stopped for _, stopped in calls) >= 50


def test_a_wrong_coloring_on_the_early_exit_fails_the_reference_check(monkeypatch):
    with pytest.raises(AssertionError):
        _check_refinement_at_polytope_scale(monkeypatch, wrong_on_exit=True)


def _search_nodes(monkeypatch, label) -> list[int]:
    """The refine calls, one per search node, of each canonical_incidence
    call that label() makes."""
    nodes = []

    class Recording(polytopes._CanonicalSearch):
        def refine(self, colors):
            nodes[-1] += 1
            return super().refine(colors)

        def search(self, colors, fixed):
            if not fixed:
                nodes.append(0)
            return super().search(colors, fixed)

    with monkeypatch.context() as patched:
        patched.setattr(polytopes, "_CanonicalSearch", Recording)
        clear_caches()
        label()
    return nodes


def test_backjumping_visits_fewer_nodes_on_the_cubes(monkeypatch):
    """Without backjumps the 4-cube's and the 5-cube's searches visit 31 and
    51 nodes; the 6-cube's fingerprint stays pinned."""
    assert _search_nodes(monkeypatch, lambda: combinatorial_fingerprint(box(4, 0, 1))) == [24]
    assert _search_nodes(monkeypatch, lambda: combinatorial_fingerprint(box(5, 0, 1))) == [35]


def test_duality_fingerprint_labels_with_less_work(monkeypatch, tmp_path):
    """Over seeds 1-2, pass 0 of the duality-fingerprint benchmark workload,
    the 74 canonical_incidence calls visit 636 nodes and 290 leaves, and key
    the items in 910 rounds, when refinement runs every round to the end and
    the search never backjumps."""
    searches = []

    class Counting(polytopes._CanonicalSearch):
        def __init__(self, names, rights):
            super().__init__(names, rights)
            self.held_ranks = _Reads(self.held_ranks)
            self.nodes = self.leaf_count = 0
            searches.append(self)

        def refine(self, colors):
            self.nodes += 1
            return super().refine(colors)

        def leaf(self, colors, fixed):
            self.leaf_count += 1
            return super().leaf(colors, fixed)

    monkeypatch.setattr(polytopes, "_CanonicalSearch", Counting)
    workloads.write_cube_files(str(tmp_path))
    for seed in (1, 2):
        clear_caches()
        for argv in workloads.requests("duality-fingerprint", seed, 0, str(tmp_path)):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    assert len(searches) == 74
    assert sum(search.nodes for search in searches) < 636
    assert sum(search.leaf_count for search in searches) < 290
    assert sum(search.held_ranks.loops for search in searches) <= 678


@st.composite
def dense_colorings(draw, n):
    """A coloring of n items whose colors are exactly 0..k-1."""
    if not n:
        return []
    k = draw(st.integers(1, n))
    colors = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k,
                                            max_size=n - k))
    return draw(st.permutations(colors))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_incidences(), st.data())
def test_refine_matches_the_reference_on_dense_colorings(case, data):
    n, _, rights = case
    colors = data.draw(dense_colorings(n))
    search = polytopes._CanonicalSearch([repr(0)] * n, rights)
    assert search.refine(list(colors)) == reference_refine(rights, colors)


@pytest.mark.parametrize("n_left, labels, rights, message", [
    (2, None, [{0, 5}], r"outside range\(2\)"),
    (2, None, [{-1}], r"outside range\(2\)"),
    (2, [0, 1, 2], [{0, 1}], "3 left labels for 2 left items"),
    (3, [0, 1], [], "2 left labels for 3 left items"),
    (2, None, [{True}], "holds True, not an integer item"),
    (2, None, [{1.0}], "holds 1.0, not an integer item"),
    (2, None, [{0, True}], "holds True, not an integer item"),
    (True, None, [{0}], "n_left must be a nonnegative integer"),
    (2.0, [0, 0], [{0}], "n_left must be a nonnegative integer"),
    (2.0, None, [{0}], "n_left must be a nonnegative integer"),
    (-1, None, [{0}], "n_left must be a nonnegative integer"),
    # The first bad item in input order names the error, after good ones too.
    (3, None, [{0, 1}, {1, 2}, {0, 7}], r"outside range\(3\)"),
    (3, None, [{0, 1}, {2}, {1, 2.5}], "holds 2.5, not an integer item"),
    (2, None, [{1}, {True}], "holds True, not an integer item"),
    (2, None, [{5}, {True}], r"outside range\(2\)"),
    (2, None, [{True}, {5}], "holds True, not an integer item"),
    (2, None, [{0, 1}, {-1, 9}], r"outside range\(2\)"),
])
def test_canonical_incidence_rejects_malformed_input(n_left, labels, rights, message):
    with pytest.raises(ValueError, match=message):
        canonical_incidence(n_left, labels, rights)


def test_canonical_incidence_leaves_no_reference_cycle():
    faces = [frozenset(s) for s in ((0, 1), (1, 2), (2, 3), (3, 0))]
    canonical_incidence(4, None, faces)
    gc.collect()
    gc.disable()
    try:
        assert canonical_incidence(4, None, faces) == canonical_incidence(4, [0] * 4, faces)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_round_trips():
    H = remove_redundant(SQUARE)
    assert HPolytope.from_json_dict(json.loads(json.dumps(H.to_json_dict()))) == H


@pytest.mark.parametrize("build, message", [
    (lambda: AffineMap(True, True, (("2",),), ("0",)), "dim must be an integer"),
    (lambda: AffineMap(-1, 0, (), ()), "ambient dimension must be >= 0"),
    (lambda: AffineMap(0, -1, (), ()), "ambient dimension must be >= 0"),
    (lambda: AffineMap(1, False, (), ()), "dim must be an integer"),
])
def test_affine_map_rejects_bool_and_negative_dimensions(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_from_json_dict_rejects_a_bool_dim():
    for build in (lambda: HPolytope.from_json_dict({"dim": True}), lambda: VPolytope(True)):
        with pytest.raises(ValueError, match="dim must be an integer"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: HPolytope(1.0), "dim must be an integer"),
    (lambda: HPolytope(True, (((1,), 1),)), "dim must be an integer"),
    (lambda: HPolytope(-1), "ambient dimension must be >= 0"),
    (lambda: VPolytope(2.5), "dim must be an integer"),
    (lambda: VPolytope(False), "dim must be an integer"),
    (lambda: Fan(1.5, ()), "dim must be an integer"),
    (lambda: Fan(True, ()), "dim must be an integer"),
    (lambda: Fan(-1, ()), "ambient dimension must be >= 0"),
])
def test_constructors_reject_a_non_integer_or_bool_dimension(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("d", range(4))
def test_from_points_of_no_points_is_the_empty_vpolytope(d):
    assert VPolytope.from_points(d, []) == VPolytope(d, ())


def test_from_points_rejects_a_string_point():
    with pytest.raises(TypeError, match="not a vector"):
        VPolytope.from_points(2, ["12"])


def test_zero_normal_rejected_unless_certificate():
    with pytest.raises(ValueError):
        HPolytope(dim=2, ineqs=((vec([0, 0]), Fraction(1)),), eqs=())
    empty_hrep(2)  # zero normal with negative rhs allowed


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))

# Rows the constructor must reject, by the ambient dimension; a further
# fault replaces the dimension itself.
_FAULTY_ROWS = {
    "long normal": lambda dim: ((1,) * (dim + 1), 0),
    "zero normal": lambda dim: ((0,) * dim, 0),
    "string normal": lambda dim: ("1" * dim, 0),
    "float entry": lambda dim: ((0.5,) * dim, 1),
    "bool rhs": lambda dim: ((1,) * dim, True),
    "zero denominator": lambda dim: ((1,) * dim, "1/0"),
}


@st.composite
def raw_hpolytope_rows(draw):
    """(dim, ineqs, eqs, faults): rows of int, "p/q" and Fraction entries
    drawn from a few normals, so that normals repeat with either rhs the
    tighter, equalities drawn with repetition, the empty certificate at
    times, and up to two faults."""
    dim = draw(st.integers(0, 3))
    normal = st.tuples(*[_ENTRIES] * dim).filter(lambda a: any(Fraction(c) for c in a))
    pool = draw(st.lists(normal, max_size=3)) if dim else []
    ineqs, eqs = [], []
    if pool:
        ineqs = draw(st.lists(st.tuples(st.sampled_from(pool), _ENTRIES), max_size=7))
        eq_rows = draw(st.lists(st.tuples(st.sampled_from(pool), _ENTRIES), max_size=2))
        if eq_rows:
            eqs = draw(st.lists(st.sampled_from(eq_rows), max_size=4))
    if not pool or draw(st.booleans()):
        certificate = ((0,) * dim, draw(st.sampled_from((-1, "-1/2"))))
        ineqs.insert(draw(st.integers(0, len(ineqs))), certificate)
    faults = draw(st.lists(st.sampled_from(("dim", *_FAULTY_ROWS)), max_size=2))
    for fault in faults:
        if fault != "dim":
            rows = ineqs if draw(st.booleans()) else eqs
            rows.insert(draw(st.integers(0, len(rows))), _FAULTY_ROWS[fault](dim))
    if "dim" in faults:
        dim = draw(st.sampled_from((True, -1, 1.0, "2")))
    return dim, tuple(ineqs), tuple(eqs), faults


def _record_or_error(build):
    """build()'s record, or its exception's type and text."""
    try:
        return build()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_constructor_records_equal_the_former_constructor_loop():
    """HPolytope, which checks its rows and hands them to _hpolytope, gives
    the former constructor loop's record in value, repr and hash, and the
    same exception type and text for faulty input, several faults included."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(raw_hpolytope_rows())
    def check(case):
        dim, ineqs, eqs, faults = case
        got = _record_or_error(lambda: HPolytope(dim, ineqs, eqs))
        want = _record_or_error(lambda: constructor_route_hpolytope(dim, ineqs, eqs))
        if isinstance(want, HPolytope):
            assert isinstance(got, HPolytope)
            assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
            seen["record"] += 1
            seen["deduped"] += len(got.ineqs) < len(ineqs)
            seen["repeated equality"] += len(got.eqs) < len(eqs)
            seen["certificate"] += any(not any(a) for a, _ in got.ineqs)
            first_rhs = {}
            for a, b in ineqs:
                rhs = Fraction(b)
                seen["tighter later rhs"] += rhs < first_rhs.setdefault(vec(a), rhs)
        else:
            assert got == want
            seen[f"{len(faults)} faults"] += 1

    check()
    assert {"record", "deduped", "repeated equality", "certificate", "tighter later rhs",
            "1 faults", "2 faults"} <= {k for k, v in seen.items() if v}


def _box_rows(draw, d, wide):
    rows = []
    for i in range(d):
        lo = draw(st.integers(-3, 1))
        hi = lo + draw(st.integers(1 if wide else 0, 4))
        e = [0] * d
        e[i] = 1
        rows += [(tuple(e), hi), (tuple(-c for c in e), -lo)]
    return rows


@st.composite
def small_bounded_polytopes(draw):
    """A box plus random cuts, with optional redundant rows, a positively
    scaled duplicate row, an implicit-equality pair and an explicit equality."""
    d = draw(st.integers(1, 3))
    rows = _box_rows(draw, d, wide=False)
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(tuple)
    for a in draw(st.lists(normal, max_size=3)):
        rows.append((a, draw(st.integers(-4, 8))))
    if draw(st.booleans()):
        rows.append((draw(normal), 40))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        k = draw(st.integers(2, 3))
        rows.append((tuple(k * c for c in a), k * b))
    point = [-b for _, b in rows[1:2 * d:2]]  # the box's lower corner
    if draw(st.booleans()):
        a = draw(normal)
        c = sum(x * y for x, y in zip(a, point))
        rows += [(a, c), (tuple(-x for x in a), -c)]
    eqs = ()
    if draw(st.booleans()):
        a = draw(normal)
        eqs = ((a, sum(x * y for x, y in zip(a, point))),)
    order = draw(st.permutations(range(len(rows))))
    return HPolytope(dim=d, ineqs=tuple(rows[i] for i in order), eqs=eqs)


@st.composite
def full_dimensional_polytopes(draw):
    """A box plus cuts that all keep the box centre strictly inside, with an
    optional positively scaled duplicate row."""
    d = draw(st.integers(1, 3))
    rows = _box_rows(draw, d, wide=True)
    centre = [Fraction(hi - minus_lo, 2)
              for (_, hi), (_, minus_lo) in zip(rows[0::2], rows[1::2])]
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(tuple)
    for a in draw(st.lists(normal, max_size=4)):
        at_centre = sum(x * y for x, y in zip(a, centre))
        rows.append((a, math.floor(at_centre) + 1 + draw(st.integers(0, 3))))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        rows.append((tuple(2 * c for c in a), 2 * b))
    order = draw(st.permutations(range(len(rows))))
    return HPolytope(dim=d, ineqs=tuple(rows[i] for i in order), eqs=())


def _assert_rebuilds_equal(P):
    """h_to_v(P) and, for a full-dimensional P, normal_fan(P) and each of its
    cones equal, to the type of every entry, what their constructors build
    from the same fields."""
    V = h_to_v(P)
    rebuilt = VPolytope(V.dim, V.vertices)
    assert rebuilt == V and repr(rebuilt) == repr(V)
    if polytope_dim(P) != P.dim:
        return
    F = normal_fan(P)
    for _, c in F.maximal_cones:
        assert Cone(c.rays) == c and repr(Cone(c.rays)) == repr(c)
    rebuilt = Fan(F.ambient_dim, F.maximal_cones, F.edges)
    assert rebuilt == F and repr(rebuilt) == repr(F)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(full_dimensional_polytopes())
def test_assembled_records_equal_their_constructors(P):
    _assert_rebuilds_equal(P)


@pytest.mark.parametrize("weights", [
    (1, 2, 2, 3, 3, 4), (1, 2, 2, 3, 3, 4, 4), (1, 1, 2, 2, 3, 3, 4, 5),
    (1, 2, 1, 3, 2, 4, 1, 3, 2), *((1,) * n for n in range(6, 11)), None],
    ids=lambda w: "empty" if w is None else ",".join(map(str, w)))
def test_assembled_records_of_session_polygons_equal_their_constructors(weights):
    P = empty_hrep(2) if weights is None else polygon_hrep(SideData.from_weights(1, weights))
    _assert_rebuilds_equal(P)
    assert (weights is None) == (h_to_v(P).vertices == ())


@st.composite
def unimodular_maps(draw, d):
    """x -> M x + offset on Z^d with integer M of det +-1 and integer offset."""
    # Negating rows and adding multiples of one row to another keep det = +-1.
    M = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        k = draw(st.integers(-2, 2))
        M[i] = [-x for x in M[i]] if i == j else [x + k * y for x, y in zip(M[i], M[j])]
    offset = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    return AffineMap(d, d, tuple(map(vec, M)), vec(offset))


@st.composite
def banded_polytopes(draw):
    """A box of sides 1 or 2 in dimension 3 or 4 with one to four cuts, each reading
    coordinates j-1 and j (sometimes j-2 too) and keeping the box centre
    strictly inside, like interlacing rows: their scans read few coordinates
    per level, so their states merge."""
    d = draw(st.integers(3, 4))
    rows = []
    for i in range(d):
        lo = draw(st.integers(-2, 1))
        e = tuple(int(k == i) for k in range(d))
        rows += [(e, lo + draw(st.integers(1, 2))), (tuple(-c for c in e), -lo)]
    centre = [Fraction(hi - minus_lo, 2)
              for (_, hi), (_, minus_lo) in zip(rows[0::2], rows[1::2])]
    coeff = st.integers(-3, 3).filter(bool)
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(1, d - 1))
        picked = {j, j - 1} | ({j - 2} if j > 1 and draw(st.booleans()) else set())
        a = tuple(draw(coeff) if k in picked else 0 for k in range(d))
        at_centre = sum(x * y for x, y in zip(a, centre))
        rows.append((a, math.floor(at_centre) + 1 + draw(st.integers(0, 3))))
    return HPolytope(dim=d, ineqs=tuple(rows), eqs=())


def test_frontier_count_and_listing_match_the_box_oracle():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(), banded_polytopes(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))),
           st.integers(1, 3))
    def check(P, t):
        points = brute_force_lattice_points(P, t)
        assert lattice_points(P, t) == list(points)
        assert count_lattice_points(P, t) == len(points)
        setup = _scan_setup(P)
        if setup is not None:
            seen.update(kind for _, kind, _ in setup[0])

    check()
    assert seen == {polytopes._TIMES, polytopes._EACH, polytopes._DIFF}


def test_propagated_box_holds_the_vertex_box():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(), banded_polytopes(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))))
    def check(P):
        clear_caches()
        setup = _scan_setup(P)
        route = "propagated" if _incidence.cache_info().misses == 0 else "vertex box"
        if setup is None:
            assert h_to_v(P).vertices == ()
            seen.add((route, "no setup"))
            return
        box, scale = setup[2:4]
        verts = h_to_v(P).vertices
        seen.add((route, "nonempty" if verts else "empty"))
        for (lo, hi), col in zip(box, zip(*verts)):
            assert Fraction(lo, scale) <= min(col) and max(col) <= Fraction(hi, scale)

    check()
    assert seen == {("propagated", "nonempty"), ("propagated", "no setup")}


def test_a_box_propagation_cannot_find_comes_from_the_vertices():
    # Every row of the diamond |x| + |y| <= 2 reads two coordinates with no
    # bound yet, so propagation never starts and the DD gives the box.
    P = HPolytope(2, _rows([((a, b), 2) for a in (1, -1) for b in (1, -1)]))
    clear_caches()
    assert _scan_setup(P)[2:4] == ([(-2, 2), (-2, 2)], 1)
    assert _incidence.cache_info().misses == 1
    assert [count_lattice_points(P, t) for t in (1, 2)] == [13, 41]


def test_a_dimension_zero_chart_whose_pulled_back_row_fails_has_no_setup():
    # x = 1 leaves a chart of dimension 0, on which x <= 0 becomes 0 <= -1;
    # the scan, in P's own coordinates, finds x <= 0 and x >= 1 crossing.
    P = HPolytope(1, _rows([((1,), 0), ((-1,), -1)]), _rows([((1,), 1)]))
    chart, _ = restrict_to_affine_hull(P)
    assert chart == empty_hrep(0)
    assert _scan_setup(P) is None
    assert [count_lattice_points(P, t) for t in (1, 2)] == [0, 0]
    assert lattice_points(P) == []


@settings(max_examples=40, deadline=None)
@given(full_dimensional_polytopes(), st.data())
def test_counts_survive_an_equality_lift_and_a_unimodular_change_of_basis(P, data):
    # Q lifts P by y = c.x + r/2, an integer exactly when t*r is even: the
    # equality route, on a chart other than P's own coordinates.
    d = P.dim
    c = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    r = data.draw(st.integers(-3, 3))
    Q = HPolytope(d + 1, tuple((tuple(a) + (0,), b) for a, b in P.ineqs),
                  ((tuple(-2 * x for x in c) + (2,), r),))
    image = affine_image(P, data.draw(unimodular_maps(d)))
    for t in range(1, 5):
        n = count_lattice_points(P, t)
        assert count_lattice_points(Q, t) == (0 if t * r % 2 else n)
        assert count_lattice_points(image, t) == n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(full_dimensional_polytopes(), st.data())
def test_fingerprint_survives_a_unimodular_change_of_basis(P, data):
    image = affine_image(P, data.draw(unimodular_maps(P.dim)))
    assert combinatorial_fingerprint(image) == combinatorial_fingerprint(P)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_bounded_polytopes(), st.data())
def test_fingerprint_survives_a_permutation_of_coordinates(P, data):
    order = data.draw(st.permutations(range(P.dim)))
    permuted = HPolytope(P.dim, *(tuple((tuple(a[i] for i in order), b) for a, b in rows)
                                  for rows in (P.ineqs, P.eqs)))
    assert combinatorial_fingerprint(permuted) == combinatorial_fingerprint(P)


def test_v_to_h_of_h_to_v_is_remove_redundant_on_full_dimensional_input():
    checked = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_bounded_polytopes())
    def check(P):
        if polytope_dim(P) < P.dim:
            return  # empty or lower-dimensional: only full dimension is claimed
        round_trip = v_to_h(h_to_v(P))
        irredundant = remove_redundant(P)
        assert round_trip.eqs == irredundant.eqs == ()
        # remove_redundant keeps input rows; v_to_h writes them coprime and sorted.
        assert round_trip.ineqs == tuple(sorted(_joint_primitive(a, b)
                                                for a, b in irredundant.ineqs))
        checked.append(P)

    check()
    assert len(checked) >= 50


@st.composite
def boxes_with_an_implicit_equality(draw):
    """A box plus a pair a . x <= b, -a . x <= -b tight at its lower corner."""
    d = draw(st.integers(1, 3))
    rows = _box_rows(draw, d, wide=True)
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(tuple)
    a = draw(normal)
    b = sum(x * -c for x, (_, c) in zip(a, rows[1::2]))
    rows += [(a, b), (tuple(-x for x in a), -b)]
    order = draw(st.permutations(range(len(rows))))
    return HPolytope(dim=d, ineqs=tuple(rows[i] for i in order), eqs=())


def _dimension_case(P):
    dim = polytope_dim(P)
    if dim == -1:
        return "empty"
    if dim == 0:
        return "dim-0"
    if P.eqs:
        return "explicit"
    return "implicit" if dim < P.dim else "full"


@settings(max_examples=120, deadline=None)
@given(small_bounded_polytopes())
def test_vertex_graph_matches_rank_oracle(P):
    verts, rays, edges = _vertex_graph(P)
    assert sorted((verts[i], verts[j]) for i, j in edges) == sorted(brute_force_edges(P))
    assert list(edges) == sorted(edges) and all(i < j for i, j in edges)
    leaving = [[] for _ in verts]
    for i, j in edges:
        leaving[i].append(primitive_vector(tuple(b - a for a, b in zip(verts[i], verts[j]))))
        leaving[j].append(primitive_vector(tuple(a - b for a, b in zip(verts[i], verts[j]))))
    for i, v in enumerate(verts):
        assert rays[i] == tuple(sorted(leaving[i])) == edges_at_vertex(P, v)


@pytest.mark.parametrize("weights, chart", [
    ((1,) * 6, "diag"), ((1,) * 7, "diag"), ((1,) * 8, "diag"),
    ((1,) * 6, "entry"), ((1,) * 7, "entry"),
    ((1, 2, 2, 3, 3, 4, 4), "diag"), ((1, 2, 2, 3, 3, 4, 4), "entry"),
], ids=["equal-6-diag", "equal-7-diag", "equal-8-diag", "equal-6-entry",
        "equal-7-entry", "1223344-diag", "1223344-entry"])
def test_vertex_graph_matches_the_brute_force_edges_at_degenerate_vertices(weights, chart):
    s = SideData.from_weights(1, weights)
    P = polygon_hrep(s) if chart == "diag" else gt_slice(s).entry_chart
    verts, rays, edges = _vertex_graph(P)
    assert any(len(r) > P.dim for r in rays)  # some vertex is not simple
    assert sorted((verts[i], verts[j]) for i, j in edges) == sorted(brute_force_edges(P))
    assert list(edges) == sorted(edges)
    assert all(rays[i] == edges_at_vertex(P, v) for i, v in enumerate(verts))


@pytest.mark.parametrize("weights", [(1,) * 7, (1, 2, 2, 3, 3, 4, 4)])
def test_vertex_graph_holds_one_tuple_per_direction(weights):
    _, rays, _ = _vertex_graph(polygon_hrep(SideData.from_weights(1, weights)))
    first = {}
    for directions in rays:
        for direction in directions:
            assert first.setdefault(direction, direction) is direction
            assert type(direction) is tuple and {*map(type, direction)} == {int}
    assert sum(map(len, rays)) > len(first)  # some direction is shared


@settings(max_examples=80, deadline=None)
@given(full_dimensional_polytopes())
def test_facets_from_incidence_match_the_v_to_h_route(P):
    assert polytope_dim(P) == P.dim
    V = h_to_v(P)
    canon = v_to_h(V)
    keys = {_joint_primitive(a, b) for a, b in canon.ineqs}
    retained, covered = [], set()
    for a, b in P.ineqs:
        key = _joint_primitive(a, b)
        if key in keys and key not in covered:
            covered.add(key)
            retained.append((a, b))
    assert covered == keys
    assert remove_redundant(P) == HPolytope(P.dim, tuple(retained), canon.eqs)

    facets = canon.ineqs
    vert_sets = [frozenset(i for i, (a, b) in enumerate(facets) if dot(a, v) == b)
                 for v in V.vertices]
    enc = canonical_incidence(len(facets), None, vert_sets)
    assert combinatorial_fingerprint(P) == (
        f"dim={polytope_dim(P)};facets={len(facets)};vertices={len(V.vertices)};{enc}")


@settings(max_examples=80, deadline=None)
@given(full_dimensional_polytopes())
@example(HPolytope(2, _rows([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0),
                             ((1, 1), 40), ((2, 0), 2)]), ()))
def test_normal_fan_needs_no_redundancy_removal(P):
    assert normal_fan(P) == normal_fan(remove_redundant(P))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(full_dimensional_polytopes())
def test_fan_edges_are_the_vertex_graph_and_the_pairwise_adjacency(P):
    F = normal_fan(P)
    _, rays, edges = _vertex_graph(P)
    assert [frozenset(e) for e in F.edges] == pairwise_cone_adjacency(F)
    assert F.edges == edges and list(edges) == sorted(edges)
    assert [cone.rays for _, cone in F.maximal_cones] == list(rays)


def test_facet_rule_matches_the_v_to_h_route_and_the_rank_oracle():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))))
    def check(P):
        V = h_to_v(P)
        faces = _incidence(P)[3]  # an empty P has the certificate, tight nowhere
        masks = [mask for _, mask in faces[1]] if faces else [0]
        canon = v_to_h(V).ineqs
        assert len(masks) == len(canon)
        assert set(masks) == {sum(1 << k for k, v in enumerate(V.vertices) if dot(a, v) == b)
                              for a, b in canon}
        verts = brute_force_vertices(P)
        want = _rank([_minus(v, verts[0]) for v in verts[1:]]) if verts else -1
        assert polytope_dim(P) == want
        seen.add(_dimension_case(P))

    check()
    assert seen == {"empty", "dim-0", "explicit", "implicit", "full"}


def test_remove_redundant_matches_the_v_to_h_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(), boxes_with_an_implicit_equality(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))))
    def check(P):
        assert remove_redundant(P) == v_to_h_route_remove_redundant(P)
        seen.add(_dimension_case(P))

    check()
    assert seen == {"empty", "dim-0", "explicit", "implicit", "full"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_bounded_polytopes(),
                 st.randoms(use_true_random=False).map(
                     lambda rng: random_box_with_equalities(rng, HPolytope))))
def test_incidence_is_the_tightness_oracle_and_its_rays_clear_the_vertices(P):
    vert_masks, row_masks, (scale, ints), _ = _incidence(P)
    verts = h_to_v(P).vertices
    assert (verts, vert_masks, row_masks) == tightness_incidence(P)
    assert verts == h_to_v(P).vertices
    assert scale == math.lcm(1, *(clear_denominators(v)[0] for v in verts))
    assert ints == [tuple(scale * c for c in v) for v in verts]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_bounded_polytopes(),
                 st.randoms(use_true_random=False).map(
                     lambda rng: random_box_with_equalities(rng, HPolytope))), st.data())
def test_row_order_permutes_the_incidence_and_changes_nothing_else(P, data):
    # Rows reach the DD in input order; reordering P.ineqs must only relabel them.
    order = data.draw(st.permutations(range(len(P.ineqs))))
    Q = HPolytope(P.dim, tuple(P.ineqs[i] for i in order), P.eqs)
    vert_masks, row_masks, cleared, _ = _incidence(P)
    assert _incidence(Q)[:3] == (
        [sum(1 << k for k, i in enumerate(order) if mask >> i & 1) for mask in vert_masks],
        [row_masks[i] for i in order],
        cleared)
    assert h_to_v(Q).vertices == h_to_v(P).vertices
    assert _vertex_graph(Q) == _vertex_graph(P)


def test_dd_kernel_returns_the_reference_rays_zero_sets_and_lines(monkeypatch):
    # Every DD input _incidence and v_to_h build, and one on which the
    # kernel compacts its slots (the m=1 r=(2,2,3,1,3,1) entry chart).  The
    # reference takes no equalities: the doubled-row oracle covers those.
    dd, dims = polytopes._dd_extreme_rays, []

    def compared(rows, dim, eqs=()):
        out = dd(rows, dim, eqs)
        if not eqs:
            assert out == reference_dd_extreme_rays(rows, dim)
            dims.append(dim)
        return out

    monkeypatch.setattr(polytopes, "_dd_extreme_rays", compared)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))))
    def check(P):
        clear_caches()
        v_to_h(h_to_v(P))

    check()
    clear_caches()
    _incidence(gt_slice(SideData.from_weights(1, (2, 2, 3, 1, 3, 1))).entry_chart)
    assert dims[-1] == 4  # the chart is 3-dimensional


@st.composite
def integer_cones(draw):
    """Rows with entries in -3..3 in dimension 2-6: random rows, zero rows,
    repeated rows and dependent ones (negations and in-range sums), so
    that some cones keep lines."""
    dim = draw(st.integers(2, 6))
    fresh = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = [draw(fresh)]
    for _ in range(draw(st.integers(2, 19))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "negated", "sum")))
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        total = tuple(x + y for x, y in zip(a, b))
        rows.append(draw(fresh) if kind == "fresh" else (0,) * dim if kind == "zero" else
                    a if kind == "repeat" else
                    total if kind == "sum" and max(map(abs, total)) <= 3 else
                    tuple(-x for x in a))
    return rows, dim


def test_dd_kernel_on_integer_cones_returns_the_reference_output():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(integer_cones())
    def check(cone):
        rows, dim = cone
        rays, zsets, lines = polytopes._dd_extreme_rays(rows, dim)
        assert (rays, zsets, lines) == reference_dd_extreme_rays(rows, dim)
        seen.add((bool(rays), bool(lines)))

    check()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def systems_with_equalities(draw):
    """Rows with entries in -2..2 in dimension 1-4, at most 2d + 2 of them,
    so that some systems are unbounded, and 1-3 equalities: each one after
    the first is fresh, a multiple of an earlier one (dependent) or that
    multiple with its rhs moved (inconsistent).  Returns (P, kinds drawn)."""
    d = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    ineqs = draw(st.lists(st.tuples(normal, st.integers(-2, 4)), max_size=2 * d + 2))
    eqs = [(draw(normal), draw(st.builds(Fraction, st.integers(-3, 4), st.sampled_from((1, 2)))))]
    kinds = set()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("fresh", "dependent", "inconsistent")))
        a, b = draw(st.sampled_from(eqs))
        eqs.append((draw(normal), draw(st.integers(-3, 4))) if kind == "fresh" else
                   (tuple(2 * c for c in a), 2 * b + (kind == "inconsistent")))
        kinds.add(kind)
    return HPolytope(d, tuple(ineqs), tuple(eqs)), kinds


def test_equalities_cutting_the_lines_give_the_doubled_row_incidence():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(systems_with_equalities(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: (random_box_with_equalities(rng, HPolytope), set()))))
    def check(case):
        P, kinds = case
        clear_caches()
        record = _record_or_error(lambda: _incidence(P)[:3])
        assert record == _record_or_error(lambda: doubled_row_incidence(P))
        seen.update(kinds)
        seen.add(record[1].split("(")[1].split(")")[0] if record[0] is UnboundedPolytopeError
                 else "nonempty" if record[0] else "empty")

    check()
    assert seen == {"fresh", "dependent", "inconsistent", "recession line", "recession ray",
                    "nonempty", "empty"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_gt_slices_cut_by_their_row_sums_give_the_doubled_row_incidence(data):
    # The row sums of a drawn interlacing pattern, so every slice is nonempty.
    k = data.draw(st.integers(2, 5))
    rows = [sorted(data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k, unique=True)),
                   reverse=True)]
    while len(rows[-1]) > 1:
        above = rows[-1]
        rows.append([data.draw(st.integers(low, high)) for high, low in zip(above, above[1:])])
    P = gt_hrep(GTSpec(k, tuple(rows[0]), [sum(row) for row in reversed(rows[1:])]))
    clear_caches()
    record = _incidence(P)[:3]
    assert record[0] and record == doubled_row_incidence(P)


@pytest.mark.parametrize("k, lam, sums", [
    (4, (2, 1, 0, 0), (1, 2, 3)), (5, (3, 2, 1, 0, 0), (2, 4, 5, 6)),
    (5, (4, 3, 2, 1, 0), (2, 5, 7, 9))])
def test_pinned_gt_slices_give_the_doubled_row_incidence(k, lam, sums):
    P = gt_hrep(GTSpec(k, lam, sums))
    record = _incidence(P)[:3]
    assert len(record[0]) > 1 and record == doubled_row_incidence(P)


WITH_EQ = HPolytope(3, _rows([((1, 0, 0), 2), ((-1, 0, 0), 0), ((0, 1, 0), 2),
                               ((0, -1, 0), 0), ((0, 0, 1), 2), ((0, 0, -1), 0),
                               ((1, 1, 0), 5)]),
                     _rows([((1, 1, 1), 3)]))
IMPLICIT = HPolytope(2, _rows([((1, 0), 1), ((0, 2), 4), ((-1, 0), -1),
                               ((0, 1), 2), ((0, -1), 0), ((1, 1), 9)]), ())


def test_remove_redundant_of_lower_dimensional_systems_is_unchanged():
    assert polytope_dim(WITH_EQ) < WITH_EQ.dim
    assert remove_redundant(WITH_EQ) == HPolytope(3, _rows([
        ((-2, 1, 1), 3), ((-1, -1, 2), 3), ((-1, 2, -1), 3),
        ((1, -2, 1), 3), ((1, 1, -2), 3), ((2, -1, -1), 3)]), _rows([((1, 1, 1), 3)]))
    assert polytope_dim(IMPLICIT) < IMPLICIT.dim
    assert remove_redundant(IMPLICIT) == HPolytope(
        2, _rows([((0, 2), 4), ((0, -1), 0)]), _rows([((1, 0), 1)]))


def test_full_dimensional_polygon_needs_no_second_dd_pass():
    P = polygon_hrep(SideData.from_weights(1, (2, 3, 4, 5, 6, 7)))
    clear_caches()
    misses = v_to_h.cache_info().misses
    remove_redundant(P)
    combinatorial_fingerprint(P)
    assert v_to_h.cache_info().misses == misses
    assert polytope_dim(P) == P.dim


@pytest.mark.parametrize("P", [WITH_EQ, IMPLICIT], ids=["with_eq", "implicit"])
def test_lower_dimensional_systems_need_no_second_dd_pass(P):
    clear_caches()
    remove_redundant(P)
    assert v_to_h.cache_info().misses == 0
    assert _incidence.cache_info().misses == 1


SLAB = HPolytope(2, _rows([((1, 0), 1), ((-1, 0), 0)]), ())
INFEASIBLE_SLAB = HPolytope(2, _rows([((1, 0), 0), ((-1, 0), -1)]), ())
EQUALITY_ONLY = HPolytope(2, (), _rows([((1, 1), 1)]))


def _dd_dimensions(monkeypatch) -> list[int]:
    """The dimension of every _dd_extreme_rays call from here on, in order."""
    calls = []
    dd = polytopes._dd_extreme_rays

    def counting_dd(rows, dim, eqs=()):
        calls.append(dim)
        return dd(rows, dim, eqs)

    monkeypatch.setattr(polytopes, "_dd_extreme_rays", counting_dd)
    return calls


# The equality's one row is fewer than dim 2, so its DD runs in 1 + 1 coordinates.
@pytest.mark.parametrize("P, message, dd_dim", [
    (SLAB, "recession line", 3), (INFEASIBLE_SLAB, None, 3),
    (EQUALITY_ONLY, "recession line", 2),
], ids=["slab", "infeasible-slab", "equality-only"])
def test_non_pointed_input_takes_one_dd_pass(monkeypatch, P, message, dd_dim):
    calls = _dd_dimensions(monkeypatch)
    clear_caches()
    if message is None:
        assert h_to_v(P) == VPolytope(2, ())
    else:
        with pytest.raises(UnboundedPolytopeError, match=message):
            h_to_v(P)
    assert calls == [dd_dim]


def test_a_file_with_fewer_rows_than_dim_runs_one_dd_in_its_rows(monkeypatch):
    P = HPolytope.from_json_dict({"dim": 50, "ineqs": [{"a": ["1"] * 50, "b": "7"}]})
    calls = _dd_dimensions(monkeypatch)
    clear_caches()
    with pytest.raises(UnboundedPolytopeError, match="recession line"):
        h_to_v(P)
    assert calls == [2]  # the ambient cone over P would take 51


def _ambient_verdict(P) -> str:
    """Whether P is empty, by one DD on the cone over P in P.dim + 1
    coordinates: P is nonempty exactly when some ray has t > 0."""
    cone = [(b, *[-c for c in a]) for a, b in P._coprime]
    rays, _, _ = polytopes._dd_extreme_rays(
        cone[:len(P.ineqs)] + [(1,) + (0,) * P.dim], P.dim + 1, cone[len(P.ineqs):])
    return "unbounded" if any(ray[0] for ray in rays) else "empty"


def test_systems_with_fewer_rows_than_dim_get_the_ambient_dds_verdict():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        dim = data.draw(st.integers(1, 6))
        entry = st.integers(-3, 3)
        rows = data.draw(st.lists(st.tuples(st.lists(entry, min_size=dim, max_size=dim), entry,
                                            st.booleans()), max_size=dim - 1))
        ineqs = [(a, b if any(a) else -1) for a, b, eq in rows if not eq]
        eqs = [(a, b) for a, b, eq in rows if eq and any(a)]
        P = HPolytope(dim, _rows(ineqs), _rows(eqs))
        clear_caches()
        verdict = _ambient_verdict(P)
        seen[verdict] += 1
        seen["with eqs"] += bool(eqs)
        if verdict == "empty":
            assert h_to_v(P) == VPolytope(dim, ())
            assert polytope_dim(P) == -1 and remove_redundant(P) == empty_hrep(dim)
        else:
            with pytest.raises(UnboundedPolytopeError, match="recession line"):
                _incidence(P)

    check()
    assert seen["empty"] and seen["unbounded"] and seen["with eqs"], seen


@pytest.mark.parametrize("P", [
    polygon_hrep(SideData.from_weights(1, (2, 3, 4, 5, 6, 7))), SLAB, INFEASIBLE_SLAB,
], ids=["polygon", "slab", "infeasible-slab"])
def test_the_dd_runs_in_integers_with_no_rational_elimination(monkeypatch, P):
    calls = []
    gauss_jordan = exact._gauss_jordan

    def counting_gauss_jordan(rows, ncols):
        calls.append(len(rows))
        return gauss_jordan(rows, ncols)

    monkeypatch.setattr(exact, "_gauss_jordan", counting_gauss_jordan)
    clear_caches()
    _outcome(h_to_v, P)
    assert calls == []


def test_repeated_unbounded_calls_raise_fresh_errors_with_one_message():
    clear_caches()
    raised = []
    for _ in range(3):
        with pytest.raises(UnboundedPolytopeError) as exc:
            h_to_v(SLAB)
        raised.append(exc.value)
    assert {str(e) for e in raised} == {
        "polytope is unbounded (recession line); bounded input required"}
    assert len({id(e) for e in raised}) == 3


def test_warm_remove_redundant_recomputes_no_affine_hull(monkeypatch):
    hulls = []
    hull = polytopes._affine_hull

    def counting_hull(verts, dim):
        hulls.append(dim)
        return hull(verts, dim)

    monkeypatch.setattr(polytopes, "_affine_hull", counting_hull)
    clear_caches()
    first = remove_redundant(WITH_EQ)
    assert remove_redundant(WITH_EQ) is first
    assert hulls == [3]


def test_one_face_record_per_polytope(monkeypatch):
    hulls = []
    hull = polytopes._affine_hull

    def counting_hull(rows, dim):
        hulls.append(dim)
        return hull(rows, dim)

    monkeypatch.setattr(polytopes, "_affine_hull", counting_hull)
    clear_caches()
    polygon = polygon_hrep(SideData.from_weights(1, (Fraction(5, 2), 3, 4, 5, 6, 7)))
    remove_redundant(polygon)
    assert polytope_dim(polygon) == polygon.dim
    combinatorial_fingerprint(polygon)
    normal_fan(polygon)
    assert hulls == [polygon.dim]
    hulls.clear()
    s = SideData.from_weights(1, (3, 3, 3, 3, 4))
    assert verify_duality(s, 3).all_pass
    combinatorial_fingerprint(gt_slice(s).entry_chart)
    charts = [gt_slice(side).entry_chart for side in (s, dual_side_data(s))]
    assert hulls == [chart.dim for chart in charts]


def test_remove_redundant_derives_nothing_from_the_rows_it_keeps(monkeypatch):
    polygon = polygon_hrep(SideData.from_weights(1, (Fraction(5, 2), 3, 4, 5, 6, 7)))
    clear_caches()
    assert _incidence(polygon)[3][0] == ()  # full-dimensional
    born, hashed = [], []
    joint, fraction_hash = polytopes._joint_primitive, Fraction.__hash__

    def counted_joint(normal, rhs):
        born.append(normal)
        return joint(normal, rhs)

    def counted_hash(self):
        hashed.append(id(self))
        return fraction_hash(self)

    monkeypatch.setattr(polytopes, "_joint_primitive", counted_joint)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    Q = remove_redundant.__wrapped__(polygon)
    monkeypatch.undo()
    assert born == []
    # Q keeps P's own Fraction objects, each hashed once, for the record's hash.
    assert Counter(hashed) == Counter(id(c) for a, b in Q.ineqs for c in (*a, b))
    assert all(row in polygon.ineqs for row in Q.ineqs) and Q == remove_redundant(polygon)


def test_remove_redundant_record_is_the_one_hpolytope_builds_from_its_rows():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes(), boxes_with_an_implicit_equality(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_box_with_equalities(rng, HPolytope))))
    @example(WITH_EQ)
    @example(IMPLICIT)
    def check(P):
        Q = remove_redundant(P)
        R = _hpolytope(Q.dim, Q.ineqs, Q.eqs)
        assert (R, repr(R), hash(R), R._coprime) == (Q, repr(Q), hash(Q), Q._coprime)
        if any(row not in P.ineqs for row in Q.ineqs):
            seen.add("onto_hull")

    check()
    assert seen == {"onto_hull"}


@st.composite
def cylinders(draw):
    """A bounded cross-section times lines in Q^d, d = 1..4: a box with cuts
    on the first k < d coordinates, optionally with an equality on them and a
    row that empties it, in coordinates mixed by a unimodular map so that the
    lines lie off the axes.  k = 0 gives Q^d, or the infeasibility
    certificate when emptied."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d - 1))
    rows, eqs = [], []
    if k:
        rows = _box_rows(draw, k, wide=False)
        normal = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any).map(tuple)
        for a in draw(st.lists(normal, max_size=2)):
            rows.append((a, draw(st.integers(-4, 8))))
        if draw(st.booleans()):
            rhs = Fraction(draw(st.integers(-3, 6)), draw(st.sampled_from((1, 2))))
            eqs.append((draw(normal), rhs))
    if draw(st.booleans()):
        a, b = rows[0] if rows else ((), 0)
        rows.append((tuple(-c for c in a), -b - 1))
    upper = [[int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(d)]
             for i in range(d)]
    order = draw(st.permutations(range(d)))

    def mix(a):
        padded = tuple(a) + (0,) * (d - k)
        return tuple(sum(padded[i] * upper[i][j] for i in range(d)) for j in order)

    return HPolytope(d, tuple((mix(a), b) for a, b in rows),
                     tuple((mix(a), b) for a, b in eqs))


def _outcome(h_to_v_rule, P):
    try:
        return h_to_v_rule(P)
    except UnboundedPolytopeError as exc:
        return str(exc)


def test_one_dd_pass_on_cylinders_agrees_with_the_section_rule():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cylinders())
    def check(P):
        got = _outcome(h_to_v, P)
        assert got == _outcome(section_rule_h_to_v, P)
        seen.add((bool(P.eqs), "feasible" if isinstance(got, str) else "empty"))

    check()
    assert seen == {(eqs, case) for eqs in (False, True) for case in ("feasible", "empty")}


@st.composite
def flat_point_sets(draw, max_dim=4):
    """(d, points): 1..6 rational points of Q^d, d = 0..max_dim, on the
    affine span of a base point and k <= d random integer directions,
    possibly dependent, with an optional duplicate: single points, collinear
    and lower-dimensional sets."""
    d = draw(st.integers(0, max_dim))
    rational = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    base = draw(st.lists(rational, min_size=d, max_size=d))
    dirs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=d))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(rational, min_size=len(dirs), max_size=len(dirs)))
        points.append(tuple(x + sum(c * u[i] for c, u in zip(coeffs, dirs))
                            for i, x in enumerate(base)))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    return d, points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flat_point_sets(), st.data())
def test_one_hull_pass_gives_the_all_vertex_equalities_and_moves_rows_onto_the_hull(case, data):
    d, points = case
    eqs = v_to_h(VPolytope(d, points)).eqs
    assert eqs == all_vertex_affine_hull_equalities(points, d)
    # _onto_hull moves a row onto the hull: its normal becomes orthogonal to
    # every equality normal, and its values on the points are the input
    # row's, times one positive factor.
    normal = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    rhs = data.draw(st.integers(-3, 3))
    given_values = [dot(normal, v) - rhs for v in points]
    assume(any(given_values))
    # With no equalities, the row is only made coprime.
    assert _onto_hull((), normal, rhs) == _joint_primitive(normal, rhs)
    a, b = _onto_hull(eqs, normal, rhs)
    assert all(dot(a, e) == 0 for e, _ in eqs)
    values = [dot(a, v) - b for v in points]
    ratio = next(x / y for x, y in zip(values, given_values) if y)
    assert ratio > 0 and values == [ratio * y for y in given_values]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flat_point_sets(), st.data())
def test_affine_hull_of_any_spanning_set_of_equalities_is_the_all_vertex_form(case, data):
    d, points = case
    want = all_vertex_affine_hull_equalities(points, d)
    ints = st.integers(-2, 2)

    def combination(weights):
        return (tuple(sum(w * e[j] for w, (e, _) in zip(weights, want)) for j in range(d)),
                sum(w * f for w, (_, f) in zip(weights, want)))

    # Row i is e_i plus integer multiples of the later e_j: a unitriangular,
    # so spanning, set; then redundant combinations and copies scaled by 1/3.
    rows = [combination([0] * i + [1] + data.draw(st.lists(ints, min_size=len(want) - i - 1,
                                                           max_size=len(want) - i - 1)))
            for i in range(len(want))]
    rows += [combination(data.draw(st.lists(ints, min_size=len(want), max_size=len(want))))
             for _ in range(data.draw(st.integers(0, 3)))]
    rows += [(tuple(Fraction(c, 3) for c in a), Fraction(b, 3))
             for a, b in rows if data.draw(st.booleans())]
    assert _affine_hull(data.draw(st.permutations(rows)), d) == want


def test_hull_equalities_eliminate_only_the_equality_rows(monkeypatch):
    sizes = []
    real = polytopes._gauss_jordan

    def counting_gauss_jordan(rows, ncols):
        sizes.append(len(rows))
        return real(rows, ncols)

    monkeypatch.setattr(polytopes, "_gauss_jordan", counting_gauss_jordan)
    # Nine points of a grid in the plane x + y + z = 3: the DD leaves one
    # line, the one row eliminated.
    grid = VPolytope(3, [(i, j, 3 - i - j) for i in range(3) for j in range(3)])
    clear_caches()
    assert v_to_h(grid).eqs == _rows([((1, 1, 1), 3)])
    assert sizes == [1]
    for P, rows in [(WITH_EQ, 1), (IMPLICIT, 2)]:  # explicit, then two tight rows
        sizes.clear()
        remove_redundant(P)
        assert sizes == [rows]
    sizes.clear()
    polygon = polygon_hrep(SideData.from_weights(1, (Fraction(5, 2), 3, 4, 5, 6, 7)))
    assert remove_redundant(polygon).eqs == () and polytope_dim(polygon) == polygon.dim
    assert not any(sizes)  # no row eliminated


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flat_point_sets(max_dim=5), st.data())
def test_v_to_h_matches_the_chart_route(case, data):
    d, points = case
    picks = data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=4)
                      if len(points) > 1 else st.just([]))
    if picks:  # an interior or boundary point that is no vertex
        points = points + [tuple(sum(x) / len(picks) for x in zip(*picks))]
    V = VPolytope(d, points)
    want = chart_route_v_to_h(V)
    moved = []
    onto_hull = polytopes._onto_hull

    def recording(eqs, normal, rhs):
        moved.append(onto_hull(eqs, normal, rhs))
        return moved[-1]

    with mock.patch.object(polytopes, "_onto_hull", recording):
        got = v_to_h.__wrapped__(V)
    assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
    assert v_to_h(V) == want
    # Every ray of the DD moves onto the hull with a nonzero normal, one
    # facet each: no row is dropped or merged.
    assert all(any(a) for a, _ in moved) and len(moved) == len(got.ineqs)


@st.composite
def skewed_hull_systems(draw):
    """An H-system whose affine hull is lower-dimensional, as inequalities:
    the facets of conv(points) for a flat point set, each given as rows
    skewed along the hull equalities (a + sum t_i e_i, b + sum t_i f_i),
    often with no orthogonal row left, some rows loosened, and each hull
    equality as two opposite inequalities or, once, explicitly."""
    d, points = draw(flat_point_sets(max_dim=4))
    H = v_to_h(VPolytope(d, points))
    rows = []
    for a, b in H.ineqs:
        for _ in range(draw(st.integers(1, 2))):
            t = draw(st.lists(st.integers(-2, 2), min_size=len(H.eqs), max_size=len(H.eqs)))
            rows.append((tuple(c + sum(ti * e[j] for ti, (e, _) in zip(t, H.eqs))
                               for j, c in enumerate(a)),
                         b + sum(ti * f for ti, (_, f) in zip(t, H.eqs))
                         + draw(st.sampled_from((0, 0, 1)))))
    eqs = []
    for e, f in H.eqs:
        if not eqs and draw(st.booleans()):
            eqs.append((e, f))
        else:
            rows += [(e, f), (tuple(-c for c in e), -f)]
    return HPolytope(d, tuple(draw(st.permutations(rows))), tuple(eqs))


def test_remove_redundant_matches_the_chart_route_projection():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(skewed_hull_systems())
    def check(P):
        got, want = remove_redundant(P), chart_route_remove_redundant(P)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
        if set(got.ineqs) - set(P.ineqs):
            seen.add("moved onto the hull")
        seen.add("implicit" if len(got.eqs) > len(P.eqs) else "none implicit")

    check()
    assert seen == {"moved onto the hull", "implicit", "none implicit"}
