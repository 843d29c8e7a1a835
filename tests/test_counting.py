import gc
import math
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weightpoly.builders import GTSpec, SideData, dual_side_data, gt_slice, polygon_hrep
from weightpoly.counting import (DilateCounts, DualityInvariant, EhrhartFit, MultiplicityQuery,
                                 _admissible_step, _fit_shape, _interpolate,
                                 count_dilates, ehrhart_fit, real_fiber_size,
                                 verify_duality, verify_ehrhart_identity,
                                 weight_multiplicity)
from weightpoly.exact import vec
from weightpoly.polytopes import (HPolytope, UnboundedPolytopeError,
                                  _incidence, _scan_setup,
                                  count_lattice_points, empty_hrep, h_to_v, lattice_points,
                                  polytope_dim)
from caches import clear_caches
from test_polytopes import small_bounded_polytopes
from oracles import (pattern_multiplicity, per_permutation_multiplicity,
                     polygon_area, random_admissible_r, random_box_with_cuts,
                     spread_weight_multiplicity, vandermonde_fit)


def box2():
    return HPolytope(dim=2, ineqs=(
        (vec([1, 0]), Fraction(1)), (vec([-1, 0]), Fraction(0)),
        (vec([0, 1]), Fraction(1)), (vec([0, -1]), Fraction(0))), eqs=())


@pytest.mark.parametrize("call, message", [
    (lambda: count_lattice_points(box2(), True), "dilate must be a positive integer"),
    (lambda: lattice_points(box2(), True), "dilate must be a positive integer"),
    (lambda: lattice_points(box2(), 0), "dilate must be a positive integer"),
    (lambda: count_dilates(box2(), True), "t_max must be a positive integer"),
    (lambda: count_dilates(box2(), 0), "t_max must be a positive integer"),
    (lambda: GTSpec(True, ()), "k must be a positive integer"),
    (lambda: GTSpec(0, ()), "k must be a positive integer"),
    (lambda: verify_duality(SideData.from_weights(1, (1, 1, 1, 1)), 0),
     "t_max must be a positive integer"),
    (lambda: verify_ehrhart_identity(SideData.from_weights(1, (1, 1, 1, 1)), True),
     "t_max must be a positive integer"),
    (lambda: MultiplicityQuery(True, 3, 1, (1, 1, 0)), "m must be a positive integer"),
    (lambda: MultiplicityQuery(1, 3, True, (1, 1, 0)), "P must be a nonnegative integer"),
    (lambda: MultiplicityQuery(1, 3, 1, (True, 1, 0)), "r must be 3 nonnegative integers"),
    (lambda: real_fiber_size(True, 5), "m must be a positive integer"),
    (lambda: real_fiber_size(1, True), "n must be an integer"),
    (lambda: MultiplicityQuery(1, True, 1, (1, 1, 0)), "n must be an integer"),
    (lambda: MultiplicityQuery.from_side(SideData.from_weights(1, (1, 1, 1, 1)), True),
     "dilate must be a nonnegative integer"),
    (lambda: MultiplicityQuery.from_side(SideData.from_weights(1, (1, 1, 1, 1)), 1.0),
     "dilate must be a nonnegative integer"),
    (lambda: MultiplicityQuery.from_side(SideData.from_weights(1, (1, 1, 1, 1)), -1),
     "dilate must be a nonnegative integer"),
], ids=["count_lattice_points", "lattice_points-bool", "lattice_points-zero",
        "count_dilates", "count_dilates-zero", "GTSpec.k-bool", "GTSpec.k-zero",
        "verify_duality-zero", "verify_ehrhart_identity",
        "MultiplicityQuery.m", "MultiplicityQuery.P", "MultiplicityQuery.r",
        "real_fiber_size", "real_fiber_size.n", "MultiplicityQuery.n",
        "from_side-bool", "from_side-float", "from_side-negative"])
def test_bools_are_rejected_where_integers_are_required(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_count_dilates_square():
    c = count_dilates(box2(), 2)
    assert c.counts == (1, 4, 9)
    assert c.t_max == 2 and c.count(2) == 9


def test_ehrhart_fit_square_polynomial():
    fit = ehrhart_fit(count_dilates(box2(), 3))
    assert fit.mode == "polynomial" and fit.period == 1 and fit.degree == 2
    assert fit.coeffs_by_class == ((Fraction(1), Fraction(2), Fraction(1)),)
    assert fit.leading_coefficient == 1
    assert [fit.evaluate(t) for t in range(6)] == [1, 4, 9, 16, 25, 36]


HALF_SEGMENT = HPolytope(dim=1, ineqs=((vec([1]), Fraction(1, 2)), (vec([-1]), Fraction(0))),
                        eqs=())


def test_ehrhart_fit_quasi_half_segment():
    c = count_dilates(HALF_SEGMENT, 4)
    assert c.counts == (1, 1, 2, 2, 3)
    fit = ehrhart_fit(c)
    assert fit.mode == "quasi" and fit.period == 2 and fit.degree == 1
    assert fit.coeffs_by_class == ((Fraction(1), Fraction(1, 2)),
                                   (Fraction(1, 2), Fraction(1, 2)))
    assert [fit.evaluate(t) for t in range(9)] == [1, 1, 2, 2, 3, 3, 4, 4, 5]


ENTRY_33334 = gt_slice(SideData.from_weights(1, (3, 3, 3, 3, 4))).entry_chart


def test_dilate_count_reads_only_the_counted_dilates():
    c = count_dilates(ENTRY_33334, 3)
    assert [c.count(t) for t in range(4)] == list(c.counts) and c.counts[-1] == 67
    # -1 read counts[-1], the t_max count, and True read the t = 1 count.
    for t, message in [(-1, "t must be a nonnegative integer"),
                       (4, "t must be at most t_max = 3"),
                       (True, "t must be a nonnegative integer"),
                       (2.0, "t must be a nonnegative integer")]:
        with pytest.raises(ValueError, match=message):
            c.count(t)


def test_ehrhart_evaluate_takes_every_int_and_nothing_else():
    fit = ehrhart_fit(count_dilates(box2(), 3))
    # Reciprocity: (1 - t)^2 at t counts the interior points of (-t) * square.
    assert [fit.evaluate(t) for t in (-1, -2, -3)] == [0, 1, 4]
    # True evaluated at 1, and 2.0 raised a TypeError from the tuple index.
    for t in (True, False, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="t must be an integer"):
            fit.evaluate(t)


def test_ehrhart_leading_coefficient_is_area():
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))
    P = polygon_hrep(s)
    fit = ehrhart_fit(count_dilates(P, 6))
    assert fit.period == 1  # the vertices are integral even though P is not
    assert fit.leading_coefficient == polygon_area(h_to_v(P).vertices)


def test_ehrhart_fit_rejects_non_polynomial_counts():
    message = r"^counts not \(quasi-\)polynomial at this period$"
    with pytest.raises(ValueError, match=message):
        ehrhart_fit(DilateCounts(polytope=box2(), counts=(1, 4, 9, 17)))
    # P = 15/2: period 2, degree 2, so t = 0..5 are the nodes and only the
    # reproduction check reads t = 6.
    counts = count_dilates(gt_slice(SideData.from_weights(1, (3,) * 5)).entry_chart, 6)
    fit = ehrhart_fit(counts)
    assert (fit.period, fit.degree) == (2, 2)
    tampered = DilateCounts(counts.polytope, (*counts.counts[:-1], counts.counts[-1] + 1))
    with pytest.raises(ValueError, match=message):
        ehrhart_fit(tampered)


@st.composite
def small_entry_charts(draw):
    """(m, the entry chart of a random side with m = 1..3 and n = m + 3 weights)."""
    m = draw(st.integers(1, 3))
    r = random_admissible_r(draw(st.randoms(use_true_random=False)), m + 3, hi=6, m=m)
    return m, gt_slice(SideData.from_weights(m, r)).entry_chart


def test_ehrhart_fit_rejects_a_bad_sample_in_any_residue_class():
    message = r"^counts not \(quasi-\)polynomial at this period$"
    tampered_classes = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(small_entry_charts())
    def check(case):
        _, P = case
        period, degree = _incidence(P)[2][0], max(polytope_dim(P), 0)
        t_max = period * (degree + 2) - 1  # degree + 2 samples in each class
        counts = count_dilates(P, t_max)
        expected = EhrhartFit("polynomial" if period == 1 else "quasi", period, degree, tuple(
            tuple(vandermonde_fit(nodes, [counts.count(t) for t in nodes]))
            for nodes in (range(residue, t_max + 1, period)[:degree + 1]
                          for residue in range(period))))
        assert all(expected.evaluate(t) == counts.count(t) for t in range(t_max + 1))
        assert ehrhart_fit(counts) == expected
        for t in range(period * (degree + 1), t_max + 1):
            raised = list(counts.counts)
            raised[t] += 1
            with pytest.raises(ValueError, match=message):
                ehrhart_fit(DilateCounts(P, tuple(raised)))
            tampered_classes.add(t % period)

    check()
    assert {0, 1} <= tampered_classes


def test_the_fit_period_is_the_lcm_of_the_vertex_denominators():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(small_bounded_polytopes().map(lambda P: (0, P)), small_entry_charts()))
    def check(case):
        m, P = case
        verts = h_to_v(P).vertices
        period = math.lcm(1, *(x.denominator for v in verts for x in v))
        fit = ehrhart_fit(count_dilates(P, max(1, period * (polytope_dim(P) + 1) - 1)))
        assert fit.period == period
        seen.add((m, period > 1))

    check()
    assert seen == {(m, quasi) for m in range(4) for quasi in (False, True)}


@pytest.mark.parametrize("P, t_max, message", [
    (box2(), 1, "residue class 0 needs 3 dilates, has 2"),
    (HALF_SEGMENT, 2, "residue class 1 needs 2 dilates, has 1"),
    (HALF_SEGMENT, 1, "residue class 0 needs 2 dilates, has 1"),
])
def test_ehrhart_fit_and_its_pre_check_reject_insufficient_samples_alike(P, t_max, message):
    text = f"insufficient samples: {message}"
    with pytest.raises(ValueError) as fitted:
        ehrhart_fit(count_dilates(P, t_max))
    with pytest.raises(ValueError) as checked:
        _fit_shape(P, t_max)
    assert str(fitted.value) == str(checked.value) == text


def test_the_pre_check_passes_exactly_when_the_fit_has_its_samples():
    for P in (box2(), HALF_SEGMENT, empty_hrep(2)):
        for t_max in range(1, 8):
            try:
                fit = ehrhart_fit(count_dilates(P, t_max))
            except ValueError:
                with pytest.raises(ValueError):
                    _fit_shape(P, t_max)
            else:
                assert _fit_shape(P, t_max) == (fit.period, fit.degree)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.integers(1, 4),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=7))
@example(0, 1, [0])
@example(3, 4, [5, 5, 5, 5, 5, 5, 5])
def test_forward_differences_give_the_vandermonde_coefficients(start, step, values):
    nodes = [start + k * step for k in range(len(values))]
    coeffs = _interpolate(start, step, values)
    assert coeffs == vandermonde_fit(nodes, values)
    assert all(type(c) is Fraction for c in coeffs)


def test_ehrhart_fit_matches_the_vandermonde_solve_on_random_polytopes():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        P = random_box_with_cuts(rng, HPolytope)
        verts = h_to_v(P).vertices
        if not verts:
            return
        period = math.lcm(1, *(x.denominator for v in verts for x in v))
        t_max = period * (len(verts[0]) + 1) - 1  # enough for any dimension
        if t_max > 11:
            return  # keeps every scan small
        counts = count_dilates(P, t_max)
        fit = ehrhart_fit(counts)
        for residue, coeffs in enumerate(fit.coeffs_by_class):
            nodes = range(residue, t_max + 1, period)[:fit.degree + 1]
            assert coeffs == vandermonde_fit(nodes, [counts.count(t) for t in nodes])
        seen.add((fit.mode, fit.degree))

    check()
    assert {("polynomial", 4), ("quasi", 1), ("quasi", 2), ("quasi", 3)} <= seen


def test_count_and_fit_read_vertices_off_the_dd_record_not_h_to_v():
    clear_caches()
    before = h_to_v.cache_info()
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))  # P = 15/2: half-integral vertices
    fit = ehrhart_fit(count_dilates(gt_slice(s).entry_chart, 5))
    assert (fit.mode, fit.period, fit.degree) == ("quasi", 2, 2)
    after = h_to_v.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


ZERO_FIT = EhrhartFit("polynomial", 1, 0, ((Fraction(0),),))


def test_ehrhart_fit_empty_polytope_is_zero():
    for d in range(4):
        for t_max in (1, 2, 3):
            fit = ehrhart_fit(count_dilates(empty_hrep(d), t_max))
            assert fit == ZERO_FIT
            assert fit.evaluate(5) == 0


def test_ehrhart_fit_of_a_point_has_degree_zero():
    point = HPolytope.from_json_dict({"dim": 0})
    for t_max in (1, 2, 3):
        fit = ehrhart_fit(count_dilates(point, t_max))
        assert fit == EhrhartFit("polynomial", 1, 0, ((Fraction(1),),))


UNIT_SQUARE = (((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0))

# Each equality is a row pair in P's own coordinates; the error texts, counts,
# listings and fits below are those the Hermite chart route gave.


@pytest.mark.parametrize("P, recession", [
    (HPolytope(2, (), (((1, 1), 0),)), "line"),
    (HPolytope(2, (((-1, 0), 0),), (((1, 1), 0),)), "ray"),
], ids=["line", "ray"])
def test_unbounded_equality_polytopes_raise_the_pinned_text(P, recession):
    clear_caches()
    for call in (lambda: count_lattice_points(P, 1), lambda: lattice_points(P, 1),
                 lambda: count_dilates(P, 4)):
        with pytest.raises(UnboundedPolytopeError) as exc:
            call()
        assert str(exc.value) == (f"polytope is unbounded (recession {recession});"
                                  " bounded input required")


@pytest.mark.parametrize("P, counts, listed, fit", [
    (HPolytope(1, (), (((1,), 1), ((1,), 2))), [0, 0, 0], [[], [], []], ZERO_FIT),
    (HPolytope(2, (), (((1, 0), 1), ((0, 1), 2))), [1, 1, 1], [[(1, 2)], [(2, 4)], [(3, 6)]],
     EhrhartFit("polynomial", 1, 0, ((Fraction(1),),))),
    (HPolytope(1, (), (((1,), Fraction(1, 2)),)), [0, 1, 0], [[], [(1,)], []],
     EhrhartFit("quasi", 2, 0, ((Fraction(1),), (Fraction(0),)))),
    (HPolytope(2, UNIT_SQUARE, (((2, 2), 1),)), [0, 2, 0], [[], [(0, 1), (1, 0)], []],
     EhrhartFit("quasi", 2, 1, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(0))))),
], ids=["contradictory", "point", "half", "half-diagonal"])
def test_equality_polytopes_count_list_and_fit_as_pinned(P, counts, listed, fit):
    clear_caches()
    assert [count_lattice_points(P, t) for t in (1, 2, 3)] == counts
    assert [lattice_points(P, t) for t in (1, 2, 3)] == listed
    assert ehrhart_fit(count_dilates(P, 4)) == fit


def test_an_empty_polytope_whose_propagated_box_is_finite_counts_zero():
    # In [0, 2]^3 the pairwise sums >= 3 force x + y + z >= 9/2 > 4, but
    # interval propagation only narrows the box to [1, 2]^3.
    cube = [(tuple(int(i == k) * s for k in range(3)), 2 if s > 0 else 0)
            for i in range(3) for s in (1, -1)]
    pairs = [((-1, -1, 0), -3), ((0, -1, -1), -3), ((-1, 0, -1), -3)]
    P = HPolytope(3, cube + pairs + [((1, 1, 1), 4)])
    clear_caches()
    assert _scan_setup(P)[2:4] == ([(1, 2)] * 3, 1)
    for t_max in (1, 2, 3):
        counts = count_dilates(P, t_max)
        assert counts.counts == (0,) * (t_max + 1)
        assert ehrhart_fit(counts) == ZERO_FIT
    assert h_to_v(P).vertices == ()


def test_an_empty_polytope_whose_propagated_box_is_unbounded_counts_zero():
    # x - y <= -1 and y - x <= -1 bound no coordinate, so the box comes from
    # the vertices, and the double description finds none.
    P = HPolytope(2, (((1, -1), -1), ((-1, 1), -1)))
    clear_caches()
    assert _scan_setup(P) is None
    assert [count_lattice_points(P, t) for t in (1, 2)] == [0, 0]
    assert lattice_points(P) == []
    assert ehrhart_fit(count_dilates(P, 2)) == ZERO_FIT


def test_a_multiplicity_query_needs_the_weight_total_of_its_level():
    with pytest.raises(ValueError) as exc:
        MultiplicityQuery(1, 4, 1, (1, 1, 1, 0))
    assert str(exc.value) == "weight total must equal (m+1) * P"


def test_count_identity_m2_charts_count_with_no_double_description():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    argvs = [argv for argv in workloads.requests("count-identity", 1, 0, "")
             if argv[0] == "verify-identity" and argv[2] == "2"]
    assert len(argvs) == 4
    for argv in argvs:
        s = SideData.from_weights(2, tuple(int(w) for w in argv[4].split(",")))
        clear_caches()
        assert verify_ehrhart_identity(s, int(argv[6])).all_pass
        assert _incidence.cache_info().misses == 0


def test_multiplicity_hexagon_anchors():
    s = SideData.from_weights(1, (3, 3, 3, 3, 4))
    assert weight_multiplicity(MultiplicityQuery.from_side(s, 1)) == 11
    assert weight_multiplicity(MultiplicityQuery.from_side(s, 2)) == 33
    assert weight_multiplicity(MultiplicityQuery.from_side(s, 3)) == 67


def test_multiplicity_matches_pattern_oracle():
    rng = random.Random(19)
    for _ in range(12):
        m = rng.choice((1, 2))
        n = rng.randint(m + 2, 5 if m == 2 else 6)
        r = random_admissible_r(rng, n, hi=4, integral_P=True, m=m)
        s = SideData.from_weights(m, r)
        q = MultiplicityQuery.from_side(s, 1)
        assert weight_multiplicity(q) == pattern_multiplicity(m, n, s.P, r)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.data(), st.integers(0, 12))
def test_from_side_scales_by_numerators_and_denominators(m, data, t):
    weight = st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3, 4)))
    r = data.draw(st.lists(weight, min_size=m + 2, max_size=m + 5))
    s = SideData.from_weights(m, r)
    if (t * s.P).denominator != 1 or any((t * w).denominator != 1 for w in s.r):
        with pytest.raises(ValueError) as err:
            MultiplicityQuery.from_side(s, t)
        assert str(err.value) == "multiplicity defined for integral dilations only"
    else:
        q = MultiplicityQuery.from_side(s, t)
        assert (q.P, q.r) == (t * s.P, tuple(t * w for w in s.r))
        assert type(q.P) is int and all(type(x) is int for x in q.r)


@st.composite
def multiplicity_queries(draw, max_m=3, max_n_over_m=4, max_P=lambda m: 4 if m < 3 else 2):
    """(m, n, P, r) with r any composition of (m+1)*P into n parts, zeros allowed."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(m + 2, m + max_n_over_m))
    P = draw(st.integers(0, max_P(m)))
    cuts = sorted(draw(st.lists(st.integers(0, (m + 1) * P), min_size=n - 1, max_size=n - 1)))
    bounds = [0] + cuts + [(m + 1) * P]
    return m, n, P, tuple(b - a for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(multiplicity_queries())
@example((1, 3, 0, (0, 0, 0)))
@example((2, 5, 2, (0, 3, 0, 3, 0)))
@example((3, 6, 2, (0, 0, 2, 2, 2, 2)))
def test_multiplicity_dp_matches_the_per_permutation_expansion(query):
    m, n, P, r = query
    assert weight_multiplicity(MultiplicityQuery(m, n, P, r)) == \
        per_permutation_multiplicity(m, n, P, r)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(multiplicity_queries(max_m=4, max_n_over_m=6, max_P=lambda m: 40 if m == 1 else 8))
@example((1, 3, 0, (0, 0, 0)))
@example((4, 10, 8, (0, 0, 8, 8, 8, 8, 8, 0, 0, 0)))
@example((4, 6, 8, (8, 8, 8, 8, 8, 0)))
def test_range_sum_dp_matches_the_spread_dp(query):
    q = MultiplicityQuery(*query)
    assert weight_multiplicity(q) == spread_weight_multiplicity(q)


def test_range_sum_dp_at_a_large_m1_dilate():
    # mult --m 1 --r 1,2,...,13,9 --dilate 6: a column step costs O(1) per state.
    q = MultiplicityQuery.from_side(SideData.from_weights(1, (*range(1, 14), 9)), 6)
    assert weight_multiplicity(q) == 9144312037300852


@pytest.mark.parametrize("r, t, expected", [
    ((4,) * 7, 3, 32425),
    ((4,) * 7, 4, 145041),
    ((2,) * 5 + (3, 3), 4, 4325),
    ((12,) * 7, 1, 32425),
])
def test_multiplicity_m3_n7_values(r, t, expected):
    q = MultiplicityQuery.from_side(SideData.from_weights(3, r), t)
    start = time.process_time()
    assert weight_multiplicity(q) == expected
    assert time.process_time() - start < 1.0  # the per-permutation expansion took 18 s


def test_multiplicity_leaves_no_reference_cycle():
    q = MultiplicityQuery(2, 6, 4, (2,) * 6)  # mult --m 2 --r 2,2,2,2,2,2
    weight_multiplicity(q)
    gc.collect()
    gc.disable()
    try:
        assert weight_multiplicity(q) == 16
        assert gc.collect() == 0  # no memo or recursion state was left in a cycle
    finally:
        gc.enable()


def test_multiplicity_gates_on_integrality():
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))  # P = 15/2
    with pytest.raises(ValueError):
        MultiplicityQuery.from_side(s, 1)
    MultiplicityQuery.from_side(s, 2)  # 2P integral


def test_identity_hexagon_all_dilates():
    rep = verify_ehrhart_identity(SideData.from_weights(1, (3, 3, 3, 3, 4)), 3)
    assert [c.dilate for c in rep.checks] == [1, 2, 3]
    assert rep.all_pass
    assert rep.checks[0].lattice_count == 11


@pytest.mark.parametrize("m, r, t_max, least", [
    (1, "1/3,1/3,1/3,1/3", 2, 3),
    (1, "3,3,3,3,3", 1, 2),
    (2, "1,1,1,1,1", 2, 3),
])
def test_identity_with_no_integral_dilate_is_an_error(m, r, t_max, least):
    s = SideData.from_weights(m, [Fraction(w) for w in r.split(",")])
    with pytest.raises(ValueError) as exc:
        verify_ehrhart_identity(s, t_max)
    assert str(exc.value) == (
        f"no dilate t in 1..{t_max} makes t*P and every t*r_i integral; "
        f"the least such t is {least}")
    with pytest.raises(ValueError) as dual_exc:
        verify_duality(s, t_max)  # the same check, so no count goes uncompared
    assert str(dual_exc.value) == str(exc.value)
    assert [c.dilate for c in verify_ehrhart_identity(s, least).checks] == [least]


def test_identity_skips_non_integral_dilates():
    rep = verify_ehrhart_identity(SideData.from_weights(1, (3, 3, 3, 3, 3)), 4)
    assert [c.dilate for c in rep.checks] == [2, 4]
    assert rep.all_pass
    d = rep.to_json_dict()
    assert {"dilate", "lattice_count", "multiplicity", "pass"} <= set(d["checks"][0])


@pytest.mark.parametrize("m, r, t, expected", [
    (1, (1, 2, 1, 2, 1, 2, 1, 2), 30, 36_309_277),
    (2, (2, 2, 2, 3, 3, 3, 3), 6, 371_959),
])
def test_entry_chart_count_at_scale_equals_multiplicity(m, r, t, expected):
    s = SideData.from_weights(m, r)
    entry = gt_slice(s).entry_chart
    count_lattice_points(entry, 1)  # the cached vertices are built outside the trace
    count_lattice_points.cache_clear()  # so the traced call runs the scan
    tracemalloc.start()
    try:
        assert count_lattice_points(entry, t) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # listing the points would take far more
    assert weight_multiplicity(MultiplicityQuery.from_side(s, t)) == expected


def test_real_fiber_size_powers():
    assert real_fiber_size(1, 5) == 4
    assert real_fiber_size(1, 6) == 8
    assert real_fiber_size(1, 7) == 16
    assert real_fiber_size(2, 6) == 16


def test_duality_hexagon_passes():
    rep = verify_duality(SideData.from_weights(1, (3, 3, 3, 3, 4)), 3)
    assert rep.all_pass
    assert [i.name for i in rep.invariants] == [
        "dimension", "vertex_count", "facet_count", "dilate_counts", "fingerprint"]


def test_duality_compares_the_counts_of_fractional_P_at_the_multiples_of_L():
    # complementing side lengths preserves the polytope up to affine maps, but
    # only lattice-compatibly at the dilates that make P and the weights
    # integral; this case has P = 17/2, so L = 2, and the counts differ at t=1
    rep = verify_duality(SideData.from_weights(1, (2, 4, 4, 3, 4)), 2)
    differing = [i.name for i in rep.invariants if i.primal != i.dual]
    assert differing == ["dilate_counts"]
    assert rep.invariants[3] == DualityInvariant("dilate_counts", [9, 32], [8, 32], 2)
    assert rep.all_pass
    assert not DualityInvariant("dilate_counts", [9, 32], [9, 31], 2).passed
    assert DualityInvariant("dimension", 2, 2).passed
    assert not DualityInvariant("dimension", 2, 3).passed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(3, 4), st.randoms(use_true_random=False))
def test_dual_counts_agree_at_the_multiples_of_L(m, extra, rng):
    s = SideData.from_weights(m, random_admissible_r(rng, m + extra, hi=9, strict=True, m=m))
    d = dual_side_data(s)
    L = _admissible_step(s)
    assert _admissible_step(d) == L
    A, B = gt_slice(s).entry_chart, gt_slice(d).entry_chart
    for t in (L, 2 * L):
        assert count_lattice_points(A, t) == count_lattice_points(B, t)
