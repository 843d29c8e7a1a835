import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightpoly import builders
from weightpoly.builders import (ChartedSlice, GTSpec, SideData, admissible,
                                 dual_side_data, entry_to_diag_map, fm_polytope,
                                 gt_hrep, gt_slice, polygon_hrep)
from weightpoly.exact import is_int, vec
from weightpoly.polytopes import (AffineMap, HPolytope, _FrozenInstanceError, contains,
                                  empty_hrep, h_to_v, lattice_points, polytope_dim,
                                  remove_redundant)
from oracles import (fraction_route_entry_chart, gt_pattern_count, random_admissible_r,
                     reference_gt_rows, reference_slice)


def test_side_data_validation():
    with pytest.raises(ValueError):
        SideData.from_weights(0, (1, 1, 1))
    with pytest.raises(ValueError):
        SideData.from_weights(2, (1, 1, 1))  # need n > m+1
    with pytest.raises(ValueError):
        SideData.from_weights(1, (1, 0, 1, 1))
    s = SideData.from_weights(1, (3, 3, 3, 3, 3))
    assert s.n == 5 and s.P == Fraction(15, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: SideData.from_json_dict({"m": 1, "n": 4, "r": [3, 3, 3, 3, 3]}),
     "n does not match the number of weights"),
    (lambda: SideData(1, 4, (3, 3, 3, 3, 3)), "expected 4 weights, got 5"),
    (lambda: GTSpec(3, (2, 1)), "top row must have 3 entries"),
    (lambda: GTSpec(3, (2, 1, 0), (1,)), "need 2 row sums"),
    (lambda: GTSpec(3, (2, 1, 0), (1, 4)),
     "each row sum must lie between 0 and the top-row total"),
    (lambda: GTSpec(3, (2, 1, 0), (-1, 2)),
     "each row sum must lie between 0 and the top-row total"),
], ids=["side-json-n", "side-n", "gt-top-row", "gt-sum-count", "gt-sum-high", "gt-sum-low"])
def test_builder_input_errors_raise_their_pinned_texts(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_side_data_critical_level_is_derived_not_a_field():
    s = SideData.from_weights(1, (1, 2, 3))
    assert repr(s) == "SideData(m=1, n=3, r=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)))"
    assert s.P == 3
    with pytest.raises(_FrozenInstanceError):
        s.P = 1
    same = SideData(1, 3, (1, 2, 3))
    assert s == same and hash(s) == hash(same)


def test_side_data_json_round_trip():
    s = SideData.from_weights(2, (1, 2, 3, 4, 5, 9))
    assert SideData.from_json_dict(s.to_json_dict()) == s


def test_admissible_boundary():
    assert admissible(SideData.from_weights(1, (1, 1, 1, 1)))
    assert admissible(SideData.from_weights(1, (2, 2, 2, 2, 8)))  # r_i = P allowed
    assert not admissible(SideData.from_weights(1, (1, 1, 1, 9)))


def test_dual_side_data_values_and_errors():
    s = SideData.from_weights(1, (3, 3, 3, 3, 4))
    d = dual_side_data(s)
    assert d.m == 2 and d.r == vec([5, 5, 5, 5, 4])
    assert dual_side_data(d).r == s.r and dual_side_data(d).m == 1
    with pytest.raises(ValueError):
        dual_side_data(SideData.from_weights(1, (2, 2, 2, 2, 8)))  # r_i = P
    with pytest.raises(ValueError):
        dual_side_data(SideData.from_weights(2, (1, 1, 1, 1)))  # dual m would be 0


def test_polygon_hrep_requires_m1_and_four_sides():
    with pytest.raises(ValueError):
        polygon_hrep(SideData.from_weights(2, (1, 1, 1, 1)))
    with pytest.raises(ValueError):
        polygon_hrep(SideData.from_weights(1, (1, 1, 1)))


def test_polygon_hrep_triangle_inequality_semantics():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(4, 7)
        r = random_admissible_r(rng, n, hi=6)
        P = polygon_hrep(SideData.from_weights(1, r))
        assert len(P.ineqs) <= 3 * (n - 2)  # coincident rows dedupe
        for _ in range(10):
            x = vec([Fraction(rng.randint(0, 24), 2) for _ in range(n - 3)])
            d = (Fraction(r[0]),) + x + (Fraction(r[n - 1]),)
            sides = []
            ok = True
            for j in range(n - 2):
                a, b, c = d[j], Fraction(r[j + 1]), d[j + 1]
                ok = ok and a + b >= c and b + c >= a and a + c >= b
            assert contains(P, x) == ok


def test_gt_hrep_counts_match_pattern_enumeration():
    for lam in ((2, 0), (3, 1, 0), (2, 2, 0, 0)):
        H = gt_hrep(GTSpec(k=len(lam), lam=vec(lam)))
        assert len(lattice_points(H)) == gt_pattern_count(lam)


def test_gt_hrep_with_row_sums_slices():
    lam = (2, 1, 0)
    H = gt_hrep(GTSpec(k=3, lam=vec(lam), row_sums=vec((1, 2))))
    assert len(lattice_points(H)) == gt_pattern_count(lam, (1, 2, 3))


def test_gt_spec_validation():
    with pytest.raises(ValueError):
        GTSpec(k=2, lam=vec([1, 2]))  # not weakly decreasing
    with pytest.raises(ValueError):
        GTSpec(k=2, lam=vec([1, -1]))


def test_entry_chart_dimension_formula():
    for m, n, r in ((1, 5, (3, 3, 3, 3, 4)), (1, 6, (1, 1, 1, 1, 1, 1)),
                    (2, 6, (2, 2, 2, 2, 2, 2))):
        cs = gt_slice(SideData.from_weights(m, r))
        assert cs.entry_chart.dim == m * n - 2 * m - m * m
        assert len(cs.entry_coords) == cs.entry_chart.dim
        assert polytope_dim(cs.entry_chart) == cs.entry_chart.dim


def test_hexagon_entry_chart_lattice_anchor():
    cs = gt_slice(SideData.from_weights(1, (3, 3, 3, 3, 4)))
    assert len(lattice_points(cs.entry_chart)) == 11


def test_inadmissible_weights_give_empty_charts():
    cs = fm_polytope(SideData.from_weights(1, (1, 1, 1, 9)))
    assert polytope_dim(cs.entry_chart) == -1
    assert polytope_dim(cs.diag_chart) == -1


def test_entry_to_diag_maps_vertices_onto_polygon():
    for r in ((3, 3, 3, 3, 3), (3, 3, 3, 3, 4), (3, 4, 3, 4, 3)):
        s = SideData.from_weights(1, r)
        cs = gt_slice(s)
        f = entry_to_diag_map(s)
        mapped = sorted(f.apply(v) for v in h_to_v(cs.entry_chart).vertices)
        polygon = sorted(h_to_v(polygon_hrep(s)).vertices)
        assert mapped == polygon
        assert sorted(h_to_v(cs.diag_chart).vertices) == polygon


def test_degenerate_point_case_consistent_across_charts():
    s = SideData.from_weights(1, (2, 2, 2, 2, 8))
    cs = gt_slice(s)
    assert polytope_dim(cs.entry_chart) == 0
    diag = h_to_v(cs.diag_chart).vertices
    assert diag == h_to_v(remove_redundant(polygon_hrep(s))).vertices
    assert len(diag) == 1


def test_fm_polytope_matches_the_substitution_oracle():
    """The slice as the interlacing rows pulled back equals the slice built by
    substituting each entry's affine expression into every row."""
    seen = {"inadmissible": 0, "fractional P": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m + 2, 9))
        weight = st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3)))
        r = data.draw(st.lists(weight, min_size=n, max_size=n))
        s = SideData.from_weights(m, r)
        layout, ineqs, diag_matrix, diag_offset = reference_slice(m, r)
        dim = len(layout)
        chart = empty_hrep(dim) if ineqs is None else HPolytope(dim, tuple(ineqs), ())
        to_diag = AffineMap(dim, dim, diag_matrix, diag_offset)
        cs = fm_polytope(s)
        assert cs.entry_chart == chart
        assert cs.entry_to_diag == to_diag
        assert cs.entry_coords == layout
        oracle = ChartedSlice(chart, to_diag, layout)
        assert cs == oracle and cs.diag_chart == oracle.diag_chart
        seen["inadmissible"] += not admissible(s)
        seen["fractional P"] += s.P.denominator != 1

    check()
    assert seen["inadmissible"] and seen["fractional P"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_gt_hrep_matches_the_dense_oracle(data):
    k = data.draw(st.integers(1, 6))
    entries = st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2)))
    lam = sorted(data.draw(st.lists(entries, min_size=k, max_size=k)), reverse=True)
    sums = None
    if data.draw(st.booleans()):
        total = sum(lam)
        sums = data.draw(st.lists(st.builds(lambda p: total * Fraction(p, 4), st.integers(0, 4)),
                                  min_size=k - 1, max_size=k - 1))
    P = gt_hrep(GTSpec(k, tuple(lam), sums))
    expected = HPolytope(*reference_gt_rows(k, lam, sums))
    assert P == expected and repr(P) == repr(expected) and hash(P) == hash(expected)
    _assert_constructor_record(P)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("with_sums", [False, True])
def test_gt_hrep_is_the_constructors_record(k, with_sums):
    """gt_hrep, assembled from int rows, equals the constructor's record of
    the dense oracle's Fraction rows in value, repr and hash, for every
    k <= 5 with and without row sums (the draws above miss some)."""
    lam = tuple(Fraction(3 * (k - 1 - i), 2) for i in range(k))
    sums = tuple(Fraction(t * sum(lam), k) for t in range(1, k)) if with_sums else None
    P = gt_hrep(GTSpec(k, lam, sums))
    expected = HPolytope(*reference_gt_rows(k, lam, sums))
    assert P == expected and repr(P) == repr(expected) and hash(P) == hash(expected)
    _assert_constructor_record(P)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50),
                                   min_size=6, max_size=9))
def test_side_data_level_is_the_fraction_sum_over_m_plus_one(m, r):
    s = SideData.from_weights(m, r)
    assert s.P == sum(r, Fraction(0)) / (m + 1)
    assert type(s.P) is Fraction and s == SideData(m, len(r), r)


def test_from_weights_rejects_a_string_of_weights():
    with pytest.raises(TypeError, match="not a vector"):
        SideData.from_weights(1, "33333")


def _result(call):
    """call()'s value, or ("raised", type, text) for the error it raised."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return "raised", type(exc), str(exc)


_GOOD_WEIGHT = st.one_of(st.integers(1, 9), st.fractions(Fraction(1, 4), 9))
_WEIGHT = st.one_of(_GOOD_WEIGHT, st.integers(-2, 0), st.booleans(), st.just(2.5),
                    st.builds(lambda w: str(w), _GOOD_WEIGHT))
_WEIGHTS = st.one_of(st.lists(_GOOD_WEIGHT, min_size=3, max_size=7),
                     st.lists(_WEIGHT, min_size=3, max_size=7),
                     st.text("1234/,", min_size=3, max_size=7),
                     st.dictionaries(st.sampled_from("12345"), _GOOD_WEIGHT, min_size=3))
_M = st.one_of(st.integers(1, 4), st.sampled_from((0, -1, True, False, "1", 1.0)))


def test_the_three_ways_into_side_data_agree():
    """SideData(m, n, r), from_weights and from_json_dict build equal records
    wherever the side is valid, and raise the same exception type and text
    wherever they check the same thing.  The constructor checks m and n
    before the weights; the two readers parse the weights first, and
    from_json_dict checks a given "n" against them before anything else."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_M, _WEIGHTS, st.one_of(st.none(), st.integers(-1, 1), st.sampled_from((True, "5"))))
    def check(m, weights, n_shift):
        n = len(weights) if n_shift is None else (
            len(weights) + n_shift if is_int(n_shift) else n_shift)
        data = {"m": m, "r": weights} if n_shift is None else {"m": m, "n": n, "r": weights}
        made = _result(lambda: SideData(m, n, weights))
        by_weights = _result(lambda: SideData.from_weights(m, weights))
        by_json = _result(lambda: SideData.from_json_dict(data))
        parsed = _result(lambda: vec(weights))
        checked = _result(lambda: builders._check_m_n(m, n))
        if parsed[:1] == ("raised",):
            seen["unparsed"] += 1
            assert by_weights == by_json == parsed
            assert made == (checked or parsed)
        elif n != len(parsed):
            seen["n mismatch"] += 1
            assert by_json == ("raised", ValueError, "n does not match the number of weights")
            assert made == (checked or ("raised", ValueError,
                                        f"expected {n} weights, got {len(parsed)}"))
        else:
            assert made == by_weights == by_json
            seen["side" if isinstance(made, SideData) else made[2]] += 1
            if isinstance(made, SideData):
                assert repr(made) == repr(by_weights) == repr(by_json)
                assert made.r == parsed and all(type(w) is Fraction for w in (*made.r, made.P))

    check()
    assert all(seen[key] for key in (
        "unparsed", "n mismatch", "side", "all weights must be positive",
        "m must be a positive integer", "need n > m+1")), seen


def _assert_constructor_record(P):
    """P is the record HPolytope makes of its own rows: equal, with equal
    repr and hash, and every entry a Fraction."""
    rebuilt = HPolytope(P.dim, P.ineqs, P.eqs)
    assert rebuilt == P and repr(rebuilt) == repr(P) and hash(rebuilt) == hash(P)
    assert all(type(c) is Fraction for rows in (P.ineqs, P.eqs) for a, b in rows for c in (*a, b))


def test_chart_records_equal_their_constructors(monkeypatch):
    """The entry chart, polygon_hrep and remove_redundant of both, assembled
    from integer rows, are the constructor's records of the same rows; the
    entry chart's rows are the Fraction route's, in order, and its map is
    the AffineMap constructor's."""
    handed = []
    assemble = builders._hpolytope

    def recording(dim, ineqs, eqs=()):
        ineqs = list(ineqs)
        handed.append(len(ineqs))
        return assemble(dim, ineqs, eqs)

    monkeypatch.setattr(builders, "_hpolytope", recording)
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m + 2, 8))
        kind = data.draw(st.sampled_from(("integral", "half-integral", "equal")))
        if kind == "equal":
            r = [data.draw(st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2))))] * n
        else:
            weight = st.builds(Fraction, st.integers(1, 9), st.just(1 if kind == "integral" else 2))
            r = data.draw(st.lists(weight, min_size=n, max_size=n))
        s = SideData.from_weights(m, r)
        fm_polytope.cache_clear()
        polygon_hrep.cache_clear()
        handed.clear()
        cs = fm_polytope(s)
        oracle = fraction_route_entry_chart(s)
        assert cs.entry_chart == oracle and repr(cs.entry_chart) == repr(oracle)
        f = cs.entry_to_diag
        rebuilt = AffineMap(f.domain_dim, f.codomain_dim, f.matrix, f.offset)
        assert rebuilt == f and repr(rebuilt) == repr(f)
        assert all(type(c) is Fraction for row in (*f.matrix, f.offset) for c in row)
        charts = [cs.entry_chart] + ([polygon_hrep(s)] if m == 1 and n >= 4 else [])
        for P in charts:
            _assert_constructor_record(P)
            _assert_constructor_record(remove_redundant(P))
        seen[kind] += 1
        seen["rational L"] += any(w.denominator != 1 for w in (s.P, *s.r))
        seen["deduped"] += bool(handed) and handed[0] > len(cs.entry_chart.ineqs)
        seen["empty"] += not h_to_v(cs.entry_chart).vertices

    check()
    assert all(seen[key] for key in ("integral", "half-integral", "equal", "rational L",
                                     "deduped", "empty")), seen


def test_integral_charts_run_no_constructor_check(monkeypatch):
    checked = []
    post_init = HPolytope.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(HPolytope, "__post_init__", counted)
    for m, r in ((1, (1, 2, 2, 3, 3, 4, 5)), (1, (3, 3, 3, 3, 3)), (2, (2, 2, 2, 3, 3, 3, 3)),
                 (3, (4,) * 9)):
        fm_polytope.cache_clear()
        polygon_hrep.cache_clear()
        s = SideData.from_weights(m, r)
        fm_polytope(s)
        if m == 1:
            polygon_hrep(s)
    assert checked == []
    HPolytope(1, (((1,), 1),))  # the wrapper is live
    assert len(checked) == 1
