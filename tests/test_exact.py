from fractions import Fraction
import sys
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from weightpoly.exact import (_interval_box, dot, frac, frac_str,
                              hnf_rows, integer_kernel_basis,
                              integer_solutions,
                              lattice_index, mat_inverse, nullspace,
                              primitive_vector, rank, solve_integer,
                              solve_linear, transpose, vec)
from oracles import _rank


def test_frac_parses_strings_and_numbers():
    assert frac("5/2") == Fraction(5, 2)
    assert frac(3) == Fraction(3)
    assert frac_str(Fraction(5, 2)) == "5/2"
    assert frac_str(Fraction(4, 2)) == "2"
    assert vec([1, "1/2"]) == (Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize("values", ["12", {"1": 5}, {"3": 0, "4": 0}, {}],
                         ids=["str", "object", "object-2", "empty-object"])
def test_vec_rejects_a_string_or_a_json_object(values):
    # Iterating either gives a vector of its characters or keys; neither is one.
    with pytest.raises(TypeError, match="^not a vector: "):
        vec(values)


@pytest.mark.parametrize("call, message", [
    (lambda: dot((1,), (1, 2)), "dimension mismatch: 1 vs 2"),
    (lambda: solve_linear([(1,)], (1, 2)), "right-hand side length does not match row count"),
    (lambda: solve_linear([(1,), (1, 2)], (1, 2)), "ragged matrix"),
    (lambda: mat_inverse([(1, 2)]), "matrix is not square"),
    (lambda: solve_integer([(1,)], (1, 2)), "right-hand side length does not match row count"),
    (lambda: lattice_index([(1, 0)], 3), "rays are not full rank"),
    (lambda: lattice_index([(1, 0), (0, 1)], 3), "rays are not full rank"),
    (lambda: rank([(1,), (3, 4)]), "ragged matrix"),
    (lambda: nullspace([(1, 2, 3)], 2), "row length does not match ncols"),
    (lambda: integer_solutions([(1, 0), (0, 1)], [1], 2),
     "right-hand side length does not match row count"),
], ids=["dot", "solve_linear-rhs", "solve_linear-ragged", "mat_inverse", "solve_integer-rhs",
        "lattice_index-width", "lattice_index-unit-basis-too-narrow", "rank-ragged",
        "nullspace-wide-row", "integer_solutions-rhs"])
def test_malformed_linear_algebra_input_raises_its_pinned_text(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


LONG = "7" * (sys.get_int_max_str_digits() + 1)  # past the int-to-str digit limit


@pytest.mark.parametrize("text", [
    "0", "7", "007", "000", "1234567890123456789012345678901234567890", "0" * 50 + "12",
    "9" * sys.get_int_max_str_digits(), LONG, "0" + LONG,
    "\u0663", "\uff13", "\u00b2", "1\u0663", "+3", "-3", " 3", "3 ", "3_0", "1e3", "3/2",
    "3/0", "", " ", "0x3"])
def test_frac_of_a_string_is_fractions_value_or_its_exception_type(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            frac(text)
    else:
        got = frac(text)
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("value, text", [
    (0, "0"), (7, "7"), (-12, "-12"), (10 ** 30, "1" + "0" * 30), (True, "1"),
    (False, "0"), (Fraction(-3, 6), "-1/2"), (Fraction(-8, 4), "-2")])
def test_frac_str_writes_ints_negatives_and_bools_as_their_fractions(value, text):
    assert frac_str(value) == text == str(Fraction(value))


def _box_rows(pairs):
    """(terms, b) rows of _interval_box from dense (a, b) pairs."""
    return [(tuple((k, c) for k, c in enumerate(a) if c), b) for a, b in pairs]


def test_interval_box_keeps_int_bounds_and_scales_fraction_ones():
    # 0 <= x, 0 <= y, x + y <= 3, 2y - x <= 0, 2x <= 5: x in [0, 5/2], y in [0, 5/4].
    rows = _box_rows([((-1, 0), 0), ((0, -1), 0), ((1, 1), 3), ((-1, 2), 0), ((2, 0), 5)])
    assert _interval_box(rows, 2) == ([(0, 10), (0, 5)], 4)
    assert _interval_box(_box_rows([((1,), 2), ((-1,), 1)]), 1) == ([(-1, 2)], 1)
    assert _interval_box([], 0) == ([], 1)


def test_interval_box_reports_empty_and_unbounded_input():
    assert _interval_box([((), -1)], 2) == "empty"  # 0 <= -1
    assert _interval_box(_box_rows([((1,), 0), ((-1,), -1)]), 1) == "empty"
    assert _interval_box(_box_rows([((1, 0), 1), ((-1, 0), 0)]), 2) == "unbounded"
    # A diamond bounds both coordinates, but every row has two unknown bounds.
    diamond = [((a, b), 1) for a in (1, -1) for b in (1, -1)]
    assert _interval_box(_box_rows(diamond), 2) == "unbounded"


def test_solve_linear_unique():
    status, x = solve_linear([vec([2, 0]), vec([0, 3])], vec([4, 9]))
    assert status == "unique"
    assert x == (Fraction(2), Fraction(3))


def test_solve_linear_inconsistent():
    status, x = solve_linear([vec([1, 1]), vec([2, 2])], vec([1, 3]))
    assert status == "no solution"
    assert x is None


def test_solve_linear_underdetermined():
    status, x = solve_linear([vec([1, 1])], vec([1]))
    assert status == "underdetermined"
    assert x is None


def test_rank_counts_independent_rows():
    assert rank([vec([1, 2]), vec([2, 4])]) == 1
    assert rank([vec([1, 0]), vec([0, 1])]) == 2
    assert rank([]) == 0


def test_nullspace_vectors_annihilate_rows():
    rows = [vec([1, 1, 0]), vec([0, 1, 1])]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_mat_inverse_round_trip():
    M = [vec([2, 1]), vec([1, 1])]
    inv = mat_inverse(M)
    prod = [[sum(M[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_mat_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mat_inverse([vec([1, 2]), vec([2, 4])])


def test_primitive_vector_scales_to_coprime_integers():
    assert primitive_vector(vec([2, 4])) == (1, 2)
    assert primitive_vector(vec(["1/2", "1/3"])) == (3, 2)
    assert primitive_vector(vec([-2, -4])) == (-1, -2)
    for ints in [(2, 4), (-6, 9, 0), (0, -5), (7,), (12, -18, 30)]:
        assert primitive_vector(ints) == primitive_vector(vec(ints))
        assert all(type(c) is int for c in primitive_vector(ints))
    assert primitive_vector((Fraction(1, 2), 3)) == (1, 6)
    for zero in [vec([0, 0]), (0, 0), ()]:
        with pytest.raises(ValueError):
            primitive_vector(zero)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-40, 40), st.just(0), st.booleans()), max_size=8))
def test_primitive_vector_on_ints_matches_the_fraction_route(v):
    v = tuple(v)
    if not any(v):
        with pytest.raises(ValueError):
            primitive_vector(v)
        return
    prim = primitive_vector(v)
    assert prim == primitive_vector(tuple(map(Fraction, v)))
    assert all(type(c) is int for c in prim)


def test_hnf_rows_triangular_form():
    H = hnf_rows([(2, 4), (1, 1)])
    assert len(H) == 2
    assert H[0][0] > 0 and H[1][0] == 0
    # ints, Fractions and strings are read alike; non-integers still raise
    assert hnf_rows([(Fraction(2), Fraction(4)), ("1", "2/2")]) == H
    with pytest.raises(ValueError, match="lattice data must be integral"):
        hnf_rows([(1, Fraction(1, 2))])
    with pytest.raises(ValueError, match="lattice data must be integral"):
        hnf_rows([(1, "1/2")])
    with pytest.raises(TypeError):
        hnf_rows([(1, True)])


def test_integer_kernel_basis_spans_kernel():
    rows = [(1, 2, 3)]
    basis = integer_kernel_basis(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(isinstance(c, int) for c in v)
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_solve_integer_paths():
    assert solve_integer([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    assert solve_integer([(2,)], (1,)) is None
    assert solve_integer([(2,)], ("1/2",)) is None  # a fractional rhs has no integer solution
    assert solve_integer([(1, 1)], (5,)) is not None
    assert solve_integer([], []) == ()


def test_transpose_of_rows_and_of_no_rows():
    assert transpose([]) == transpose(()) == ()
    assert transpose([(1, 2), (3, 4)]) == ((1, 3), (2, 4))


@st.composite
def integer_systems(draw):
    width = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    rows = [tuple(draw(st.integers(-3, 3)) for _ in range(width)) for _ in range(m)]
    return rows, [draw(st.integers(-6, 6)) for _ in range(m)], width


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_systems())
def test_integer_solutions_read_the_dilates_and_the_kernel_off_one_hermite_form(system):
    rows, rhs, width = system

    def image(x):
        return [sum(a * c for a, c in zip(row, x)) for row in rows]

    t0, x0, kernel = integer_solutions(rows, rhs, width)
    r = _rank(rows)
    assert (t0 == 0) == (_rank([row + (b,) for row, b in zip(rows, rhs)]) > r)
    assert len(kernel) == width - r
    assert all(not any(image(k)) for k in kernel)
    assert not kernel or _rank(kernel) == len(kernel)
    solved = solve_integer(rows, rhs)
    assert (solved is not None) == (t0 == 1)
    assert solved is None or image(solved) == rhs
    radius = 3
    found = set()  # dilates t in 1..6 with an integer solution in the box
    for x in product(range(-radius, radius + 1), repeat=width):
        ax = image(x)
        found.update(t for t in range(1, 7) if ax == [t * b for b in rhs])
    if t0 == 0:
        assert x0 is None and not found
        return
    assert t0 > 0 and gcd(t0, *x0) == 1 and image(x0) == [t0 * b for b in rhs]
    assert all(t % t0 == 0 for t in found)
    if t0 <= 6 and max(map(abs, x0)) <= radius:
        assert t0 in found


def test_lattice_index_anchors():
    assert lattice_index(((1, 0), (0, 1)), 2) == 1
    assert lattice_index(((1, 0), (1, 2)), 2) == 2
    assert lattice_index(((1, 1, 0), (0, 1, 1), (1, 0, 1)), 3) == 2
    # |det| of square matrices, with Fraction entries read like ints
    assert lattice_index([vec([1, 2]), vec([3, 4])], 2) == 2
    assert lattice_index([vec([0, 1]), vec([1, 0])], 2) == 1
    assert lattice_index([vec([2, 0, 0]), vec([0, 3, 0]), vec([0, 0, 4])], 3) == 24
    with pytest.raises(ValueError, match="not full rank"):
        lattice_index(((1, 2), (2, 4)), 2)


def _fraction_det(rows):
    """Determinant by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def integer_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: integer_matrices(n, n)))
def test_lattice_index_is_the_absolute_determinant(rows):
    det = _fraction_det(rows)
    if det == 0:
        with pytest.raises(ValueError, match="not full rank"):
            lattice_index(rows, len(rows))
    else:
        assert lattice_index(rows, len(rows)) == abs(det)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 4), st.integers(0, 3)).flatmap(
    lambda d: integer_matrices(d[0] + d[1], d[0])))
def test_lattice_index_is_the_product_of_the_hermite_pivots(rows):
    dim = len(rows[0])
    if _rank(rows) < dim:
        with pytest.raises(ValueError, match="not full rank"):
            lattice_index(rows, dim)
        return
    assert lattice_index(rows, dim) == prod(next(c for c in row if c) for row in hnf_rows(rows))


@st.composite
def wide_cones(draw):
    """dim 1-7 and up to 4 * dim rays, entries mostly in -2..2, a few larger."""
    dim = draw(st.integers(1, 7))
    entry = st.integers(-2, 2) | st.integers(-40, 40)
    return draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=1, max_size=4 * dim))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_cones())
def test_lattice_index_of_wide_cones_is_the_product_of_the_hermite_pivots(rows):
    dim = len(rows[0])
    if _rank(rows) < dim:
        with pytest.raises(ValueError, match="not full rank"):
            lattice_index(rows, dim)
        return
    assert lattice_index(rows, dim) == prod(next(c for c in row if c) for row in hnf_rows(rows))


def test_lattice_index_parses_every_ray_before_it_stops_early():
    unimodular = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError, match="integral"):
        lattice_index(unimodular + [(Fraction(1, 2), 0, 0)], 3)
    with pytest.raises(ValueError, match="not full rank"):
        lattice_index([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -3, 0)], 3)
    # Index 1 after the third ray: the later rays cannot change it.
    assert lattice_index(unimodular + [(2, 5, -7), (4, 0, 0)], 3) == 1
    assert lattice_index([(2, 0), (0, 1), (3, 0)], 2) == 1


@pytest.mark.parametrize("rays, index", [
    ([(Fraction(2), 1), (0, Fraction(3, 3))], 2),
    ([("2", "1"), (0, "3")], 6),
    ([(1, 0), ("0", Fraction(4, 2)), (0, "3")], 1),
    ([[Fraction(-6, 3), 0], ["0", "5"]], 10),
], ids=["integral-fractions", "digit-strings", "mixed", "lists"])
def test_lattice_index_reads_integral_fractions_and_digit_strings(rays, index):
    assert lattice_index(rays, 2) == index


@pytest.mark.parametrize("bad, error, message", [
    (True, TypeError, "not a rational: True"),
    (False, TypeError, "not a rational: False"),
    (1.0, TypeError, "not an exact rational: 1.0 (floats are not accepted)"),
    (Fraction(1, 2), ValueError, "lattice data must be integral"),
    ("3/2", ValueError, "lattice data must be integral"),
], ids=["true", "false", "float", "fraction", "string"])
def test_lattice_index_refuses_a_bad_entry_after_all_int_rays(bad, error, message):
    # The bad entry sits after rays that alone make the index 1.
    for rays in ([(1, 0), (0, 1), (0, bad)], [(bad, 0), (1, 0), (0, 1)]):
        with pytest.raises(error) as exc:
            lattice_index(rays, 2)
        assert str(exc.value) == message


@pytest.mark.parametrize("rays, dim", [
    ([], 1), ([()], 1), ([(1,), (2,)], 2), ([(1, 0), (2, 0)], 2), ([(0, 0, 0)], 3),
    (((1, 0, 0), (0, 1, 0)), 3), ([(1, 0), (0, 1)], 3)],
    ids=["no-rays", "empty-ray", "short", "rank-1", "zero", "two-of-three", "too-narrow"])
def test_lattice_index_of_short_or_rank_deficient_int_rays_raises_its_pinned_text(rays, dim):
    with pytest.raises(ValueError) as exc:
        lattice_index(rays, dim)
    assert str(exc.value) == "rays are not full rank"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_cones())
def test_lattice_index_of_int_rays_is_the_int_rows_route_and_leaves_them_as_they_are(rows):
    dim = len(rows[0])
    given_rows = [list(row) for row in rows]
    # One Fraction entry sends every ray through _int_rows, to the same ints.
    parsed = [[Fraction(rows[0][0]), *rows[0][1:]], *rows[1:]]
    try:
        expected = lattice_index(parsed, dim)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            lattice_index(rows, dim)
        assert str(got.value) == str(exc)
    else:
        assert lattice_index(rows, dim) == expected
        assert lattice_index(tuple(map(tuple, rows)), dim) == expected
    assert rows == given_rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 4), st.integers(0, 3)).flatmap(
    lambda d: integer_matrices(d[0] + d[1], d[0])))
def test_lattice_index_reads_int_rows_as_their_integral_fractions(rows):
    dim = len(rows[0])
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    if _rank(rows) < dim:
        for data in (rows, as_fractions):
            with pytest.raises(ValueError, match="not full rank"):
                lattice_index(data, dim)
        return
    assert lattice_index(rows, dim) == lattice_index(as_fractions, dim)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda d: integer_matrices(*d)))
def test_hnf_rows_pivots_are_positive_and_reduce_the_entries_above(rows):
    h = hnf_rows(rows)
    assert len(h) == _rank(rows) and all(any(row) for row in h)
    cols = []
    for k, row in enumerate(h):
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0 and (not cols or c > cols[-1])
        assert all(0 <= h[i][c] < row[c] for i in range(k))
        cols.append(c)


# Outputs of the Hermite-form kernels, pinned from an earlier implementation
# that reduced the entries above each pivot inside the echelon pass; with no
# rows, the kernel is all of Z^width and its basis the identity.
@pytest.mark.parametrize("rows, width, basis", [
    ([(1, 2, 3)], 3, [(-2, 1, 0), (-3, 0, 1)]),
    ([(2, 4, 6), (1, 1, 1)], 3, [(1, -2, 1)]),
    ([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)], 4, [(1, 1, 1, 1)]),
    ([(3, 5, 7, 11)], 4, [(3, 1, -2, 0), (7, 0, -3, 0), (1, 0, -2, 1)]),
    ([(2, 0, 4), (0, 6, 3)], 3, [(4, 1, -2)]),
    ([(1, 1, 1, 1, 1), (1, 2, 3, 4, 5)], 5,
     [(1, -2, 1, 0, 0), (2, -3, 0, 1, 0), (3, -4, 0, 0, 1)]),
    ([], 0, []),
    ([], 1, [(1,)]),
    ([], 2, [(1, 0), (0, 1)]),
    ([], 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
])
def test_integer_kernel_basis_is_pinned(rows, width, basis):
    assert integer_kernel_basis(rows, width) == basis


@pytest.mark.parametrize("rows, rhs, width, solutions", [
    ([(1, 2, 3)], (6,), 3, (1, (0, 0, 2), [(1, 1, -1), (0, 3, -2)])),
    ([(2, 4, 6), (1, 1, 1)], (3, 1), 3, (2, (0, 3, -1), [(1, -2, 1)])),
    ([(2, 0), (0, 3)], (1, 1), 2, (6, (3, 2), [])),
    ([(1, 1, 1, 1), (1, -1, 0, 0)], (4, 0), 4,
     (1, (0, 0, 0, 4), [(1, 1, 0, -2), (0, 0, 1, -1)])),
    ([(2, 2)], (1,), 2, (2, (0, 1), [(1, -1)])),
    ([(1, 1), (1, 1)], (1, 2), 2, (0, None, [(1, -1)])),
    ([], (), 0, (1, (), [])),
    ([], (), 1, (1, (0,), [(1,)])),
    ([], (), 2, (1, (0, 0), [(1, 0), (0, 1)])),
    ([], (), 3, (1, (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
])
def test_integer_solutions_are_pinned(rows, rhs, width, solutions):
    assert integer_solutions(rows, rhs, width) == solutions


def test_hnf_rows_is_pinned():
    assert hnf_rows([(4, 6, 2), (2, 9, 7), (6, 3, 5)]) == [[2, 9, 7], [0, 12, 4], [0, 0, 8]]


ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def rational_matrices(draw):
    """Small rational rows, some of them combinations of the others."""
    ncols = draw(st.integers(1, 4))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    weights = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combos = [[sum((c * b[j] for c, b in zip(ws, base)), Fraction(0)) for j in range(ncols)]
              for ws in draw(st.lists(weights, max_size=3))]
    rows = base + combos
    return [tuple(rows[i]) for i in draw(st.permutations(range(len(rows))))]


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rank_and_nullspace_match_naive_elimination(rows):
    ncols = len(rows[0])
    r = _rank(rows)
    assert rank(rows) == r
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - r
    assert not basis or _rank(basis) == len(basis)
    for v in basis:
        assert _apply(rows, v) == [0] * len(rows)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_linear_status_follows_the_ranks(rows, data):
    rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    r = _rank(rows)
    status, x = solve_linear(rows, rhs)
    if _rank([row + (b,) for row, b in zip(rows, rhs)]) > r:
        assert (status, x) == ("no solution", None)
    elif r < len(rows[0]):
        assert (status, x) == ("underdetermined", None)
    else:
        assert status == "unique"
        assert _apply(rows, x) == list(rhs)


@st.composite
def square_matrices(draw):
    rows = draw(rational_matrices())
    n = min(len(rows), len(rows[0]))
    return [row[:n] for row in rows[:n]]


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_mat_inverse_inverts_or_reports_singular(M):
    n = len(M)
    if _rank(M) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            mat_inverse(M)
        return
    inv = mat_inverse(M)
    prod = [[sum((inv[i][k] * M[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
