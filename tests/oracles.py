"""Independent cross-checks used by the tests.

Everything here is deliberately naive: enumerate subsets, scan boxes, recurse
over rows.  Except v_to_h_route_remove_redundant, which replays an older rule
through the package's dual double description pass,
constructor_route_hpolytope, which replays the HPolytope constructor's own
former row loop over the package's parsers, and chart_route_v_to_h and
chart_route_remove_redundant, which replay the former orthogonal chart of
the affine hull through the package's double description and incidence,
reference_dd_extreme_rays, the former double description kernel on the
package's own edge test and row helpers, and doubled_row_incidence, the
former incidence record on that kernel,
none of it shares code with the package's arithmetic (section_rule_h_to_v
only builds its result and error types); agreement between the two is the
evidence the fast paths are right.  dataclass_twin rebuilds a record class
with the standard library's dataclasses, the semantics the package's own
record decorator keeps.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations, permutations, product
import math
from typing import Sequence


def _solve_square(A, b):
    """Gaussian elimination on a square system; None if singular."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return tuple(M[i][n] for i in range(n))


def _satisfies(H, x):
    for a, b in H.eqs:
        if sum(ai * xi for ai, xi in zip(a, x)) != b:
            return False
    for a, b in H.ineqs:
        if sum(ai * xi for ai, xi in zip(a, x)) > b:
            return False
    return True


def brute_force_vertices(H):
    """All basic feasible points: solve every d-subset of constraint rows."""
    rows = list(H.eqs) + list(H.ineqs)
    d = H.dim
    found = set()
    for picks in combinations(rows, d):
        A = [list(a) for a, _ in picks]
        b = [bb for _, bb in picks]
        x = _solve_square(A, b)
        if x is not None and _satisfies(H, x):
            found.add(x)
    return tuple(sorted(found))


def tightness_incidence(H):
    """(vertices, rows of H.ineqs tight at each vertex, vertices tight on each
    row): the subset-enumeration vertices, and bitmasks over H.ineqs and over
    those vertices found by exact dot products."""
    verts = brute_force_vertices(H)
    vert_masks = [0] * len(verts)
    row_masks = [0] * len(H.ineqs)
    for k, v in enumerate(verts):
        for i, (a, b) in enumerate(H.ineqs):
            if sum(ai * vi for ai, vi in zip(a, v)) == b:
                vert_masks[k] |= 1 << i
                row_masks[i] |= 1 << k
    return verts, vert_masks, row_masks


def v_to_h_route_remove_redundant(P):
    """remove_redundant by a second, dual double description pass: the facets
    of v_to_h(h_to_v(P)) in canonical coprime form, each matched by the first
    input row that is a positive multiple of it, the unmatched ones appended
    in canonical order, with v_to_h's affine-hull equalities."""
    from weightpoly.polytopes import _joint_primitive, empty_hrep, h_to_v, v_to_h

    V = h_to_v(P)
    if not V.vertices:
        return empty_hrep(P.dim)
    canon = v_to_h(V)
    facet_keys = {_joint_primitive(a, b) for a, b in canon.ineqs}
    retained, covered = [], set()
    for a, b in P.ineqs:
        key = _joint_primitive(a, b)
        if key in facet_keys and key not in covered:
            covered.add(key)
            retained.append((a, b))
    for a, b in canon.ineqs:
        key = _joint_primitive(a, b)
        if key not in covered:
            covered.add(key)
            retained.append((a, b))
    return type(P)(P.dim, tuple(retained), canon.eqs)


def constructor_route_hpolytope(dim, ineqs=(), eqs=()):
    """HPolytope(dim, ineqs, eqs) by the constructor's former loop, which
    parsed, checked and deduplicated each row itself: the first row per
    normal kept in place with the tighter rhs, a repeated equality dropped,
    a zero normal allowed only with rhs < 0, and the hash taken once.  The
    record is made without the constructor, so its fields are this loop's."""
    from weightpoly.exact import frac, vec
    from weightpoly.polytopes import HPolytope, _check_dim

    _check_dim(dim)
    seen = {}
    kept = []
    for raw_normal, raw_rhs in ineqs:
        normal, rhs = vec(raw_normal), frac(raw_rhs)
        if len(normal) != dim:
            raise ValueError("inequality normal has wrong length")
        if all(c == 0 for c in normal) and rhs >= 0:
            raise ValueError("inequality with zero normal (and no infeasibility)")
        if normal in seen:
            at = seen[normal]
            if rhs < kept[at][1]:
                kept[at] = (normal, rhs)
        else:
            seen[normal] = len(kept)
            kept.append((normal, rhs))
    kept_eqs = []
    for raw_normal, raw_rhs in eqs:
        normal, rhs = vec(raw_normal), frac(raw_rhs)
        if len(normal) != dim:
            raise ValueError("equality normal has wrong length")
        if all(c == 0 for c in normal):
            raise ValueError("equality with zero normal")
        if (normal, rhs) not in kept_eqs:
            kept_eqs.append((normal, rhs))
    record = object.__new__(HPolytope)
    fields = {"dim": dim, "ineqs": tuple(kept), "eqs": tuple(kept_eqs)}
    fields["_hash"] = hash((dim, fields["ineqs"], fields["eqs"]))
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _fraction_slice_rows(s):
    """Per row t of the slice, (t, lo, hi, S_t) in Fractions."""
    m, n, P = s.m, s.n, s.P
    sums = []
    acc = Fraction(0)
    for w in s.r[:-1]:
        acc += w
        sums.append(acc)
    rows = []
    for t in range(1, n):
        lo = max(1, m + 2 - n + t)
        hi = min(t, m + 1)
        forced_p = max(0, m + 1 - n + t)
        S_t = sums[t - 1] - P * forced_p
        rows.append((t, lo, hi, S_t))
    return rows


def fraction_route_entry_chart(s):
    """fm_polytope(s).entry_chart by the older route: the interlacing rows
    pulled back in Fractions and handed to the HPolytope constructor."""
    from weightpoly.builders import _interlacing_rows
    from weightpoly.polytopes import HPolytope, _pull_back, empty_hrep

    rows = _fraction_slice_rows(s)
    layout = tuple((t, i) for t, lo, hi, _ in rows for i in range(hi, lo, -1))
    dim = len(layout)
    index = {pos: j for j, pos in enumerate(layout)}
    matrix: list[tuple[int, ...]] = []  # per entry, in _entry_index order
    offset: list[Fraction] = []
    for t, lo, hi, S_t in rows:
        for i in range(t, 0, -1):
            coeffs = [0] * dim
            const = Fraction(0)
            if lo < i <= hi:
                coeffs[index[(t, i)]] = 1
            elif i == lo:
                for free in range(lo + 1, hi + 1):
                    coeffs[index[(t, free)]] = -1
                const = S_t
            elif i < lo:
                const = s.P
            matrix.append(tuple(coeffs))
            offset.append(const)
    lam = (s.P,) * (s.m + 1) + (Fraction(0),) * (s.n - s.m - 1)
    ineqs = _pull_back(((a.items(), b) for a, b in _interlacing_rows(s.n, lam)),
                       matrix, offset)
    return empty_hrep(dim) if ineqs is None else HPolytope(dim, tuple(ineqs), ())


def _rank(rows):
    """Rank of a list of rational rows by Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col] / M[r][col]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
        r += 1
    return r


def _nullspace(rows, n):
    """Basis of {x : row . x = 0 for every row} in Q^n, one vector per free
    column of the reduced row echelon form, by naive Gauss-Jordan."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [v / M[r][col] for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, pc in zip(M, pivots):
            x[pc] = -row[free]
        basis.append(tuple(x))
    return basis


def all_vertex_affine_hull_equalities(verts, dim):
    """Canonical equalities of the affine hull of nonempty verts in Q^dim,
    from the nullspace of the rows (v, 1) of every vertex: each basis vector,
    scaled to coprime integers with a positive leading coefficient, is the
    equality (normal, rhs); sorted."""
    eqs = []
    for z in _nullspace([tuple(v) + (1,) for v in verts], dim + 1):
        scale = math.lcm(*(c.denominator for c in z))
        ints = [int(c * scale) for c in z]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        eqs.append((tuple(Fraction(c) for c in ints[:-1]), Fraction(-ints[-1])))
    return tuple(sorted(eqs))


def _hull_chart(verts):
    """(U, W) of the former chart of the affine hull of nonempty verts: U the
    differences v - verts[0] picked greedily while their rank grows, and
    W = (U^T U)^{-1} U^T, column by column from square solves, so that
    y = W (x - verts[0]) charts the hull and U W projects orthogonally onto
    its direction space."""
    basis = []
    for v in verts[1:]:
        delta = tuple(a - b for a, b in zip(v, verts[0]))
        if _rank(basis + [delta]) > len(basis):
            basis.append(delta)
    if not basis:
        return [], []
    gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
    cols = [_solve_square(gram, [u[j] for u in basis]) for j in range(len(verts[0]))]
    return basis, [tuple(col[i] for col in cols) for i in range(len(basis))]


def chart_route_v_to_h(V):
    """v_to_h by the former chart route: the dual double description of the
    chart points y = W (v - v0) with rows (1, y) made primitive, each ray
    (z0, c) the chart row -c . y <= z0 pulled back through y = W (x - v0),
    made coprime and sorted, with the all-vertex hull equalities.  The
    pull-back drops a row that becomes constant."""
    from weightpoly.exact import primitive_vector
    from weightpoly.polytopes import (_dd_extreme_rays, _hpolytope, _joint_primitive,
                                      _pull_back, empty_hrep)

    d, verts = V.dim, V.vertices
    if not verts:
        return empty_hrep(d)
    eqs = all_vertex_affine_hull_equalities(verts, d)
    _, w_rows = _hull_chart(verts)
    if not w_rows:
        return _hpolytope(d, (), eqs)
    v0 = verts[0]
    chart = {primitive_vector((Fraction(1),) + tuple(
        sum(w_i * (x - x0) for w_i, x, x0 in zip(w, v, v0)) for w in w_rows)) for v in verts}
    rays = _dd_extreme_rays(sorted(chart), len(w_rows) + 1)[0]
    rows = ((enumerate(-c for c in z[1:]), Fraction(z[0])) for z in rays)
    offset = [-sum(a * b for a, b in zip(w, v0)) for w in w_rows]
    pulled = _pull_back(rows, w_rows, offset)
    return _hpolytope(d, sorted(_joint_primitive(a, b) for a, b in pulled), eqs)


def chart_route_remove_redundant(P):
    """remove_redundant with the former chart projection: the package's
    facets and retained rows, and each facet with no input row orthogonal to
    the hull given its first row's normal projected by U W, with the rhs
    read at a vertex of the facet, made coprime and appended sorted."""
    from weightpoly.polytopes import (_hpolytope, _incidence, _joint_primitive, empty_hrep,
                                      h_to_v, polytope_dim)

    _, row_masks, _, faces = _incidence(P)
    verts = h_to_v(P).vertices
    if not verts:
        return empty_hrep(P.dim)
    eqs, basis, w_rows = (), [], []
    if polytope_dim(P) < P.dim:
        eqs = all_vertex_affine_hull_equalities(verts, P.dim)
        basis, w_rows = _hull_chart(verts)
    unmatched = {mask: i for i, mask in faces[1]}
    retained = []
    for (a, b), mask in zip(P.ineqs, row_masks):
        if mask in unmatched and all(sum(x * y for x, y in zip(a, e)) == 0 for e, _ in eqs):
            del unmatched[mask]
            retained.append((a, b))
    canonical = []
    for mask, i in unmatched.items():
        y = [sum(x * c for x, c in zip(w, P.ineqs[i][0])) for w in w_rows]
        normal = tuple(sum(a * b for a, b in zip(y, col)) for col in zip(*basis))
        at = verts[(mask & -mask).bit_length() - 1]
        canonical.append(_joint_primitive(normal, sum(a * b for a, b in zip(normal, at))))
    return _hpolytope(P.dim, retained + sorted(canonical), eqs)


def section_rule_h_to_v(H):
    """h_to_v of an H-polytope whose normals miss some lines L, by a second
    polytope: the section of H by the orthogonal complement of L, whose
    normals span, is nonempty iff H is, and H = section + L, so nonempty
    means unbounded.  Nonemptiness of the section is decided by subset
    enumeration; returns the empty VPolytope or raises the recession-line
    error."""
    from weightpoly.polytopes import HPolytope, UnboundedPolytopeError, VPolytope

    lines = _nullspace([a for a, _ in H.ineqs] + [e for e, _ in H.eqs], H.dim)
    assert lines, "the normals span Q^dim"
    section = HPolytope(H.dim, H.ineqs, H.eqs + tuple((z, 0) for z in lines))
    if brute_force_vertices(section):
        raise UnboundedPolytopeError(
            "polytope is unbounded (recession line); bounded input required")
    return VPolytope(H.dim, ())


def brute_force_edges(H):
    """Vertex pairs (u, v), u < v, spanning an edge: the rows tight at both,
    together with the equalities, have rank dim - 1."""
    verts = brute_force_vertices(H)
    eq_normals = [a for a, _ in H.eqs]
    tight = [{i for i, (a, b) in enumerate(H.ineqs)
              if sum(ai * xi for ai, xi in zip(a, v)) == b} for v in verts]
    return tuple(
        (u, v) for (i, u), (j, v) in combinations(enumerate(verts), 2)
        if _rank(eq_normals + [H.ineqs[k][0] for k in tight[i] & tight[j]]) == H.dim - 1)


def brute_force_lattice_points(H, dilate=1):
    """Integer points of dilate*H by scanning the vertex bounding box."""
    scaled_ineqs = tuple((a, dilate * b) for a, b in H.ineqs)
    scaled_eqs = tuple((a, dilate * b) for a, b in H.eqs)
    scaled = type(H)(dim=H.dim, ineqs=scaled_ineqs, eqs=scaled_eqs)
    verts = brute_force_vertices(scaled)
    if not verts:
        return ()
    lo = [min(v[i] for v in verts) for i in range(H.dim)]
    hi = [max(v[i] for v in verts) for i in range(H.dim)]
    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    return tuple(p for p in product(*ranges) if _satisfies(scaled, p))


def gt_pattern_count(lam, row_sums=None):
    """Integral triangular arrays with top row lam and interlacing rows;
    row_sums, when given, prescribes the sum of each row (index = row length)."""
    lam = tuple(lam)
    k = len(lam)
    if row_sums is not None and sum(lam) != row_sums[k - 1]:
        return 0

    def count_below(row):
        t = len(row) - 1
        if t == 0:
            return 1
        total = 0
        for entries in product(*(range(row[i + 1], row[i] + 1) for i in range(t))):
            if row_sums is not None and sum(entries) != row_sums[t - 1]:
                continue
            total += count_below(entries)
        return total

    return count_below(lam)


def reference_gt_rows(k, lam, row_sums=None):
    """gt_hrep's rows by a dense loop over the pattern entries: (dim, ineqs, eqs).

    One coordinate per entry of rows 1..k-1, rows bottom to top, each row in
    increasing value order; per entry (t, i) the upper bound row_{t,i} <=
    row_{t+1,i} before the lower bound row_{t,i} >= row_{t+1,i+1}.
    """
    dim = k * (k - 1) // 2

    def at(t, i):
        return t * (t - 1) // 2 + (t - i)

    def unit(t, i, c):
        row = [Fraction(0)] * dim
        row[at(t, i)] = Fraction(c)
        return row

    ineqs = []
    for t in range(1, k):
        for i in range(1, t + 1):
            if t + 1 == k:
                ineqs.append((tuple(unit(t, i, 1)), Fraction(lam[i - 1])))
                ineqs.append((tuple(unit(t, i, -1)), -Fraction(lam[i])))
            else:
                upper = unit(t, i, 1)
                upper[at(t + 1, i)] = Fraction(-1)
                ineqs.append((tuple(upper), Fraction(0)))
                lower = unit(t, i, -1)
                lower[at(t + 1, i + 1)] = Fraction(1)
                ineqs.append((tuple(lower), Fraction(0)))
    eqs = []
    if row_sums is not None:
        for t in range(1, k):
            row = [Fraction(0)] * dim
            for i in range(1, t + 1):
                row[at(t, i)] = Fraction(1)
            eqs.append((tuple(row), Fraction(row_sums[t - 1])))
    return dim, tuple(ineqs), tuple(eqs)


def reference_slice(m, r):
    """fm_polytope's slice by substituting affine expressions into the
    interlacing differences, entry pair by entry pair.

    Returns (layout, ineqs or None when a constant row fails, diag matrix,
    diag offset): layout lists the chart's (t, i) entries, each free entry
    of row t from the smallest value up; the entry at the lowest free
    position is eliminated by the row sum.
    """
    r = tuple(Fraction(w) for w in r)
    n = len(r)
    P = sum(r) / (m + 1)
    sums = [sum(r[:t]) for t in range(1, n)]
    rows = []
    for t in range(1, n):
        lo, hi = max(1, m + 2 - n + t), min(t, m + 1)
        rows.append((t, lo, hi, sums[t - 1] - P * max(0, m + 1 - n + t)))
    layout = [(t, i) for t, lo, hi, _ in rows for i in range(hi, lo, -1)]
    dim = len(layout)
    index = {pos: j for j, pos in enumerate(layout)}

    def expr(coeffs, const):  # const + sum coeffs[j] * chart_j
        return tuple(Fraction(c) for c in coeffs), Fraction(const)

    def minus(u, v):
        return tuple(a - b for a, b in zip(u[0], v[0])), u[1] - v[1]

    zero = [0] * dim
    exprs = {}
    for t, lo, hi, S_t in rows:
        for i in range(1, t + 1):
            if i < lo:
                exprs[(t, i)] = expr(zero, P)
            elif i > hi:
                exprs[(t, i)] = expr(zero, 0)
            elif i > lo:
                unit = list(zero)
                unit[index[(t, i)]] = 1
                exprs[(t, i)] = expr(unit, 0)
        remainder = list(zero)
        for i in range(lo + 1, hi + 1):
            remainder[index[(t, i)]] = -1
        exprs[(t, lo)] = expr(remainder, S_t)
    for i in range(1, n + 1):
        exprs[(n, i)] = expr(zero, P if i <= m + 1 else 0)
    ineqs = []
    for t in range(1, n):
        for i in range(1, t + 1):
            for coeffs, const in (minus(exprs[(t, i)], exprs[(t + 1, i)]),
                                  minus(exprs[(t + 1, i + 1)], exprs[(t, i)])):
                # The constraint is coeffs . x + const <= 0.
                if any(coeffs):
                    ineqs.append((coeffs, -const))
                elif const > 0:
                    ineqs = None
                    break
            if ineqs is None:
                break
        if ineqs is None:
            break
    diag = [minus(exprs[(t, i - 1)], exprs[(t, i)])
            for t, lo, hi, _ in rows for i in range(hi, lo, -1)]
    return (tuple(layout), ineqs, tuple(c for c, _ in diag),
            tuple(k for _, k in diag))


def _as_int(x):
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return f.numerator


def pattern_multiplicity(m, n, P, r, dilate=1):
    """Weight multiplicity by direct pattern enumeration."""
    lam = (_as_int(dilate * P),) * (m + 1) + (0,) * (n - m - 1)
    sums = []
    acc = 0
    for i in range(n):
        acc += _as_int(dilate * r[i])
        sums.append(acc)
    return gt_pattern_count(lam, sums)


def per_permutation_multiplicity(m, n, P, r):
    """Weight multiplicity by the Jacobi-Trudi determinant det(h_{P-i+j}),
    expanded term by term: each permutation's x^r coefficient of a product of
    h_d counts the nonnegative integer matrices with row sums d and column
    sums r, filled column by column with a fresh memo."""
    size = m + 1
    total = 0
    for perm in permutations(range(size)):
        degrees = [P - i + perm[i] for i in range(size)]
        if min(degrees) < 0 or sum(degrees) != sum(r):
            continue
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(size), 2))
        total += (-1) ** inversions * _matrices(tuple(r), 0, tuple(sorted(degrees)), {})
    return total


def _matrices(cols, j, rows, memo):
    """Nonnegative integer matrices with row sums rows and column sums cols[j:]."""
    if j == len(cols):
        return 1 if not any(rows) else 0
    key = (j, rows)
    if key not in memo:
        memo[key] = sum(
            _matrices(cols, j + 1, tuple(sorted(d - c for d, c in zip(rows, column))), memo)
            for column in _columns(cols[j], rows))
    return memo[key]


def _columns(total, caps):
    """Every tuple of nonnegative ints bounded entrywise by caps summing to total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for c in range(min(total, caps[0]) + 1):
        for rest in _columns(total - c, caps[1:]):
            yield (c,) + rest


# The multiplicity DP as it stood before its column step became range sums
# over difference arrays, kept word for word (only the name changed) as the
# oracle the range-sum DP must reproduce.

def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _spread(state: tuple[int, ...], w: int) -> list[tuple[int, ...]]:
    """Every way to take w units off the rows of state, each row keeping a
    nonnegative remainder, as the sorted remainders (repeats kept)."""
    partial = [((), w)]
    room = sum(state)
    for d in state[:-1]:
        room -= d
        partial = [(head + (d - take,), left - take)
                   for head, left in partial
                   for take in range(max(0, left - room), min(left, d) + 1)]
    return [tuple(sorted(head + (state[-1] - left,))) for head, left in partial]


def spread_weight_multiplicity(q) -> int:
    """Multiplicity of the weight r in the gl_n module of highest weight
    (P,...,P,0,...,0) with m+1 copies of P.

    Jacobi-Trudi: the Schur function is det(h_{P-i+j}), 1 <= i,j <= m+1.
    The x^r coefficient of a product of h_d counts nonnegative integer
    matrices with row sums d and column sums r, so one signed dynamic program
    covers the whole determinant: each state is the sorted row sums still
    missing (the count ignores row order), starting from every permutation's
    degrees weighted by its sign, and each column of r is spread over the
    rows in turn (the count ignores column order too).  The multiplicity is
    the coefficient of the all-zero state.
    """
    size = q.m + 1
    states: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(size)):
        degrees = tuple(sorted(q.P - i + perm[i] for i in range(size)))
        if degrees[0] >= 0:
            states[degrees] = states.get(degrees, 0) + _perm_sign(perm)
    for w in sorted(q.r, reverse=True):
        spread: dict[tuple[int, ...], int] = {}
        for state, coeff in states.items():
            if coeff:
                for rest in _spread(state, w):
                    spread[rest] = spread.get(rest, 0) + coeff
        states = spread
    total = states.get((0,) * size, 0)
    if total < 0:
        raise AssertionError("multiplicity must be nonnegative")
    return total


def vandermonde_fit(nodes, values):
    """Ascending coefficients of the polynomial of degree < len(nodes) through
    (nodes[k], values[k]): the Vandermonde system rows (1, t, t^2, ...) = value,
    solved by plain Gaussian elimination."""
    rows = [[Fraction(t) ** k for k in range(len(nodes))] for t in nodes]
    coeffs = _solve_square(rows, values)
    if coeffs is None:
        raise AssertionError("Vandermonde system must be uniquely solvable")
    return coeffs


def polygon_area(vertices):
    """Shoelace area of a convex 2D vertex set (any input order)."""
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    ordered = sorted(vertices, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    twice = Fraction(0)
    for i, (x1, y1) in enumerate(ordered):
        x2, y2 = ordered[(i + 1) % len(ordered)]
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2


def random_admissible_r(rng, n, lo=1, hi=9, integral_P=False, strict=False, m=1):
    """Integer side lengths with max r_i <= (or <) their average times (m+1)/n."""
    while True:
        r = tuple(rng.randint(lo, hi) for _ in range(n))
        total = sum(r)
        if integral_P and total % (m + 1) != 0:
            continue
        P = Fraction(total, m + 1)
        ok = all(ri < P for ri in r) if strict else all(ri <= P for ri in r)
        if ok:
            return r


def random_box_with_cuts(rng, make_hpolytope):
    """A bounded random H-polytope: integer box plus a few random cuts."""
    d = rng.randint(1, 4)
    ineqs = []
    for i in range(d):
        lo = rng.randint(-4, 2)
        hi = lo + rng.randint(0, 5)
        e = [0] * d
        e[i] = 1
        ineqs.append((tuple(e), hi))
        ineqs.append((tuple(-c for c in e), -lo))
    for _ in range(rng.randint(0, max(0, 8 - 2 * d))):
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        if all(c == 0 for c in a):
            continue
        ineqs.append((a, rng.randint(-6, 10)))
    return make_hpolytope(dim=d, ineqs=tuple(ineqs), eqs=())


def random_box_with_equalities(rng, make_hpolytope):
    """An integer box in dimension 2-4 with 1..d-1 random equalities, whose
    right sides may be half-integers, so that some slices hold no integer
    point although they are rationally nonempty."""
    d = rng.randint(2, 4)
    lo, hi = rng.randint(-1, 0), rng.randint(1, 2)
    ineqs = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        ineqs += [(tuple(e), hi), (tuple(-c for c in e), -lo)]
    eqs = []
    for _ in range(rng.randint(1, d - 1)):
        normal = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(normal):
            eqs.append((normal, Fraction(rng.randint(-3, 6), rng.choice((1, 2)))))
    return make_hpolytope(dim=d, ineqs=tuple(ineqs), eqs=tuple(eqs))


def reference_refine(rights: Sequence[frozenset[int]], colors: list[int]) -> list[int]:
    """Color refinement by its definition: an item's key is its color and the
    sorted colors of every right set holding it, found by scanning all the
    right sets; colors become the keys' ranks until a round changes none."""
    while True:
        keys = []
        for i in range(len(colors)):
            incident = sorted(
                tuple(sorted(colors[j] for j in s)) for s in rights if i in s)
            keys.append((colors[i], tuple(incident)))
        ranking = {key: pos for pos, key in enumerate(sorted(set(keys)))}
        new_colors = [ranking[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


# The double description kernel as the package had it before its rays kept
# slots: every row with a negative ray rebuilds the transposed incidence from
# every zero set, and the face of each edge test is all the rays.  The
# package's kernel must return the same rays, zero sets and lines, in the
# same order.
def reference_dd_extreme_rays(rows: list[tuple[int, ...]],
                              dim: int) -> tuple[list, list[int], list]:
    """Extreme rays of the cone {y : row . y >= 0 for every row}, with the
    rows each one is tight on, and the lines left.

    Incremental double description (Fukuda & Prodon, "Double description
    method revisited", 1996), in integers.  The cone starts as the lines
    e_1..e_dim.  A first pass takes, in input order, each row that is
    nonzero on some line: the first such line becomes a ray on the row's
    positive side, tight on the rows taken before it, and every other line
    and ray v is shifted along it onto the row's hyperplane, as
    a*v - (row.v)*pivot with a = row.pivot, made primitive.  The rows taken
    are those independent of the rows before them; the lines left span the
    cone's lineality space, and the rays generate a pointed section of the
    cone.  The rows left, each in the span of rows taken before it, follow in
    input order, one inequality at a time.  Each ray carries its zero set, the
    processed rows it is tight on, as an int bitmask over row indices: a
    kept ray gains the new row's bit when it lies on that row, and the ray
    combined from p and q is tight exactly on (zero set of p & zero set of
    q) plus the new row.  p and q are adjacent by _is_edge over the rays
    tight on each row; they share at least dim - L - 2 tight rows, L the
    number of lines left.  Returns (rays, zero sets, the lines left).
    """
    from weightpoly.exact import primitive_vector
    from weightpoly.polytopes import _idot, _is_edge, _tight_on

    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    zsets: list[int] = []
    taken = 0
    later = []
    for idx, row in enumerate(rows):
        vals = [_idot(row, z) for z in lines]
        at = next((k for k, v in enumerate(vals) if v), None)
        if at is None:
            later.append(idx)
            continue
        a, pivot = vals.pop(at), lines.pop(at)
        if a < 0:
            a, pivot = -a, tuple(-c for c in pivot)
        lines = [primitive_vector(tuple(a * c - v * p for c, p in zip(z, pivot))) if v else z
                 for z, v in zip(lines, vals)]
        rays = [primitive_vector(tuple(a * c - v * p for c, p in zip(r, pivot))) if v else r
                for r, v in zip(rays, [_idot(row, r) for r in rays])] + [pivot]
        zsets = [z | 1 << idx for z in zsets] + [taken]
        taken |= 1 << idx
    need = dim - len(lines) - 2
    for idx in later:
        row = rows[idx]
        bit = 1 << idx
        vals = [_idot(row, r) for r in rays]
        negative = [(qi, vq, zsets[qi]) for qi, vq in enumerate(vals) if vq < 0]
        if negative:
            tight_on = _tight_on(zsets, len(rows))
            everyone = (1 << len(rays)) - 1
            fresh: list[tuple[int, ...]] = []
            fresh_z: list[int] = []
            for pi, vp in enumerate(vals):
                if vp <= 0:
                    continue
                zp = zsets[pi]
                for qi, vq, zq in negative:
                    common = zp & zq
                    if common.bit_count() < need or not _is_edge(
                            common, tight_on, (1 << pi) | (1 << qi), everyone):
                        continue
                    p, q = rays[pi], rays[qi]
                    combo = tuple(vp * qc - vq * pc for pc, qc in zip(p, q))
                    fresh.append(primitive_vector(combo))
                    fresh_z.append(common | bit)
            kept = [i for i, v in enumerate(vals) if v >= 0]
            rays = [rays[i] for i in kept] + fresh
            zsets = [zsets[i] | bit if vals[i] == 0 else zsets[i] for i in kept] + fresh_z
        else:
            zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals)]
    return rays, zsets, lines


def doubled_row_incidence(P):
    """_incidence as the package had it before the equalities cut the DD's
    lines: each equality enters reference_dd_extreme_rays as two opposite
    rows after every inequality and t >= 0, so the DD first enumerates the
    polytope without its equalities.  The same record and error texts."""
    from weightpoly.polytopes import UnboundedPolytopeError, _joint_primitive, _tight_on

    cone = [(b, *[-c for c in a]) for a, b in
            (_joint_primitive(a, b) for a, b in P.ineqs + P.eqs)]
    rows = cone[:len(P.ineqs)] + [(1,) + (0,) * P.dim]
    for row in cone[len(P.ineqs):]:
        rows += [row, tuple([-c for c in row])]
    rays, zsets, lines = reference_dd_extreme_rays(rows, P.dim + 1)
    found = [(ray, zset) for ray, zset in zip(rays, zsets) if ray[0]]
    if found and lines:
        raise UnboundedPolytopeError(
            "polytope is unbounded (recession line); bounded input required")
    if found and len(found) < len(rays):
        raise UnboundedPolytopeError(
            "polytope is unbounded (recession ray); bounded input required")
    scale = math.lcm(1, *(ray[0] for ray, _ in found))
    ints = [tuple(c * (scale // ray[0]) for c in ray[1:]) for ray, _ in found]
    order = sorted(range(len(found)), key=ints.__getitem__)
    of_ineqs = (1 << len(P.ineqs)) - 1
    vert_masks = [found[i][1] & of_ineqs for i in order]
    return vert_masks, _tight_on(vert_masks, len(P.ineqs)), (scale, [ints[i] for i in order])


# The full individualization-refinement search, with no automorphism pruning:
# every member of every target cell is tried.
def brute_force_canonical_incidence(n_left: int, left_labels: Sequence | None,
                                    right_sets: Sequence[frozenset[int]]) -> str:
    """Canonical encoding of a bipartite incidence structure.

    Left items may be permuted (respecting their labels); right items carry no
    identity beyond their left-neighbor sets.  Two structures get equal
    encodings iff they are isomorphic, via color refinement with
    individualization backtracking (exact at this problem scale).
    """
    labels = list(left_labels) if left_labels is not None else [0] * n_left
    rights = [frozenset(s) for s in right_sets]
    def encode(colors: list[int]) -> str:
        order = sorted(range(n_left), key=lambda i: colors[i])
        pos = {item: p for p, item in enumerate(order)}
        left_part = ",".join(repr(labels[i]) for i in order)
        right_part = "|".join(sorted(
            ",".join(str(pos[j]) for j in sorted(s, key=lambda j: pos[j]))
            for s in rights))
        return f"L[{left_part}];R[{right_part}]"

    def search(colors: list[int]) -> str:
        colors = reference_refine(rights, colors)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        tied = [members for _, members in sorted(classes.items()) if len(members) > 1]
        if not tied:
            return encode(colors)
        members = tied[0]
        best = None
        fresh = max(colors) + 1
        for i in members:
            branched = list(colors)
            branched[i] = fresh
            cand = search(branched)
            if best is None or cand < best:
                best = cand
        return best

    if n_left == 0:
        return "L[];R[" + "|".join(sorted(",".join(map(str, sorted(s))) for s in rights)) + "]"
    init = {lab: r for r, lab in enumerate(sorted(set(map(repr, labels))))}
    return search([init[repr(lab)] for lab in labels])


def pairwise_cone_adjacency(F):
    """Cone pairs (i, j) of a fan, i < j, in order, such that the direction
    from vertex i to vertex j, scaled to a primitive integer vector, is a ray
    of cone i and its negation a ray of cone j; every pair is tested."""
    cones = F.maximal_cones
    edges = []
    for i, (vi, ci) in enumerate(cones):
        for j in range(i + 1, len(cones)):
            vj, cj = cones[j]
            delta = [Fraction(b) - Fraction(a) for a, b in zip(vi, vj)]
            if not any(delta):
                continue
            scale = math.lcm(*(c.denominator for c in delta))
            ints = [int(c * scale) for c in delta]
            g = math.gcd(*ints)
            direction = tuple(c // g for c in ints)
            if direction in ci.rays and tuple(-c for c in direction) in cj.rays:
                edges.append(frozenset((i, j)))
    return edges


def dataclass_twin(cls):
    """cls's fields made into a class by dataclasses.dataclass(frozen=True):
    the same name, module, annotations and defaults, and no __post_init__ or
    other method of cls."""
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                 "__annotations__": dict(cls.__annotations__)}
    for name in cls.__annotations__:
        if name in cls.__dict__:
            namespace[name] = cls.__dict__[name]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
