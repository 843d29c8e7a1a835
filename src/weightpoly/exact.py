"""Exact rational linear algebra and integer lattice utilities.

All arithmetic runs over Python ints and fractions.Fraction, so every result
is exact at arbitrary size.  Floats are rejected at the boundary; rationals
cross process boundaries as "p/q" (or "p") strings.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, "p/q" string or Fraction (kept as is).

    A string of ASCII digits alone is read by int, which gives the value
    Fraction's regex would (and the same ValueError past the int-to-str
    digit limit); every other string goes through Fraction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return Fraction(int(value))
    if isinstance(value, (int, str)):
        return Fraction(value)  # Fraction("p/0") raises ZeroDivisionError, as required.
    raise TypeError(f"not an exact rational: {value!r} (floats are not accepted)")


def is_int(value) -> bool:
    """Whether value is an int; bools are not, where an integer is required."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, name: str, least: int = 1) -> None:
    """The one check of an integer argument: ValueError unless value is an
    int (is_int: a bool is not) >= least, which is 1 (positive) or 0
    (nonnegative)."""
    if not is_int(value) or value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'nonnegative'} integer")


def frac_str(value: Fraction | int) -> str:
    """The text of an exact rational, "p/q" or "p"; an int or a bool is
    written as its Fraction."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def vec(values: Sequence) -> Vec:
    """values as a tuple of exact rationals (frac); a str or a mapping, a
    JSON object, is not a vector, though iterating it would give one."""
    if isinstance(values, (str, Mapping)):
        raise TypeError(f"not a vector: {values!r}")
    return tuple(frac(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*rows))


def _gauss_jordan(rows: Sequence[Sequence], ncols: int
                  ) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination, one input row at a time.

    Pivots only in the first ncols columns; any further columns ride along as
    an augmented block.  Each row is reduced by the pivot rows so far; a
    nonzero remainder becomes a new pivot row, and its pivot is cleared from
    the earlier ones.  Returns (reduced pivot rows, their pivot columns), in
    the order found; sorted by pivot column they are the unique reduced row
    echelon form.  Stops once it has ncols pivots, since no later row can add
    one.  Rows of unequal lengths raise ValueError("ragged matrix").
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    reduced: list[list[Fraction]] = []
    pivots: list[int] = []
    for raw in rows:
        if len(pivots) == ncols:
            break
        row = [frac(v) for v in raw]
        for red, c in zip(reduced, pivots):
            f = row[c]
            if f:
                row = [a - f * b for a, b in zip(row, red)]
        c = next((j for j in range(ncols) if row[j]), None)
        if c is None:
            continue
        pv = row[c]
        row = [a / pv for a in row]
        for i, red in enumerate(reduced):
            f = red[c]
            if f:
                reduced[i] = [a - f * b for a, b in zip(red, row)]
        reduced.append(row)
        pivots.append(c)
    return reduced, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> tuple[str, Vec | None]:
    """Solve A x = b exactly.

    Returns ("unique", x), ("no solution", None), or ("underdetermined", None).
    No solution means eliminating on [A | b] finds a pivot in the b column.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    ncols = len(rows[0]) if m else 0
    reduced, pivots = _gauss_jordan(
        [list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return ("no solution", None)
    if len(pivots) < ncols:
        return ("underdetermined", None)
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols]
    return ("unique", tuple(x))


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} over the rationals (reduced row echelon form);
    every row of A must have ncols entries."""
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length does not match ncols")
    reduced, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def mat_inverse(rows: Sequence[Sequence]) -> Mat:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    reduced, pivots = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    by_pivot = dict(zip(pivots, reduced))
    return tuple(tuple(by_pivot[c][n:]) for c in range(n))


def clear_denominators(v: Sequence) -> tuple[int, tuple[int, ...]]:
    """(t, x) with t the least positive integer making x = t * v integral.

    Reads each entry's numerator and denominator, so ints and Fractions go
    through the same integer arithmetic and no Fraction is built.
    """
    t = lcm(*[c.denominator for c in v])
    return t, tuple([c.numerator * (t // c.denominator) for c in v])


def _all_int(values: Iterable) -> bool:
    """Whether every entry is an int (a bool is not); one type scan."""
    return {*map(type, values)} <= {int}


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the same ray (positive scaling only).

    An all-int vector is divided by its gcd directly; denominators are
    cleared only when some entry is not an int.
    """
    ints = v if _all_int(v) else clear_denominators(v)[1]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Integer copies of rows, by the rule for lattice data: an all-int row
    is copied after one type scan; otherwise a Fraction is read by its
    numerator and denominator and other entries are parsed by frac (a float
    or a bool raises TypeError).  A non-integral entry raises ValueError."""
    out = []
    for row in rows:
        if _all_int(row):
            out.append(list(row))
            continue
        row = [x if type(x) in (int, Fraction) else frac(x) for x in row]
        if any(x.denominator != 1 for x in row):
            raise ValueError("lattice data must be integral")
        out.append([x.numerator for x in row])
    return out


def hnf_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Row-style Hermite normal form.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    zero rows are dropped.  Row operations are unimodular throughout.
    """
    m_rows = _int_rows(rows)
    if not m_rows:
        return []
    for r, c in _int_row_echelon(m_rows, len(m_rows[0])):
        pivot_row = m_rows[r]
        for i in range(r):
            q = m_rows[i][c] // pivot_row[c]
            if q:
                m_rows[i] = [a - q * b for a, b in zip(m_rows[i], pivot_row)]
    return [row for row in m_rows if any(row)]


def _int_row_echelon(work: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """In-place unimodular row reduction to echelon form on the first ncols
    columns, with positive pivots; entries above a pivot are left as they are
    (hnf_rows reduces them afterwards, in pivot order).

    Rows may be longer than ncols (carrying a transform block); full rows are
    swapped/combined.  Returns the (row, col) pivot positions.
    """
    m = len(work)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, m) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][c]))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
            done = True
            for i in range(r + 1, m):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    if q:
                        work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if not nz:
            continue
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def integer_kernel_basis(rows: Sequence[Sequence], width: int) -> list[tuple[int, ...]]:
    """Basis of the kernel lattice {x in Z^width : A x = 0} of an integer matrix."""
    a = _int_rows(rows)
    m = len(a)
    # Unimodular row reduction of [A^T | I]; transform rows opposite zero
    # echelon rows form a kernel lattice basis.
    aug = [[a[j][i] for j in range(m)] + [int(i == j) for j in range(width)]
           for i in range(width)]
    _int_row_echelon(aug, m)
    return [tuple(row[m:]) for row in aug if all(v == 0 for v in row[:m])]


def integer_solutions(rows: Sequence[Sequence], rhs: Sequence, width: int
                      ) -> tuple[int, tuple[int, ...] | None, list[tuple[int, ...]]]:
    """(t0, x0, kernel) for the integer system A x = t b, from one Hermite form.

    The integer solutions (t, x) of the homogenized system [-b | A] (t, x) = 0
    form a saturated lattice; the Hermite form of its basis has first row
    (t0, x0) with t0 > 0 the least dilate for which A x = t b has an integer
    solution, so the dilates with one are exactly t0 * Z and gcd(t0, x0) = 1
    (Schrijver, Theory of Linear and Integer Programming, ch. 4-5).  The other
    rows are (0, k) for k a basis of the kernel lattice of A.  t0 = 0 (and x0
    None) means A x = b has no rational solution.
    """
    if len(rows) != len(rhs):
        raise ValueError("right-hand side length does not match row count")
    basis = hnf_rows(integer_kernel_basis(
        [(-frac(b),) + tuple(row) for row, b in zip(rows, rhs)], width + 1))
    if basis and basis[0][0]:
        return basis[0][0], tuple(basis[0][1:]), [tuple(row[1:]) for row in basis[1:]]
    return 0, None, [tuple(row[1:]) for row in basis]


def solve_integer(rows: Sequence[Sequence], rhs: Sequence) -> tuple[int, ...] | None:
    """One integer solution of A x = b (integer data), or None if none exists.

    The particular solution of integer_solutions, when t0 = 1.
    """
    if len(rows) != len(rhs):
        raise ValueError("right-hand side length does not match row count")
    b = [frac(v) for v in rhs]
    if any(x.denominator != 1 for x in b):
        return None
    t0, x0, _ = integer_solutions(rows, b, len(rows[0]) if rows else 0)
    return x0 if t0 == 1 else None


def lattice_index(rays: Sequence[Sequence], dim: int) -> int:
    """Index in Z^dim of the sublattice generated by integer rays.

    The product of the pivots of their Hermite normal form (|det| for dim
    independent rays).  Rays whose entries are all ints, as a Cone holds
    them, are read as they are after one type scan over every entry (they
    are never written to); any other input is parsed first (_int_rows), so
    a bad entry raises wherever it sits.  The rays then go one at a time into a
    triangular basis, basis[c] being the row that leads at column c with a
    positive entry there: a ray is reduced by the basis rows in column
    order, and where it meets a basis row at that row's leading column the
    two are combined by Euclid's steps, which are unimodular, so the basis
    always spans the rays' lattice.  Its diagonal is then that of the Hermite
    form (the pivot at c is the gcd of the c-th entries of the lattice
    vectors that vanish before c), and the index is its product.  Once the
    basis is full, its diagonal all 1 and its ncols columns at least dim, no
    further ray can change the index, so 1 is returned at once.  Raises, after
    the last ray, if fewer than dim basis rows are filled: the rays do not
    span rank dim (always so when they have fewer than dim entries).
    """
    rows = rays if _all_int(chain.from_iterable(rays)) else _int_rows(rays)
    ncols = len(rows[0]) if rows else 0
    basis: list[Sequence[int] | None] = [None] * ncols
    filled = units = 0
    for row in rows:
        for c in range(ncols):
            a = row[c]
            if not a:
                continue
            piv = basis[c]
            if piv is None:
                basis[c] = row if a > 0 else [-x for x in row]
                filled += 1
                units += a in (1, -1)
                break
            b = old = piv[c]
            while True:  # row -= (a // b) piv, then swap, until row[c] is 0
                q = a // b
                row = [x - q * y for x, y in zip(row, piv)]
                a = row[c]
                if not a:
                    break
                piv, row, a, b = row, piv, b, a
            basis[c] = piv
            units += b == 1 < old
        if units == ncols >= dim:
            return 1
    if filled < dim:
        raise ValueError("rays are not full rank")
    index = 1
    for c, piv in enumerate(basis):
        if piv is not None:
            index *= piv[c]
    return index


_SWEEPS = 50


def _interval_box(rows: Sequence, dim: int):
    """A box holding {x in Q^dim : a . x <= b for every row}, by interval
    propagation, with no vertex enumeration.

    Each row is (terms, b): terms the (k, a_k) pairs of a's nonzero entries,
    a and b integers.  A sweep visits the rows in order.  A row bounds a_k x_k
    from above by b minus the least value of its other terms, which is known
    when each of them has its bound on the side that matters (x_j's lower
    bound for a_j > 0, its upper for a_j < 0).  So a row with every such
    bound known bounds each of its coordinates, and a row missing one bounds
    that coordinate alone.  A bound stays an int while the quotient divides,
    and becomes a Fraction only when it does not.  Sweeps stop at the first
    that tightens nothing, or after _SWEEPS.

    Returns "empty" when a row with no terms has b < 0 or some interval
    crosses, "unbounded" when some coordinate is left without a bound on a
    side, and otherwise (box, scale): box[k] the bounds of x_k times scale,
    the least common denominator of all bounds, as a pair of ints, by
    clear_denominators.
    """
    if any(b < 0 for terms, b in rows if not terms):
        return "empty"
    rows = [row for row in rows if row[0]]
    lo: list = [None] * dim
    hi: list = [None] * dim
    for _ in range(_SWEEPS):
        changed = False
        for terms, b in rows:
            missing = None
            rest = b
            for k, a in terms:
                bound = lo[k] if a > 0 else hi[k]
                if bound is None:
                    if missing is not None:
                        break
                    missing = k, a
                else:
                    rest -= a * bound
            else:
                for k, a in (terms if missing is None else (missing,)):
                    room = rest
                    if missing is None:
                        room += a * (lo[k] if a > 0 else hi[k])
                    if type(room) is int:
                        q, r = divmod(room, a)
                        if r:
                            q = Fraction(room, a)
                    else:
                        q = room / a
                    if a > 0:
                        if hi[k] is not None and q >= hi[k]:
                            continue
                        hi[k] = q
                    else:
                        if lo[k] is not None and q <= lo[k]:
                            continue
                        lo[k] = q
                    changed = True
                    if lo[k] is not None and hi[k] is not None and lo[k] > hi[k]:
                        return "empty"
        if not changed:
            break
    if None in lo or None in hi:
        return "unbounded"
    scale, ints = clear_denominators(lo + hi)
    return list(zip(ints[:dim], ints[dim:])), scale
