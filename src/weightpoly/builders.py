"""Weight polytopes of weighted point configurations in projective m-space.

A configuration is described by SideData: n positive rational weights r_i and
the ambient projective dimension m, with the critical level P = (sum r_i)/(m+1)
(for m=1, half the polygon perimeter).  Three constructions live here:

* polygon_hrep: for m=1, the diagonal-length polytope cut out by the triangle
  inequalities of the fan triangulation of an n-gon with side lengths r, read
  from the tagged table triangle_inequalities that also names the facets.
* gt_hrep: the interlacing-pattern polytope of a weakly decreasing top row.
* fm_polytope / gt_slice: the pattern polytope for the top row
  (P,...,P,0,...,0) sliced by fixed row sums s_j = r_1+...+r_j, reduced to a
  full-dimensional chart in the surviving free entries, together with the
  affine change of coordinates to per-row difference (action) variables.

Patterns are stored with weakly decreasing rows; displayed coordinate order is
bottom row to top row, each row listed in increasing value.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .exact import _require_int, clear_denominators, frac_str, is_int, vec
from .polytopes import (AffineMap, HPolytope, _assembled, _fractions, _hpolytope, _pull_back,
                        _record, affine_image, empty_hrep)


def _check_m_n(m, n) -> None:
    """Reject a projective dimension m that is not an int >= 1, or a point
    count n that is not an int > m+1 (a bool is neither)."""
    _require_int(m, "m")
    if not is_int(n):
        raise ValueError("n must be an integer")
    if n <= m + 1:
        raise ValueError("need n > m+1")


@_record
class SideData:
    """Weights r_1..r_n on n points in projective m-space.

    The fields are m, n and r.  The critical level P = sum(r) / (m + 1) is a
    derived attribute set by __post_init__, not a field, so equality, the
    hash and the repr read m, n and r alone.
    """

    m: int
    n: int
    r: tuple[Fraction, ...]

    def __post_init__(self):
        """Check m and n, parse r, check it has n positive weights and set
        the critical level, summed in integers."""
        _check_m_n(self.m, self.n)
        r = vec(self.r)
        if len(r) != self.n:
            raise ValueError(f"expected {self.n} weights, got {len(r)}")
        scale, ints = clear_denominators(r)
        if any(w <= 0 for w in ints):
            raise ValueError("all weights must be positive")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "P", Fraction(sum(ints), scale * (self.m + 1)))

    @classmethod
    def from_weights(cls, m: int, weights: Sequence) -> "SideData":
        r = vec(weights)
        return cls(m, len(r), r)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "r": [frac_str(w) for w in self.r]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SideData":
        r = vec(data["r"])
        m = data["m"]
        if "n" in data and data["n"] != len(r):
            raise ValueError("n does not match the number of weights")
        return cls(m, len(r), r)


@_record
class GTSpec:
    """Interlacing-pattern data: rank k, top row lam, optional fixed row sums."""

    k: int
    lam: tuple[Fraction, ...]
    row_sums: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        _require_int(self.k, "k")
        lam = vec(self.lam)
        if len(lam) != self.k:
            raise ValueError(f"top row must have {self.k} entries")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError("top row must be weakly decreasing")
        if any(a < 0 for a in lam):
            raise ValueError("top row entries must be nonnegative")
        object.__setattr__(self, "lam", lam)
        if self.row_sums is not None:
            sums = vec(self.row_sums)
            if len(sums) != self.k - 1:
                raise ValueError(f"need {self.k - 1} row sums")
            total = sum(lam, Fraction(0))
            if any(s < 0 or s > total for s in sums):
                raise ValueError("each row sum must lie between 0 and the top-row total")
            object.__setattr__(self, "row_sums", sums)


@_record
class ChartedSlice:
    """A row-sum slice of a pattern polytope in two coordinate systems.

    entry_chart: coordinates are the surviving free entries (constant entries
    and one row-sum-eliminated entry per row removed), rows bottom to top, each
    row in increasing value order; its integer points are exactly the integral
    patterns, so all lattice counting happens here.
    diag_chart: coordinates are the differences of adjacent variable entries
    per row; integer points of this chart overcount the patterns (differences
    of integral patterns satisfy extra congruences, parity for m=1).
    entry_to_diag maps the first chart onto the second, injectively; the
    diag chart is that image, derived on each read.
    """

    entry_chart: HPolytope
    entry_to_diag: AffineMap
    entry_coords: tuple[tuple[int, int], ...]

    @property
    def diag_chart(self) -> HPolytope:
        return affine_image(self.entry_chart, self.entry_to_diag)


def admissible(s: SideData) -> bool:
    """Whether every weight clears the critical level: r_i <= P for all i."""
    return all(w <= s.P for w in s.r)


def dual_side_data(s: SideData) -> SideData:
    """The complementary-weight data (n-m-2, P-r_1, ..., P-r_n).

    An involution with the same critical level P; defined when every dual
    weight is positive and the dual projective dimension is at least 1.
    """
    if any(w >= s.P for w in s.r):
        raise ValueError("dual weight nonpositive: need r_i < P for all i")
    if s.n < s.m + 3:
        raise ValueError("dual projective dimension would be < 1: need n >= m+3")
    return SideData.from_weights(s.n - s.m - 2, tuple(s.P - w for w in s.r))


def _dense(dim: int, entries: dict[int, int]) -> tuple[int, ...]:
    """The sparse row {index: coefficient} as a tuple of dim entries."""
    row = [0] * dim
    for i, c in entries.items():
        row[i] = c
    return tuple(row)


def triangle_inequalities(s: SideData) -> list[list[tuple[str, tuple[int, ...], Fraction]]]:
    """The triangle inequalities on the diagonals of a weighted n-gon (m=1).

    Coordinates x_1..x_{n-3} are the diagonal lengths d_3..d_{n-1} of the fan
    triangulation.  One entry per triangle j = 2..n-1, namely (r_1, r_2, d_3),
    (d_j, r_j, d_{j+1}) for 3 <= j <= n-2 and (d_{n-1}, r_{n-1}, r_n), holding
    its three rows (tag, normal, rhs): each side at most the sum of the other
    two, the normal in ints.  The tags N1(j)/N2(j)/N3(j) are the facet
    catalogue names.
    """
    if s.m != 1:
        raise ValueError("diagonal coordinates exist only for m=1")
    if s.n < 4:
        raise ValueError("need at least 4 sides")
    n, r = s.n, s.r
    d = n - 3

    def row(tag: str, entries: dict[int, int], rhs: Fraction):
        return tag, _dense(d, entries), rhs

    table = [[row("N1(2)", {0: 1}, r[0] + r[1]),
              row("N3(2)", {0: -1}, r[1] - r[0]),
              row("N2(2)", {0: -1}, r[0] - r[1])]]
    for j in range(3, n - 1):
        a, b = j - 3, j - 2
        table.append([row(f"N3({j})", {a: 1, b: -1}, r[j - 1]),
                      row(f"N1({j})", {a: -1, b: 1}, r[j - 1]),
                      row(f"N2({j})", {a: -1, b: -1}, -r[j - 1])])
    table.append([row(f"N3({n - 1})", {d - 1: 1}, r[n - 2] + r[n - 1]),
                  row(f"N2({n - 1})", {d - 1: -1}, r[n - 1] - r[n - 2]),
                  row(f"N1({n - 1})", {d - 1: -1}, r[n - 2] - r[n - 1])])
    return table


@functools.lru_cache(maxsize=512)
def polygon_hrep(s: SideData) -> HPolytope:
    """Triangle-inequality system on the diagonals of a weighted n-gon (m=1).

    The rows of triangle_inequalities, triangle by triangle, 3(n-2) in all
    before redundancy removal, assembled into the record once from their
    integer normals (_hpolytope).  Cached per side data, so every request on
    one polygon reads the same object and the caches keyed on it hit by
    identity.
    """
    return _hpolytope(s.n - 3, [(a, b) for tri in triangle_inequalities(s) for _, a, b in tri])


def _entry_index(t: int, i: int) -> int:
    # Rows bottom to top, each row in increasing value order (position t first).
    return t * (t - 1) // 2 + (t - i)


def _interlacing_rows(k: int, lam: Sequence[Fraction]):
    """The interlacing rows of the patterns under the top row lam, sparse.

    Coordinates are the entries of rows 1..k-1 (_entry_index).  Yields
    ({entry index: coeff}, rhs) for each row of coeffs . x <= rhs: per entry
    (t, i), rows bottom to top, the upper bound row_{t,i} <= row_{t+1,i}
    before the lower bound row_{t,i} >= row_{t+1,i+1}, with entries of row k
    read as the constants lam.  The rows between free entries have rhs the int 0.
    """
    for t in range(1, k):
        for i in range(1, t + 1):
            at = _entry_index(t, i)
            if t + 1 == k:
                yield {at: 1}, lam[i - 1]
                yield {at: -1}, -lam[i]
            else:
                yield {at: 1, _entry_index(t + 1, i): -1}, 0
                yield {at: -1, _entry_index(t + 1, i + 1): 1}, 0


def gt_hrep(spec: GTSpec) -> HPolytope:
    """Interlacing-pattern polytope of the top row, in all-entries coordinates.

    One coordinate per entry of rows 1..k-1 (k(k-1)/2 in total); row k is the
    fixed top row.  Constraints are _interlacing_rows, made dense (_dense);
    fixed row sums, when present, are added as equalities.  The record is
    assembled once from these int normals (_hpolytope).
    """
    k = spec.k
    dim = k * (k - 1) // 2
    ineqs = [(_dense(dim, coeffs), rhs) for coeffs, rhs in _interlacing_rows(k, spec.lam)]
    eqs = [] if spec.row_sums is None else [
        (_dense(dim, {_entry_index(t, i): 1 for i in range(1, t + 1)}), spec.row_sums[t - 1])
        for t in range(1, k)]
    return _hpolytope(dim, ineqs, eqs)


def _slice_rows(s: SideData):
    """Free-position bookkeeping per row of the sliced pattern polytope, in
    integers: (L, L * P, rows), L the common denominator of P and the
    weights, which is that of P and the row sums.

    Row t (1 <= t <= n-1) has entries forced to P at positions
    i <= m+1-n+t, forced to 0 at positions i >= m+2, and free in between.
    With the row sum fixed, the free entry at the lowest position (the largest
    value) is eliminated; S_t is the row sum left for the free block, and
    rows holds (t, lo, hi, L * S_t) per row.
    """
    m, n = s.m, s.n
    L, (level, *weights) = clear_denominators((s.P, *s.r))
    rows = []
    for t, acc in zip(range(1, n), accumulate(weights)):
        lo = max(1, m + 2 - n + t)
        hi = min(t, m + 1)
        forced_p = max(0, m + 1 - n + t)
        rows.append((t, lo, hi, acc - level * forced_p))
    return L, level, rows


@functools.lru_cache(maxsize=512)
def fm_polytope(s: SideData) -> ChartedSlice:
    """Row-sum slice of the (P,...,P,0,...,0) pattern polytope, fully charted.

    The entry chart keeps one coordinate per non-forced entry after the row
    sums eliminate one entry per row; generically its dimension is
    mn - 2m - m^2.  Each entry of rows 1..n-1 is an affine function of the
    chart: a forced entry the constant P or 0, a free entry its coordinate,
    the eliminated one S_t minus the row's free entries.  The entry chart is
    the interlacing rows pulled back through that map, in integers: P and
    the row sums are scaled by L, their common denominator (_slice_rows),
    and each rhs b becomes b / L at the end.  The diag chart rewrites each
    row by the differences of its adjacent variable entries; for m=1 these
    are the polygon diagonals, and the diag chart is the polytope of
    polygon_hrep, with the same vertices, but not the same rows: affine_image
    pulls each row back through -I/2, so for r = 3^5 remove_redundant keeps
    (1/2, -1/2) <= 3/2 where polygon_hrep has (1, -1) <= 3, and for
    r = (1,2)^4 the chart has 19 rows against polygon_hrep's 16.  Printed
    rows depend on which system is read, which is why cli._chart_polytope
    keeps polygon_hrep for the m=1 diag chart.  The entry chart and the map
    between the charts are each assembled once, from checked integer data.
    Cached per side data.
    """
    L, level, rows = _slice_rows(s)
    layout = tuple((t, i) for t, lo, hi, _ in rows for i in range(hi, lo, -1))
    dim = len(layout)
    index = {pos: j for j, pos in enumerate(layout)}
    matrix: list[tuple[int, ...]] = []  # per entry, in _entry_index order
    offset: list[int] = []  # times L
    for t, lo, hi, S_t in rows:
        for i in range(t, 0, -1):
            coeffs = [0] * dim
            const = 0
            if lo < i <= hi:
                coeffs[index[(t, i)]] = 1
            elif i == lo:
                for free in range(lo + 1, hi + 1):
                    coeffs[index[(t, free)]] = -1
                const = S_t
            elif i < lo:
                const = level
            matrix.append(tuple(coeffs))
            offset.append(const)
    lam = (level,) * (s.m + 1) + (0,) * (s.n - s.m - 1)
    ineqs = _pull_back(((a.items(), b) for a, b in _interlacing_rows(s.n, lam)),
                       matrix, offset)

    def over_l(b: int):  # b / L, as the int b when L = 1
        return b if L == 1 else Fraction(b, L)

    diag_rows, diag_offset = [], []
    for t, i in layout:
        left, right = _entry_index(t, i), _entry_index(t, i - 1)
        diag_rows.append(_fractions([b - a for a, b in zip(matrix[left], matrix[right])]))
        diag_offset.append(over_l(offset[right] - offset[left]))
    entry_to_diag = _assembled(AffineMap, domain_dim=dim, codomain_dim=dim,
                               matrix=tuple(diag_rows), offset=_fractions(diag_offset))
    entry_chart = (empty_hrep(dim) if ineqs is None else
                   _hpolytope(dim, [(a, over_l(b)) for a, b in ineqs]))
    return ChartedSlice(entry_chart, entry_to_diag, layout)


def gt_slice(s: SideData) -> ChartedSlice:
    """Alias of fm_polytope, sharing its cache: the pattern-polytope slice
    for any m >= 1."""
    return fm_polytope(s)


def entry_to_diag_map(s: SideData) -> AffineMap:
    """Chart change from free entries to adjacent-difference coordinates.

    For m=1 the coordinates map is a_t -> s_t - 2 a_t per row, so the linear
    part is -2 times the identity.
    """
    return fm_polytope(s).entry_to_diag
