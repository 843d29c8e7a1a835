"""Lattice-point counts, Ehrhart (quasi-)polynomial fits, and weight
multiplicities by symmetric functions.

The central identity checked here: the number of integer points of the
entry chart at dilation t equals the multiplicity of the weight t*r in the
irreducible gl_n module with highest weight (tP,...,tP,0,...,0).  The right
side is computed by a Jacobi-Trudi determinant over complete homogeneous
symmetric functions, a code path that shares nothing with the polytope
scanning on the left side, so agreement is strong evidence for both.

The left side's counts come from polytopes.count_lattice_points, cached per
(polytope, dilate), so the dilates an Ehrhart fit counted are not scanned
again when the identity is checked on the same chart.  The right side is
one polynomial product for m = 1 and a signed dynamic program over range
sums for m >= 2, in ints throughout.  Fits read their period off the DD
record's scale and interpolate each residue class on all of its samples by
Newton forward differences; a fit exists when no coefficient lies above the
degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, permutations
from typing import Sequence

from .builders import SideData, _check_m_n, dual_side_data, gt_slice
from .exact import _require_int, clear_denominators, frac_str, is_int
from .polytopes import (
    HPolytope,
    _incidence,
    _record,
    combinatorial_fingerprint,
    count_lattice_points,
    polytope_dim,
)


@_record
class DilateCounts:
    """Exact lattice-point counts of t*P for t = 0..t_max.

    Index 0 is the convention count: 1 for a nonempty polytope (the origin of
    the zero dilate), 0 for an empty one.
    """

    polytope: HPolytope
    counts: tuple[int, ...]

    @property
    def t_max(self) -> int:
        return len(self.counts) - 1

    def count(self, t: int) -> int:
        return self.counts[t]


def count_dilates(P: HPolytope, t_max: int) -> DilateCounts:
    """Exact lattice-point counts of the dilates t*P, t = 1..t_max.

    counts[0] is 1 when some counted dilate holds a point, else P's
    dimension decides.  So a count with a point runs no double description
    unless its box needs one.
    """
    _require_int(t_max, "t_max")
    counts = [count_lattice_points(P, t) for t in range(1, t_max + 1)]
    return DilateCounts(P, (int(any(counts) or polytope_dim(P) >= 0), *counts))


@_record
class EhrhartFit:
    """A degree-`degree` (quasi-)polynomial reproducing sampled dilate counts.

    period == 1 is plain polynomial mode; otherwise one coefficient list per
    residue class of t mod period, each ascending in degree.
    """

    mode: str
    period: int
    degree: int
    coeffs_by_class: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, t: int) -> Fraction:
        """Horner over t's class's integer numerators on their common
        denominator: one Fraction."""
        den, ints = clear_denominators(self.coeffs_by_class[t % self.period])
        acc = 0
        for c in reversed(ints):
            acc = acc * t + c
        return Fraction(acc, den)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs_by_class[0][-1]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "period": self.period,
            "degree": self.degree,
            "coefficients": [[frac_str(c) for c in coeffs]
                             for coeffs in self.coeffs_by_class],
        }


def _interpolate(start: int, step: int, values: Sequence[int]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the polynomial of degree < len(values) that
    takes values[k] at start + k*step.

    Newton's forward form: with s = (t - start) / step and D^k the k-th
    forward difference of values at 0, p = sum_k D^k * binomial(s, k).  It is
    expanded from the inside out, q = D^d, then q = q * (t - node_k) /
    ((k + 1) * step) + D^k for k = d-1..0, on an integer numerator
    polynomial over one common denominator: O(d^2) integer steps and one
    Fraction per coefficient.
    """
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    num, den = [diffs.pop()], 1
    for k in range(len(diffs) - 1, -1, -1):
        node, scale = start + k * step, (k + 1) * step
        shifted = [0] + num
        for i, c in enumerate(num):
            shifted[i] -= node * c
        shifted[0] += diffs[k] * den * scale
        num, den = shifted, den * scale
    return tuple(Fraction(c, den) for c in num)


def _fit_shape(P: HPolytope, t_max: int) -> tuple[int, int]:
    """(period, degree) of the Ehrhart fit of P's counts at t = 0..t_max,
    read off P's DD record (_incidence) before any count: the period its
    scale, the degree polytope_dim(P) (0 when P is empty).

    Raises ValueError when some residue class of t mod period holds fewer
    than degree + 1 of those dilates, naming the first such class: the
    class r holds the t = r + k*period <= t_max, so it falls short exactly
    when r > t_max - degree*period.
    """
    period = _incidence(P)[2][0]
    degree = max(polytope_dim(P), 0)
    residue = max(t_max + 1 - degree * period, 0)
    if residue < period:
        raise ValueError(
            f"insufficient samples: residue class {residue} needs {degree + 1} "
            f"dilates, has {len(range(residue, t_max + 1, period))}")
    return period, degree


def ehrhart_fit(c: DilateCounts) -> EhrhartFit:
    """Fit the dilate counts exactly.

    Polynomial mode when the polytope has integral vertices; otherwise quasi
    mode with period = lcm of the vertex coordinate denominators (determined
    from the geometry, never guessed from the counts).  Each residue class is
    interpolated by forward differences (_interpolate) on all of its
    dilates, residue + k*period, and the fit keeps the first degree + 1
    coefficients; a nonzero coefficient above degree raises, as do too few
    samples (_fit_shape).  The interpolant through given samples is unique,
    so this accepts exactly the counts that the polynomial through each
    class's first degree + 1 samples reproduces, with that polynomial's
    coefficients.  Period and dimension are read off the polytope's own DD
    record (_incidence), the period as its scale: every DD ray (t, x) is
    primitive, so the lcm of the t is that of the vertex denominators.  An
    empty polytope has no ray, so scale 1, and is fitted at degree 0 to its
    count 0 at t = 0: the zero fit.
    """
    period, degree = _fit_shape(c.polytope, c.t_max)
    mode = "polynomial" if period == 1 else "quasi"
    coeffs_by_class = [_interpolate(residue, period, c.counts[residue::period])
                       for residue in range(period)]
    if any(any(cs[degree + 1:]) for cs in coeffs_by_class):
        raise ValueError("counts not (quasi-)polynomial at this period")
    return EhrhartFit(mode, period, degree, tuple(cs[:degree + 1] for cs in coeffs_by_class))


@_record
class MultiplicityQuery:
    """Weight-multiplicity input: integral level P and integral weight r."""

    m: int
    n: int
    P: int
    r: tuple[int, ...]

    def __post_init__(self):
        _check_m_n(self.m, self.n)
        _require_int(self.P, "P", 0)
        r = tuple(self.r)
        if len(r) != self.n or any(not is_int(x) or x < 0 for x in r):
            raise ValueError(f"r must be {self.n} nonnegative integers")
        if sum(r) != (self.m + 1) * self.P:
            raise ValueError("weight total must equal (m+1) * P")
        object.__setattr__(self, "r", r)

    @classmethod
    def from_side(cls, s: SideData, dilate: int = 1) -> "MultiplicityQuery":
        _require_int(dilate, "dilate", 0)
        step, (P, *r) = clear_denominators((s.P, *s.r))
        if dilate % step:
            raise ValueError("multiplicity defined for integral dilations only")
        times = dilate // step
        return cls(s.m, s.n, times * P, tuple([times * w for w in r]))


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def weight_multiplicity(q: MultiplicityQuery) -> int:
    """Multiplicity of the weight r in the gl_n module of highest weight
    (P,...,P,0,...,0) with m+1 copies of P.

    Jacobi-Trudi: the Schur function is det(h_{P-i+j}), 1 <= i,j <= m+1.
    The x^r coefficient of a product of h_d counts nonnegative integer
    matrices with row sums d and column sums r.  For m = 1 the determinant
    is h_P^2 - h_{P+1} h_{P-1}, and a two-row matrix is its first row, so
    the multiplicity is c(P) - c(P+1) = c(P) - c(P-1), c(k) the q^k
    coefficient of the palindromic prod_j (1 + q + ... + q^{r_j}): P+1
    ints, each column one prefix sum and one shifted subtraction.  For
    m >= 2, _signed_state_dp.
    """
    if q.m == 1:
        c = [1] + [0] * q.P
        for w in q.r:
            at = list(accumulate(c))
            c = at[:w + 1] + [a - b for a, b in zip(at[w + 1:], at)]
        total = c[-1] - c[-2] if q.P else 1
    else:
        total = _signed_state_dp(q)
    if total < 0:
        raise AssertionError("multiplicity must be nonnegative")
    return total


def _signed_state_dp(q: MultiplicityQuery) -> int:
    """weight_multiplicity by one signed dynamic program over the whole
    determinant: each state is the sorted row sums still missing (the count
    ignores row order), starting from every permutation's degrees weighted
    by its sign, and each column of r is spread over the rows in turn (the
    count ignores column order too).  The multiplicity is the coefficient
    of the all-zero state.

    A column is spread by range sums.  Every state sums to the same total,
    (m+1)*P less the columns spread so far.  Write a state as (head, y1, y2):
    once the units the column takes off head are fixed, the remainder u left
    of y1 runs over one contiguous range, and y2 keeps base - u, base being
    the total less the new head's sum.  So each such range is one
    +coeff/-coeff pair in a difference array per sorted new head; once the
    column is done, each array is prefix-summed and each point u folds back
    onto the sorted state of (new head, u, base - u).  Per state and column
    that is (w+1)^(m-1) head spreads plus one pass over each array,
    instead of (w+1)^m spreads.
    """
    size = q.m + 1
    states: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(size)):
        degrees = tuple(sorted(q.P - i + perm[i] for i in range(size)))
        if degrees[0] >= 0:
            states[degrees] = states.get(degrees, 0) + _perm_sign(perm)
    row_total = size * q.P
    for w in sorted(q.r, reverse=True):
        row_total -= w
        ranges: dict[tuple[int, ...], list[int]] = {}
        for state, coeff in states.items():
            if not coeff:
                continue
            head, y1, y2 = state[:-2], state[-2], state[-1]
            partial = [((), w)]
            room = row_total + w
            for d in head:
                room -= d
                partial = [(kept + (d - take,), left - take)
                           for kept, left in partial
                           for take in range(max(0, left - room), min(left, d) + 1)]
            for kept, left in partial:
                if len(kept) > 1:
                    kept = tuple(sorted(kept))
                diff = ranges.get(kept)
                if diff is None:
                    diff = ranges[kept] = [0] * (row_total - sum(kept) + 2)
                diff[y1 - min(left, y1)] += coeff
                diff[y1 - max(0, left - y2) + 1] -= coeff
        states = {}
        for kept, diff in ranges.items():
            at = list(accumulate(diff))
            base = len(diff) - 2
            for u in range(base // 2 + 1):
                coeff = at[u] + at[base - u] if 2 * u < base else at[u]
                if coeff:
                    state = (*kept, u, base - u)
                    if kept and kept[-1] > u:  # u <= base - u already
                        state = tuple(sorted(state))
                    states[state] = states.get(state, 0) + coeff
    return states.get((0,) * size, 0)


@_record
class IdentityCheck:
    dilate: int
    lattice_count: int
    multiplicity: int
    passed: bool


@_record
class IdentityReport:
    side: SideData
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"checks": [
            {"dilate": c.dilate, "lattice_count": c.lattice_count,
             "multiplicity": c.multiplicity, "pass": c.passed}
            for c in self.checks]}


def _admissible_step(s: SideData) -> int:
    """L, the common denominator of P and the weights, by clear_denominators
    as in builders._slice_rows: its multiples are the dilates with a
    multiplicity side and comparable dual counts.  A dual side, weights
    P - r_i, has the same L."""
    return clear_denominators((s.P, *s.r))[0]


def _checked_step(s: SideData, t_max: int) -> int:
    """L (_admissible_step), once t_max is a positive integer with some
    multiple of L in 1..t_max; else ValueError, naming L."""
    _require_int(t_max, "t_max")
    least = _admissible_step(s)
    if least > t_max:
        raise ValueError(
            f"no dilate t in 1..{t_max} makes t*P and every t*r_i integral; "
            f"the least such t is {least}")
    return least


def verify_ehrhart_identity(s: SideData, t_max: int) -> IdentityReport:
    """Entry-chart lattice count versus weight multiplicity, per dilate.

    Only the admissible dilates, the multiples of L (_admissible_step), are
    checked; others have no multiplicity side.  Results are returned, not
    asserted; a t_max below L checks nothing and raises ValueError naming it
    (_checked_step).
    """
    least = _checked_step(s, t_max)
    entry = gt_slice(s).entry_chart
    checks = []
    for t in range(least, t_max + 1, least):
        count = count_lattice_points(entry, t)
        mult = weight_multiplicity(MultiplicityQuery.from_side(s, t))
        checks.append(IdentityCheck(t, count, mult, count == mult))
    return IdentityReport(s, tuple(checks))


def real_fiber_size(m: int, n: int) -> int:
    """Generic fiber cardinality 2^(mn - 2m - m^2) of the real-form covering."""
    _check_m_n(m, n)
    return 2 ** (m * n - 2 * m - m * m)


@_record
class DualityInvariant:
    """With step > 1, primal and dual list dilates 1..t_max and are compared
    at the multiples of step only."""

    name: str
    primal: object
    dual: object
    step: int = 1

    @property
    def passed(self) -> bool:
        if self.step == 1:
            return self.primal == self.dual
        at = slice(self.step - 1, None, self.step)
        return self.primal[at] == self.dual[at]


@_record
class DualityReport:
    side: SideData
    dual_side: SideData
    invariants: tuple[DualityInvariant, ...]

    @property
    def all_pass(self) -> bool:
        return all(iv.passed for iv in self.invariants)

    def to_json_dict(self) -> dict:
        return {
            "dual": self.dual_side.to_json_dict(),
            "invariants": [
                {"name": iv.name, "primal": iv.primal, "dual": iv.dual,
                 "pass": iv.passed}
                for iv in self.invariants],
        }


def verify_duality(s: SideData, t_max: int) -> DualityReport:
    """Invariants of the complementary-weight slice versus the original.

    Compares the entry charts of s and dual_side_data(s): dimension, vertex
    and facet counts, dilate counts 1..t_max, and the canonical incidence
    fingerprint.  Dimension, vertex and facet counts are read off each
    chart's one record (_incidence), whose face data is never None here:
    dual_side_data has required every r_i < P, so r is majorized by
    (P^(m+1), 0, ...) and both charts are nonempty.  Counts are compared at
    the multiples of L (_admissible_step) only: elsewhere the charts match
    affinely but not lattice-compatibly.  Mismatches are reported, not
    raised; a t_max below L compares no count and raises ValueError naming
    L, as verify_ehrhart_identity does.
    """
    step = _checked_step(s, t_max)
    d = dual_side_data(s)
    A = gt_slice(s).entry_chart
    B = gt_slice(d).entry_chart

    def shape(P):
        vert_masks, _, _, faces = _incidence(P)
        return polytope_dim(P), len(vert_masks), len(faces[1])

    invariants = [
        *map(DualityInvariant, ("dimension", "vertex_count", "facet_count"), shape(A), shape(B)),
        DualityInvariant("dilate_counts",
                         list(count_dilates(A, t_max).counts[1:]),
                         list(count_dilates(B, t_max).counts[1:]), step),
        DualityInvariant("fingerprint",
                         combinatorial_fingerprint(A), combinatorial_fingerprint(B)),
    ]
    return DualityReport(s, d, tuple(invariants))
