"""Exact convex polytopes over the rationals.

H-representations (inequalities normal . x <= rhs plus equalities), V-representations
(vertex lists), and the conversions between them via the double description method.
Edges with their integer directions, facets and the dimension of H-polytopes
are read off one cached record of which input rows are tight at which vertices,
held as int bitmasks, in every dimension.  Everything is exact, over
Fraction or over integers after clearing denominators; output orders are canonical
(lexicographic) so equal polytopes serialize identically.

An empty polytope in H-form is represented by the canonical infeasibility
certificate 0 . x <= -1, the only inequality allowed to carry a zero normal.
This works uniformly in every ambient dimension, including 0.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul, sub
from typing import Iterable, Sequence

from .exact import (
    Vec,
    _all_int,
    _gauss_jordan,
    _interval_box,
    _require_int,
    dot,
    frac,
    frac_str,
    integer_solutions,
    is_int,
    mat_inverse,
    primitive_vector,
    rank,
    solve_linear,
    vec,
)


class UnboundedPolytopeError(ValueError):
    """Raised when an operation that needs a bounded polytope meets a recession ray."""


def _check_dim(dim) -> None:
    """Reject an ambient dimension that is not an int >= 0 (a bool is not)."""
    if not is_int(dim):
        raise ValueError("dim must be an integer")
    if dim < 0:
        raise ValueError("ambient dimension must be >= 0")


def _tuple_of(getter, keys: Sequence):
    """The function obj -> (getter(k)(obj) for k in keys) as a tuple, for any
    number of keys: operator's getters return a bare value for one key and
    take no zero keys, so those cases read the entries one by one."""
    if len(keys) > 1:
        return getter(*keys)
    single = [getter(k) for k in keys]
    return lambda obj: tuple([get(obj) for get in single])


class _FrozenInstanceError(AttributeError):
    """Setting or deleting an attribute of a record (_record)."""


def _binder(cls, params: tuple[str, ...], defaults: dict):
    """A function with the signature of cls.__init__ that returns the values
    it binds to params: def __init__(self, *params) with these defaults,
    which trail as in a dataclass, and cls's qualified name.  Python binds
    each call's arguments and raises its own TypeError texts."""
    listed = "".join(f"{name}, " for name in params)
    scope: dict = {}
    exec(f"def __init__(self, {listed}): return ({listed})", scope)
    binder = scope["__init__"]
    binder.__qualname__ = f"{cls.__qualname__}.__init__"
    binder.__defaults__ = tuple(defaults.values())
    return binder


def _record(cls):
    """Make cls a frozen record: what dataclass(frozen=True) makes, without
    generating code for each class.

    The fields are cls's annotated names in order, and a field's default is
    its class attribute.  __init__ takes every field, positionally or by
    keyword, then calls __post_init__ when cls has one, which may set
    derived attributes that are not fields.  A call that passes every field
    positionally is taken as it is; any other is bound by cls's _binder,
    compiled on the first such call, so Python itself fills the defaults and
    raises its own TypeError texts.  Records are equal when they are of one
    class and their field tuples are equal; the hash is the field tuple's,
    unless cls defines its own; the repr is Name(field=value, ...); setting
    or deleting any attribute raises _FrozenInstanceError, on an instance
    of a subclass too; __match_args__ holds the fields.  A method cls
    defines itself is kept.
    _assembled is the one other way to make a record.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = _tuple_of(attrgetter, names)
    post_init = hasattr(cls, "__post_init__")
    binder = None

    def __init__(self, *args, **kwargs):
        nonlocal binder
        if kwargs or len(args) != len(names):
            if binder is None:
                binder = _binder(cls, names, defaults)
            args = binder(self, *args, **kwargs)
        # Set one by one, as dataclasses does: filling self.__dict__ would
        # give the record a real dict, and every field read its slow path.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(names, fields(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise _FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def _assembled(cls, **fields):
    """An instance of the record class cls (_record) holding exactly these
    field values, made without running cls.__init__ or cls.__post_init__.

    The record rule is these two halves: _record builds the class once, with
    no generated code, and _assembled builds the engine's own instances.
    For records the engine derives from data it has already checked.  The
    caller guarantees that every field is given and already in the form the
    public constructor would store: the same types, order and dedup, and
    every invariant that constructor checks.  Input from outside the engine
    goes through the constructor.
    """
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


# The Fractions of the small integers, one shared object each, for records
# assembled from integer rows (_fractions).
_SMALL = 64
_SHARED = tuple(Fraction(i) for i in range(-_SMALL, _SMALL + 1))


def _fractions(values: Iterable) -> Vec:
    """values as a tuple of Fractions: a Fraction as it is, an int within
    _SMALL of 0 as its shared entry of _SHARED, any other int as Fraction(c)."""
    return tuple([c if type(c) is Fraction else
                  _SHARED[c + _SMALL] if -_SMALL <= c <= _SMALL else Fraction(c)
                  for c in values])


@_record
class HPolytope:
    """Intersection of halfspaces (and hyperplanes) in Q^dim.

    Duplicate inequality normals are deduplicated on construction, keeping the
    tighter right-hand side.  A zero normal is rejected unless it is the
    infeasibility certificate (rhs < 0).  Besides its fields a record holds
    two derived private attributes, both set by _hrecord: _hash, and
    _coprime, each row's coprime integer form (the ineqs, then the eqs),
    which the engine's consumers read instead of the Fraction rows.  Its
    face data (hull equalities and facets) is part of its one cached
    combinatorial record, _incidence.
    """

    dim: int
    ineqs: tuple[tuple[Vec, Fraction], ...] = ()
    eqs: tuple[tuple[Vec, Fraction], ...] = ()

    def __post_init__(self):
        _check_dim(self.dim)

        def parsed(rows, kind: str):
            for raw_normal, raw_rhs in rows:
                normal, rhs = vec(raw_normal), frac(raw_rhs)
                if len(normal) != self.dim:
                    raise ValueError(f"{kind} normal has wrong length")
                if kind == "equality" and not any(normal):
                    raise ValueError("equality with zero normal")
                yield normal, rhs

        # Each row is checked as _hpolytope reaches it, so errors come in row order.
        record = _hpolytope(self.dim, parsed(self.ineqs, "inequality"),
                            parsed(self.eqs, "equality"))
        for name in ("ineqs", "eqs", "_hash", "_coprime"):
            object.__setattr__(self, name, getattr(record, name))

    def __hash__(self) -> int:
        return self._hash

    def to_json_dict(self) -> dict:
        def rows(pairs):
            return [{"a": [frac_str(c) for c in a], "b": frac_str(b)} for a, b in pairs]

        return {"dim": self.dim, "ineqs": rows(self.ineqs), "eqs": rows(self.eqs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HPolytope":
        ineqs = tuple((row["a"], row["b"]) for row in data.get("ineqs", ()))
        eqs = tuple((row["a"], row["b"]) for row in data.get("eqs", ()))
        return cls(data["dim"], ineqs, eqs)


def _joint_primitive(normal: Sequence, rhs) -> tuple[tuple[int, ...], int]:
    """Scale (normal, rhs) by a positive rational to coprime integers.

    Called only where a row is born: on a record's rows in _hpolytope, on a
    row moved onto a hull (_onto_hull), on a chart's pulled-back rows
    (restrict_to_affine_hull) and on the facet catalogue's rows
    (toric._catalogue).  Every other consumer reads P._coprime.
    """
    combined = primitive_vector((*normal, rhs))
    return combined[:-1], combined[-1]


def _hpolytope(dim: int, ineqs: Iterable, eqs: Iterable = ()) -> HPolytope:
    """HPolytope(dim, ineqs, eqs), from rows already checked: the engine's
    own, or the constructor's once it has parsed them.

    Each row is (normal, rhs), the normal a tuple of dim ints or Fractions
    and rhs an int or a Fraction.  This is the one dedup rule of the
    record: the first row of each normal stays in place with the tighter
    rhs, a repeated equality goes, and a zero normal is kept only with
    rhs < 0.  Each kept row's _joint_primitive form is made once here, and
    _hrecord assembles the record from the kept rows and those forms.
    """
    tightest: dict = {}
    for normal, rhs in ineqs:
        if rhs >= 0 and not any(normal):
            raise ValueError("inequality with zero normal (and no infeasibility)")
        if normal not in tightest or rhs < tightest[normal]:
            tightest[normal] = rhs
    rows = tuple(tightest.items())
    eqs = tuple(dict.fromkeys(eqs))
    return _hrecord(dim, rows, eqs, tuple([_joint_primitive(a, b) for a, b in rows + eqs]))


def _hrecord(dim: int, rows: tuple, eqs: tuple, coprime: tuple) -> HPolytope:
    """The HPolytope record of rows and eqs, (normal, rhs) rows that the
    dedup rule already keeps, with coprime their _joint_primitive forms
    (the rows, then the eqs).  The one hash and conversion rule of the
    record: from the rows in hand, which hash as their Fractions do, the
    hash that every cache lookup reads is taken once; then every entry
    becomes a Fraction by _fractions and the record is _assembled, with no
    second vec/frac pass.  _hpolytope hands it the rows it keeps;
    remove_redundant hands it P's own rows and their coprime forms, so
    nothing is derived twice.
    """
    def converted(pairs):
        return tuple([(row[:-1], row[-1]) for row in (_fractions((*a, b)) for a, b in pairs)])

    return _assembled(HPolytope, dim=dim, ineqs=converted(rows), eqs=converted(eqs),
                      _hash=hash((dim, rows, eqs)), _coprime=coprime)


@_record
class VPolytope:
    """Convex hull of finitely many points, stored in sorted order.

    Producers in this module only store extreme points; use from_points to
    convexify an arbitrary point set.
    """

    dim: int
    vertices: tuple[Vec, ...] = ()

    def __post_init__(self):
        _check_dim(self.dim)
        verts = sorted(dict.fromkeys(vec(v) for v in self.vertices))
        for v in verts:
            if len(v) != self.dim:
                raise ValueError("vertex has wrong length")
        object.__setattr__(self, "vertices", tuple(verts))

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Sequence]) -> "VPolytope":
        """Convex hull of the points, keeping extreme points only."""
        return h_to_v(v_to_h(cls(dim, tuple(points))))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[frac_str(c) for c in v] for v in self.vertices],
        }


@_record
class AffineMap:
    """x -> matrix @ x + offset, exact over the rationals."""

    domain_dim: int
    codomain_dim: int
    matrix: tuple[Vec, ...]
    offset: Vec

    def __post_init__(self):
        _check_dim(self.domain_dim)
        _check_dim(self.codomain_dim)
        matrix = tuple(vec(row) for row in self.matrix)
        offset = vec(self.offset)
        if len(matrix) != self.codomain_dim or len(offset) != self.codomain_dim:
            raise ValueError("matrix/offset rows must match the codomain dimension")
        for row in matrix:
            if len(row) != self.domain_dim:
                raise ValueError("matrix columns must match the domain dimension")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)

    def apply(self, point: Sequence) -> Vec:
        x = vec(point)
        if len(x) != self.domain_dim:
            raise ValueError("point has wrong dimension")
        return tuple(dot(row, x) + c for row, c in zip(self.matrix, self.offset))

    @property
    def is_injective(self) -> bool:
        return rank(self.matrix) == self.domain_dim

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        rows = tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
        return cls(dim, dim, rows, tuple(Fraction(0) for _ in range(dim)))


def empty_hrep(dim: int) -> HPolytope:
    """Canonical infeasible system: 0 . x <= -1."""
    return _hpolytope(dim, (((0,) * dim, -1),))


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _tight_on(masks: Sequence[int], width: int) -> list[int]:
    """The transposed incidence: for each of width rows, the mask of the
    items whose mask holds that row, read off the items' set bits."""
    tight_on = [0] * width
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            tight_on[low.bit_length() - 1] |= bit
            mask ^= low
    return tight_on


def _is_edge(common: int, tight_on: Sequence[int], pair: int, face: int) -> bool:
    """Whether pair, a mask of two items (vertices or extreme rays), is all
    of face left tight on every row of common, tight_on[k] the mask of items
    tight on row k.

    The combinatorial edge test: two items span an edge iff no third one is
    tight on every row both are tight on.  Callers pass face = all items and
    skip first, inline, the pairs with too few common rows for an edge.
    """
    while common and face != pair:
        low = common & -common
        face &= tight_on[low.bit_length() - 1]
        common ^= low
    return face == pair


def _dd_extreme_rays(rows: list[tuple[int, ...]], dim: int,
                     eqs: Sequence[tuple[int, ...]] = ()) -> tuple[list, list[int], list]:
    """Extreme rays of the cone {y : row . y >= 0 for every row, eq . y = 0
    for every eq}, with the rows each one is tight on, and the lines left.

    Incremental double description (Fukuda & Prodon, "Double description
    method revisited", 1996), in integers.  The cone starts as the lines
    e_1..e_dim.  A first pass takes each eq, then each row, that is nonzero
    on some line: the first such line is the pivot, and every other line
    and ray v is shifted along it onto the hyperplane, as
    a*v - (row.v)*pivot with a = row.pivot, made primitive.  An eq drops the
    pivot, so the pass runs in the eqs' solutions; a row keeps it as a ray
    on its positive side, tight on the rows taken before it.  The lines left
    span the lineality space; the rays, one per row taken, a pointed
    section.  The rows left follow in input order.  Each ray carries its
    zero set, the processed rows it is tight on, as an int bitmask: a kept
    ray gains the new row's bit when it lies on that row, and the ray
    combined from p and q, (p.row) q - (q.row) p over its gcd, is tight
    exactly on (zero set of p & zero set of q) plus the new row.  p and q
    are adjacent by _is_edge over the rays tight on each row; they share at
    least R - 2 tight rows, R the number of rows taken.

    In the later rows each ray keeps one slot of rays and zsets while it
    lives: live lists the live slots in output order (kept rays, then fresh
    ones in discovery order), their mask alive is the face every _is_edge
    test starts from, and tight_on[k], the mask of the slots tight on row k,
    is updated in place.  Dead slots stay in tight_on and never enter a
    face.  Once fewer than half the slots live, they are renumbered 0..n-1
    and tight_on is rebuilt, so the masks stay within twice the rays alive.
    Returns (rays, zero sets, the lines left).
    """
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    zsets: list[int] = []
    taken = 0
    later = []
    for idx, row in [(None, eq) for eq in eqs] + list(enumerate(rows)):
        vals = [_idot(row, z) for z in lines]
        at = next((k for k, v in enumerate(vals) if v), None)
        if at is None:
            if idx is not None:
                later.append(idx)
            continue
        a, pivot = vals.pop(at), lines.pop(at)
        if a < 0:
            a, pivot = -a, tuple(-c for c in pivot)
        lines = [primitive_vector(tuple(a * c - v * p for c, p in zip(z, pivot))) if v else z
                 for z, v in zip(lines, vals)]
        if idx is None:  # an eq keeps no ray
            continue
        rays = [primitive_vector(tuple(a * c - v * p for c, p in zip(r, pivot))) if v else r
                for r, v in zip(rays, [_idot(row, r) for r in rays])] + [pivot]
        zsets = [z | 1 << idx for z in zsets] + [taken]
        taken |= 1 << idx
    need = taken.bit_count() - 2
    live = list(range(len(rays)))
    alive = (1 << len(rays)) - 1
    tight_on = _tight_on(zsets, len(rows))
    for idx in later:
        row = rows[idx]
        bit = 1 << idx
        vals = [sum(map(mul, row, rays[s])) for s in live]
        # No zero set read below holds the new row, so the kept rays on it
        # gain its bit first.
        for s, v in zip(live, vals):
            if not v:
                zsets[s] |= bit
                tight_on[idx] |= 1 << s
        negative = [(1 << s, vq, zsets[s], rays[s]) for s, vq in zip(live, vals) if vq < 0]
        if negative:
            fresh = []
            for s, vp in zip(live, vals):
                if vp <= 0:
                    continue
                zp, p, pbit = zsets[s], rays[s], 1 << s
                for qbit, vq, zq, q in negative:
                    common = zp & zq
                    if common.bit_count() < need or not _is_edge(
                            common, tight_on, pbit | qbit, alive):
                        continue
                    combo = [vp * qc - vq * pc for pc, qc in zip(p, q)]
                    g = gcd(*combo)
                    slot = len(rays)
                    rays.append(tuple(combo) if g == 1 else tuple([c // g for c in combo]))
                    zsets.append(common | bit)
                    fresh.append(slot)
                    # The fresh slot is not in alive, so no face of this row sees it.
                    sbit = 1 << slot
                    tight_on[idx] |= sbit
                    while common:
                        low = common & -common
                        tight_on[low.bit_length() - 1] |= sbit
                        common ^= low
            alive ^= sum([qbit for qbit, _, _, _ in negative])
            alive |= sum([1 << slot for slot in fresh])
            live = [s for s, v in zip(live, vals) if v >= 0] + fresh
        if 2 * len(live) < len(rays):
            rays, zsets = [rays[s] for s in live], [zsets[s] for s in live]
            live = list(range(len(rays)))
            alive = (1 << len(rays)) - 1
            tight_on = _tight_on(zsets, len(rows))
    return [rays[s] for s in live], [zsets[s] for s in live], lines


@functools.lru_cache(maxsize=512)
def h_to_v(P: HPolytope) -> VPolytope:
    """Vertex enumeration of a bounded H-polytope, read off _incidence(P).

    Raises UnboundedPolytopeError when the feasible set is nonempty and has a
    recession direction.  Returns the empty VPolytope exactly when P is empty.
    _incidence's vertices are sorted and distinct, so their Fraction tuples
    (_vertex_fractions) are assembled as the constructor would store them.
    """
    return _assembled(VPolytope, dim=P.dim, vertices=_vertex_fractions(*_incidence(P)[2]))


def _pull_back(rows: Iterable, matrix: Sequence[Sequence], offset: Sequence):
    """The rows (a M, b - a . c) of {y : a . (M y + c) <= b}, M = matrix, c = offset.

    Each row of rows is (terms, b), terms the (index, a_j) pairs of a; matrix
    has one row per index.  Rows that become constant are dropped; None when
    one of them fails.
    """
    width = len(matrix[0]) if matrix else 0
    out = []
    for terms, rhs in rows:
        coeffs = [0] * width
        for j, a in terms:
            if a:
                rhs -= a * offset[j]
                for i, c in enumerate(matrix[j]):
                    if c:
                        coeffs[i] += a * c
        if any(coeffs):
            out.append((tuple(coeffs), rhs))
        elif rhs < 0:
            return None
    return out


def _affine_hull(rows: Sequence, dim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The canonical equalities, sorted coprime (normal, rhs) rows with a
    positive leading coefficient, of the nonempty affine subspace of Q^dim
    cut out by rows, consistent equalities (normal, rhs), maybe dependent.
    One Gauss-Jordan pass over the rows (normal, -rhs), columns reversed:
    pivoting from the last column gives the basis with the identity on the
    columns that the nullspace of the points' rows (x, 1) leaves free, so
    the result depends only on the rows' span.
    """
    eqs = []
    for z in _gauss_jordan([(-rhs, *normal[::-1]) for normal, rhs in rows], dim + 1)[0]:
        # Consistent rows leave z a nonzero normal, so its lead sign is there.
        prim = primitive_vector(z[::-1])
        if next(c for c in prim if c) < 0:
            prim = tuple(-c for c in prim)
        eqs.append((prim[:-1], -prim[-1]))
    return tuple(sorted(eqs))


def _onto_hull(eqs: Sequence, normal: Sequence, rhs) -> tuple[tuple[int, ...], int]:
    """The row normal . x <= rhs on the affine hull cut out by eqs, with its
    normal in the hull's direction space, as _joint_primitive's coprime row.

    Subtracts the normal's component along the equality normals e_i, sum
    l_i e_i with the Gram system (e_i . e_j) l = (e_i . normal), and moves
    rhs by the same combination of the equality rhs, so the row takes the
    same values on the hull.  With no equalities l is () and the row is
    only made coprime.
    """
    normals = [e for e, _ in eqs]
    _, lam = solve_linear([[dot(e, g) for g in normals] for e in normals],
                          [dot(e, normal) for e in normals])
    projected = [c - dot(lam, [e[k] for e in normals]) for k, c in enumerate(normal)]
    return _joint_primitive(projected, rhs - dot(lam, [f for _, f in eqs]))


@functools.lru_cache(maxsize=512)
def v_to_h(V: VPolytope) -> HPolytope:
    """Irredundant facet system plus affine-hull equalities of conv(V).

    Facets are the extreme rays (z0, c), each the row -c . x <= z0, of the
    cone {(z0, c) : z0 + c . v >= 0 for every vertex v}, by one double
    description pass in ambient coordinates on the rows (1, v) made
    primitive; each line (z0, c) the pass leaves is an equality c . x = -z0
    of the hull, and _affine_hull makes them canonical.
    Each row is moved onto the hull by _onto_hull, so the output is
    canonically ordered and scaled (coprime integer rows with normals in the
    hull's direction space).
    """
    d = V.dim
    verts = V.vertices
    if not verts:
        return empty_hrep(d)
    rays, _, lines = _dd_extreme_rays([primitive_vector((1, *v)) for v in verts], d + 1)
    eqs = _affine_hull([(z[1:], -z[0]) for z in lines], d)
    if len(eqs) == d:  # a single vertex: its one ray would project to zero
        return _hpolytope(d, (), eqs)
    facets = sorted(_onto_hull(eqs, [-c for c in z[1:]], z[0]) for z in rays)
    return _hpolytope(d, facets, eqs)


@functools.lru_cache(maxsize=512)
def _incidence(P: HPolytope):
    """The combinatorial record of P, bounded, from one double description
    pass: its vertices, in integers, which rows of P.ineqs are tight at
    which of them, as int bitmasks, and its face data.

    Returns (rows tight at each vertex, vertices tight on each row,
    (scale, ints), faces), the vertices sorted as VPolytope sorts them, where
    scale is their least common denominator and ints[i] = scale * vertex i,
    in integers.  The record holds no Fraction: only the two consumers that
    read vertices, h_to_v and _vertex_graph, build them
    (_vertex_fractions); the Ehrhart fit takes the scale as its period (1
    when P is empty).  The DD gets the rows (b, -a) of the cone over P in
    input order, each (a, b) the record's coprime row (P._coprime): row i
    from P.ineqs[i], then t >= 0; scaled duplicates stay, each its own row.
    The equalities' coprime rows cut the DD's lines first.  So the DD's
    zero sets are the incidence, cut to the bits of P.ineqs.  Raises
    UnboundedPolytopeError as h_to_v does.  Lines the normals miss leave
    every ray at t = 0 when P is empty, and make a nonempty P unbounded.
    With fewer coprime rows than P.dim the normals always miss one, so the
    DD only has to decide emptiness: it runs on the same rows over the
    normals' Gram matrix M M^T, in len(rows) + 1 coordinates (some x meets
    the rows exactly when some x = M^T y does), and a point found there
    raises, so its rays are never read as vertices.

    faces is None when P is empty, else (eqs, facets); dimension, edges,
    redundancy removal, the fingerprint and the duality counts all read
    this one record.  eqs is _affine_hull of the explicit equalities of P
    and its implicit ones, the rows tight at every vertex (Schrijver, Theory
    of Linear and Integer Programming, section 8.2), handed over as the
    record's integer rows (P._coprime): the hull depends only on their
    span.  facets holds (row index, vertex mask) per facet: in any dimension
    each facet is the face of some row tight at some but not all vertices,
    and each such row's face lies in a facet (ibid.), so the facets are the
    inclusion-maximal masks among those rows, each with its first row in
    input order.
    """
    rows, dim = P._coprime, P.dim
    if len(rows) < dim:  # P is empty or holds a line: decide which with x = M^T y
        rows, dim = [(tuple([_idot(a, e) for e, _ in rows]), b) for a, b in rows], len(rows)
    cone = [(b, *[-c for c in a]) for a, b in rows]
    rays, zsets, lines = _dd_extreme_rays(cone[:len(P.ineqs)] + [(1,) + (0,) * dim],
                                          dim + 1, cone[len(P.ineqs):])
    if any(ray[0] < 0 for ray in rays):
        raise AssertionError("homogenization row t >= 0 violated")
    found = [(ray, zset) for ray, zset in zip(rays, zsets) if ray[0]]
    if found and (lines or dim < P.dim):
        raise UnboundedPolytopeError(
            "polytope is unbounded (recession line); bounded input required")
    if found and len(found) < len(rays):
        raise UnboundedPolytopeError(
            "polytope is unbounded (recession ray); bounded input required")
    scale = lcm(1, *(ray[0] for ray, _ in found))
    ints = [tuple(c * (scale // ray[0]) for c in ray[1:]) for ray, _ in found]
    order = sorted(range(len(found)), key=ints.__getitem__)  # sort by vertex
    of_ineqs = (1 << len(P.ineqs)) - 1
    vert_masks = [found[i][1] & of_ineqs for i in order]
    row_masks = _tight_on(vert_masks, len(P.ineqs))
    if not found:
        return vert_masks, row_masks, (scale, ints), None
    everyone = (1 << len(vert_masks)) - 1
    eqs = _affine_hull(P._coprime[len(P.ineqs):] + tuple(
        row for row, mask in zip(P._coprime, row_masks) if mask == everyone), P.dim)
    distinct = set(row_masks) - {0, everyone}
    maximal = {m for m in distinct
               if not any(o != m and o & m == m for o in distinct)}
    facets = []
    for i, mask in enumerate(row_masks):
        if mask in maximal:
            maximal.discard(mask)
            facets.append((i, mask))
    return vert_masks, row_masks, (scale, [ints[i] for i in order]), (eqs, tuple(facets))


def _vertex_fractions(scale: int, ints: Sequence[tuple[int, ...]]) -> tuple[Vec, ...]:
    """The vertices ints / scale of an _incidence record as Fraction tuples;
    at scale 1 from _fractions' shared table."""
    if scale == 1:
        return tuple(map(_fractions, ints))
    return tuple(tuple([Fraction(c, scale) for c in v]) for v in ints)


@functools.lru_cache(maxsize=512)
def remove_redundant(P: HPolytope) -> HPolytope:
    """Minimal subsystem defining the same set, cached per polytope.

    Retains original inequality objects (first match per facet) so an
    already-irredundant system passes through unchanged; equalities come out
    in canonical affine-hull form.  Idempotent.  An empty polytope yields the
    canonical infeasibility certificate.

    One rule in every dimension, read off P's one record (_incidence): its
    row masks and face data, with no second double description pass.  Each
    facet keeps its first input row whose normal lies in the direction space
    of the affine hull (its coprime normal orthogonal to every hull
    equality), which is every row when P is full-dimensional.  Within that
    space a facet's normal is unique up to a positive factor, so a facet
    with no such row gets the canonical row v_to_h would give it: its first
    row's coprime form moved onto the hull by _onto_hull; these rows are
    appended in sorted order.  Two facets never share a normal direction, so
    the rows are distinct, and _hrecord assembles the record from P's
    retained rows with their coprime forms, the canonical rows and the hull
    equalities, which are coprime already: nothing is deduped or made
    coprime again.
    """
    _, row_masks, _, faces = _incidence(P)
    if faces is None:
        return empty_hrep(P.dim)
    eqs, facets = faces
    unmatched = {mask: i for i, mask in facets}
    retained, coprime = [], []
    for row, prim, mask in zip(P.ineqs, P._coprime, row_masks):
        if mask in unmatched and all(_idot(prim[0], e) == 0 for e, _ in eqs):
            del unmatched[mask]
            retained.append(row)
            coprime.append(prim)
    # empty when P is full-dimensional
    canonical = sorted(_onto_hull(eqs, *P._coprime[i]) for i in unmatched.values())
    return _hrecord(P.dim, tuple(retained + canonical), eqs, (*coprime, *canonical, *eqs))


def contains(P: HPolytope, point: Sequence) -> bool:
    x = vec(point)
    if len(x) != P.dim:
        raise ValueError("point has wrong dimension")
    for a, b in P.ineqs:
        if dot(a, x) > b:
            return False
    for e, f in P.eqs:
        if dot(e, x) != f:
            return False
    return True


def polytope_dim(P: HPolytope) -> int:
    """Dimension of the affine hull: P.dim less the hull equalities of P's
    face data (_incidence); -1 for the empty polytope."""
    faces = _incidence(P)[3]
    return -1 if faces is None else P.dim - len(faces[0])


# How a state's range of x_j reaches the next frontier (_frontier).
_TIMES, _EACH, _DIFF = range(3)


@functools.lru_cache(maxsize=512)
def _scan_setup(P: HPolytope):
    """Everything in the integer scan of P that no dilate changes.

    None when the box's propagation proves P empty, else (by_reads,
    by_prefix, box, scale).  A P with no rational point may still get a
    setup; its scans then count 0.  The scan runs in P's own coordinates:
    each explicit equality e.x = f is the row pair e.x <= f, -e.x <= -f, so
    at its trailing coordinate the floor and ceiling of _narrow pin that
    coordinate exactly, and a dilate at which it takes no integer value
    keeps no state.  box[j] is the (min, max) of coordinate j over a box
    holding P, times scale, their common denominator, in integers:
    _interval_box's over P's rows, with no double description; only
    when that leaves some coordinate unbounded is the box the vertices'
    (_incidence), which raises UnboundedPolytopeError on an unbounded P.  The
    box stays exact: _frontier rounds it once the dilate has scaled it.

    by_reads and by_prefix give, for each level j, (rows, kind, pick) under
    two keyings of the scan's states.  rows holds (c, b, terms) for each row
    c*x_j + sum(a*x_k for k, a in terms) <= b whose trailing nonzero
    coordinate is j, P's coprime row (its _coprime) or an equality's negated
    one, with k re-indexed to its position in the state.  by_prefix keys a
    state on its whole prefix x[:j]; by_reads on x[reads_j], reads_j the
    coordinates before j that some row at level j or later reads, which are
    all its completions depend on.  kind is _TIMES when reads_(j+1) drops
    x_j, _EACH when it keeps x_j and every coordinate of reads_j, else
    _DIFF; pick holds the positions in the state of the coordinates of
    reads_j that reads_(j+1) keeps.  Under by_prefix every level is _EACH.
    """
    negated = tuple((tuple(-c for c in e), -f) for e, f in P._coprime[len(P.ineqs):])
    rows = [(tuple((k, c) for k, c in enumerate(a) if c), b) for a, b in P._coprime + negated]
    found = _interval_box(rows, P.dim)
    if found == "empty":
        return None
    if found == "unbounded":
        scale, scaled = _incidence(P)[2]
        if not scaled:
            return None
        box = [(min(col), max(col)) for col in zip(*scaled)]
    else:
        box, scale = found
    rows_at: list[list] = [[] for _ in range(P.dim)]
    for terms, rhs in rows:
        # terms is nonempty: a zero normal only comes with rhs < 0, "empty" above
        *before, (j, c) = terms
        rows_at[j].append((c, rhs, tuple(before)))
    reads: list[tuple[int, ...]] = [()] * (P.dim + 1)
    seen: set[int] = set()
    for j in range(P.dim - 1, -1, -1):
        seen.update(k for _, _, terms in rows_at[j] for k, _ in terms)
        reads[j] = tuple(sorted(k for k in seen if k < j))
    by_reads = []
    for j, level in enumerate(rows_at):
        at = {k: i for i, k in enumerate(reads[j])}
        pick = tuple(at[k] for k in reads[j + 1] if k != j)
        kind = (_TIMES if len(pick) == len(reads[j + 1]) else
                _EACH if len(pick) == len(reads[j]) else _DIFF)
        by_reads.append(([(c, rhs, tuple((at[k], a) for k, a in terms))
                          for c, rhs, terms in level], kind, pick))
    by_prefix = [(level, _EACH, ()) for level in rows_at]
    return by_reads, by_prefix, box, scale


def _narrow(rows: list, x: Sequence[int], lo_j: int, hi_j: int) -> tuple[int, int]:
    """Range of x_j allowed by the rows at level j, given the state x; empty if lo > hi."""
    for c, rhs, terms in rows:
        s = rhs
        for k, a in terms:
            s -= a * x[k]
        if c > 0:
            bound = s // c
            if bound < hi_j:
                hi_j = bound
        else:
            bound = -(-s // c)  # the ceiling of s / c
            if bound > lo_j:
                lo_j = bound
        if lo_j > hi_j:
            break
    return lo_j, hi_j


def _frontier(setup: tuple, levels: list, dilate: int) -> dict[tuple[int, ...], int]:
    """The integer points of the dilate of P, level by level, as one dict.

    setup is _scan_setup(P), not None, and levels its by_reads or by_prefix.
    Each level j maps every state to the number of integer prefixes x[:j]
    reaching it, and sends each state's range of x_j on as the level's kind
    says: one entry times the range's length (_TIMES), one entry per x_j
    (_EACH), or a +n, -n pair in the difference array of the state's kept
    coordinates, swept once the level is done (_DIFF), where states merge.
    This is bucket elimination (Dechter 1999) in P's coordinate order.
    Each row's integer rhs is scaled by the dilate when the scan reaches
    its level, and _narrow floors the quotient by the row's coefficient c
    of x_j, which bounds the integer x_j exactly whatever c is; so an
    equality's row pair pins its coordinate, or keeps no state.  A level
    that keeps no state passes none on, so a dilate with no integer point
    gives {}.  The last frontier holds the points themselves, in
    lexicographic order, under by_prefix, and their number under the key ()
    under by_reads.
    """
    _, _, box, scale = setup
    bounds = [(-(-dilate * low // scale), dilate * high // scale) for low, high in box]
    frontier: dict[tuple[int, ...], int] = {(): 1}
    for (rows, kind, pick), (lo, hi) in zip(levels, bounds):
        rows = [(c, dilate * b, terms) for c, b, terms in rows]
        nxt: dict[tuple[int, ...], int] = {}
        diffs: dict[tuple[int, ...], dict[int, int]] = {}
        for state, n in frontier.items():
            lo_j, hi_j = _narrow(rows, state, lo, hi)
            if lo_j > hi_j:
                continue
            if kind == _EACH:
                for xj in range(lo_j, hi_j + 1):
                    nxt[state + (xj,)] = n
                continue
            key = tuple([state[i] for i in pick])
            if kind == _TIMES:
                nxt[key] = nxt.get(key, 0) + n * (hi_j - lo_j + 1)
            else:
                diff = diffs.setdefault(key, {})
                diff[lo_j] = diff.get(lo_j, 0) + n
                diff[hi_j + 1] = diff.get(hi_j + 1, 0) - n
        for key, diff in diffs.items():
            ends = sorted(diff)
            n = 0
            for start, stop in zip(ends, ends[1:]):
                n += diff[start]
                if n:
                    for xj in range(start, stop):
                        nxt[key + (xj,)] = n
        frontier = nxt
    return frontier


def lattice_points(P: HPolytope, dilate: int = 1) -> list[tuple[int, ...]]:
    """All integer x with x/dilate in P, in lexicographic order.

    The keys of _frontier's last frontier, with every state keyed on its
    whole prefix, narrowing each coordinate's range with the rows whose
    trailing nonzero coordinate it is; an equality's row pair pins the
    coordinate it ends on (_scan_setup).
    """
    _require_int(dilate, "dilate")
    setup = _scan_setup(P)
    if setup is None:
        return []
    return list(_frontier(setup, setup[1], dilate))


@functools.lru_cache(maxsize=512, typed=True)
def count_lattice_points(P: HPolytope, dilate: int = 1) -> int:
    """len(lattice_points(P, dilate)), without listing the points.

    The same frontier scan as lattice_points, with each state keyed on the
    coordinates before j that rows at level j or later read (_scan_setup):
    the completions of a prefix depend on nothing else, so prefixes that
    agree there merge into one state with their number.  For interlacing
    rows these reads are about one pattern row, so the work grows with the
    number of such frontier states, not with the number of points.  A row
    sum's row pair reads its whole pattern row up to the entry it ends on,
    which it pins: one more level per row sum than a chart would scan.
    Each count is cached per (P, dilate), so count_dilates and
    verify_ehrhart_identity on one chart share one scan per dilate.  The
    cache is typed: 2.0 and True hash as 2 and 1 do, but key their own
    entries, so such a call misses and _require_int rejects it.
    """
    _require_int(dilate, "dilate")
    setup = _scan_setup(P)
    return 0 if setup is None else sum(_frontier(setup, setup[0], dilate).values())


@functools.lru_cache(maxsize=512)
def _vertex_graph(P: HPolytope):
    """Vertices of P plus the edges between them: (verts, neighbors), where
    neighbors[i] maps each neighbour j of verts[i] to the primitive integer
    direction from verts[i] to verts[j].

    Read off the tight-row incidence (_incidence): the smallest face holding
    vertices u and v is cut out by the rows tight at both, and u, v span an
    edge iff no third vertex is tight on all of those rows: _is_edge, the
    test the DD uses for adjacent rays.  This agrees with the rank test
    (those rows with the equalities have rank dim - 1) whether or not the
    system is irredundant or full-dimensional, or carries implicit
    equalities, and needs no elimination.  A pair with fewer than
    dim - 1 - len(eqs) common tight rows cannot reach that rank and is skipped.
    With the vertices scaled to integers by their common denominator, the
    direction of an edge is ints_j - ints_i divided by its gcd, in ints.
    Each distinct direction is one tuple for the whole graph, held with its
    negation, so equal rays at different vertices are one object.
    """
    vert_masks, row_masks, (scale, ints), _ = _incidence(P)
    verts = _vertex_fractions(scale, ints)
    need = P.dim - 1 - len(P.eqs)
    everyone = (1 << len(verts)) - 1
    neighbors: list[dict[int, tuple[int, ...]]] = [{} for _ in verts]
    opposite: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for i, mask in enumerate(vert_masks):
        for j in range(i + 1, len(verts)):
            common = mask & vert_masks[j]
            if common.bit_count() < need:
                continue
            if _is_edge(common, row_masks, (1 << i) | (1 << j), everyone):
                direction = tuple(map(sub, ints[j], ints[i]))
                g = gcd(*direction)
                if g != 1:
                    direction = tuple(x // g for x in direction)
                pair = opposite.get(direction)
                if pair is None:
                    back = tuple(-c for c in direction)
                    pair = opposite[direction] = (direction, back)
                    opposite[back] = (back, direction)
                neighbors[i][j], neighbors[j][i] = pair
    return verts, neighbors


def edges_at_vertex(P: HPolytope, vertex: Sequence) -> tuple[tuple[int, ...], ...]:
    """Primitive edge directions leaving the given vertex, sorted."""
    v = vec(vertex)
    verts, neighbors = _vertex_graph(P)
    try:
        idx = verts.index(v)
    except ValueError:
        raise ValueError(f"{tuple(map(str, v))} is not a vertex of this polytope") from None
    return tuple(sorted(neighbors[idx].values()))


def affine_image(P: HPolytope | VPolytope, f: AffineMap) -> HPolytope | VPolytope:
    """Image polytope under an exact affine map.

    V input maps vertices and re-extremizes.  H input requires an injective
    map; a square map pulls the system back through x = M^-1 y - M^-1 c
    (_pull_back), otherwise the image is rebuilt from vertices (equalities
    then carry the affine hull).  An injective affine map sends vertices onto
    vertices, so those images need no convexifying.
    """
    if P.dim != f.domain_dim:
        raise ValueError("map domain does not match the polytope dimension")
    if isinstance(P, VPolytope):
        return VPolytope.from_points(f.codomain_dim, [f.apply(v) for v in P.vertices])
    not_injective = "H-representation image needs an injective affine map"
    if f.domain_dim == f.codomain_dim:
        try:
            minv = mat_inverse(f.matrix)
        except ValueError:  # singular
            raise ValueError(not_injective) from None
        offset = [-dot(row, f.offset) for row in minv]
        ineqs, eqs = (_pull_back(((enumerate(a), b) for a, b in rows), minv, offset)
                      for rows in (P.ineqs, P.eqs))
        # Only the certificate row becomes constant: minv has full rank.
        return empty_hrep(f.codomain_dim) if ineqs is None else _hpolytope(
            f.codomain_dim, ineqs, eqs)
    if not f.is_injective:
        raise ValueError(not_injective)
    return v_to_h(VPolytope(f.codomain_dim, tuple(f.apply(v) for v in h_to_v(P).vertices)))


def restrict_to_affine_hull(P: HPolytope) -> tuple[HPolytope, AffineMap]:
    """Chart P into the solution lattice of its explicit equalities.

    Returns (chart polytope without equalities, affine embedding back into
    ambient space).  Both come from one Hermite form (integer_solutions): the
    chart basis is an integer kernel-lattice basis and the offset is x0 / t0,
    whose denominator t0 is the least dilate whose equalities have an integer
    solution.  So the offset is integral whenever the equality system has an
    integer solution, and lattice structure is preserved in that case; the
    chart of t*P is t times the chart, with offset t * x0 / t0.  Implicit
    equalities are not detected; canonicalize with remove_redundant first.
    The Hermite form takes the equalities' coprime rows (P._coprime), and the
    chart pulls back the inequalities' coprime rows, each made coprime again
    once pulled back, since the chart's dedup is on exact normals.  No count
    charts: the lattice scan takes each equality as a row pair in P's own
    coordinates (_scan_setup).
    """
    if not P.eqs:
        return P, AffineMap.identity(P.dim)
    d = P.dim
    n = len(P.ineqs)
    eq_rows, eq_rhs = zip(*P._coprime[n:])
    t0, x0_int, kernel = integer_solutions(eq_rows, eq_rhs, d)
    if not t0:
        raise ValueError("equality system is infeasible")
    x0 = tuple(Fraction(c, t0) for c in x0_int)
    k = len(kernel)
    matrix = tuple(tuple(kv[i] for kv in kernel) for i in range(d))
    embed = AffineMap(k, d, matrix, x0)
    pulled = _pull_back(((enumerate(a), b) for a, b in P._coprime[:n]), matrix, x0)
    if pulled is None:
        return empty_hrep(k), embed
    return _hpolytope(k, [_joint_primitive(a, b) for a, b in pulled]), embed


class _CanonicalSearch:
    """State of one canonical_incidence call: the incidence, the leaves and
    automorphisms found so far, and the depth the search is unwinding to."""

    def __init__(self, names: list[str], rights: list[frozenset[int]]):
        self.names = names  # repr of each left item's label
        self.rights = [tuple(s) for s in rights]
        holders: list[list[int]] = [[] for _ in names]
        for r, s in enumerate(self.rights):
            for i in s:
                holders[i].append(r)
        # Each right set's colors, and each item's holders' ranks, read by one getter.
        self.right_colors = [_tuple_of(itemgetter, s) for s in self.rights]
        self.held_ranks = [_tuple_of(itemgetter, held) for held in holders]
        self.digits = [str(i) for i in range(len(names))]
        # encoding -> the order and the individualization path of its first leaf
        self.leaves: dict[str, tuple[list[int], tuple[int, ...]]] = {}
        self.automorphisms: list[tuple[int, ...]] = []
        self.jump: int | None = None  # set by leaf: the depth to unwind to

    def refine(self, colors: list[int]) -> list[int]:
        """Color refinement: an item's key is its color and the sorted colors of
        the right sets holding it; colors are the keys' ranks, until stable.

        Every coloring passed in is dense (colors 0..k-1): the root colors are
        label ranks, and a child gives one member of a cell of size >= 2 the
        color max + 1.  So a round whose keys are as many as the color classes
        splits nothing and returns its input, and a discrete coloring returns
        at once.  Each right set's sorted colors are replaced by their rank
        among the distinct ones; ranking is monotone, so the keys compare, and
        the colors come out, as with the sorted colors themselves.

        A round whose right sets have no more distinct keys than the round
        before returns its input before it builds any item key.  Each round's
        coloring refines the one before, and so does its partition of the
        right sets by key: an equal count is an equal partition.  Each color
        class was made by one multiset of the classes of the right sets
        holding its items; with the partition unchanged, so are those
        multisets, and the round would split nothing.
        """
        classes = max(colors, default=-1) + 1
        right_classes = -1
        while classes < len(colors):
            right_keys = [tuple(sorted(get(colors))) for get in self.right_colors]
            key_rank = {key: pos for pos, key in enumerate(sorted(set(right_keys)))}
            if len(key_rank) == right_classes:
                break
            right_classes = len(key_rank)
            right_ranks = [key_rank[key] for key in right_keys]
            keys = [(c, tuple(sorted(get(right_ranks))))
                    for c, get in zip(colors, self.held_ranks)]
            distinct = set(keys)
            if len(distinct) == classes:
                break
            ranking = {key: pos for pos, key in enumerate(sorted(distinct))}
            colors = [ranking[k] for k in keys]
            classes = len(ranking)
        return colors

    def leaf(self, colors: list[int], fixed: tuple[int, ...]) -> str:
        """Encode a discrete coloring (colors are then the positions 0..n-1, so
        the order is their inverse permutation), and record an automorphism
        when an earlier leaf encoded the same way.

        Equal encodings are proof enough, with no check of g: g maps the
        earlier leaf's item at each position to this leaf's item there; the
        two orders read the same names position by position (names are
        label reprs, literals with no top-level comma), so g keeps labels;
        and they give the same multiset of right sets as position lists, so
        g maps the right sets onto the right sets.

        When g also maps the earlier leaf's individualization path onto this
        leaf's, `fixed`, position by position, it fixes their common prefix,
        the path of their deepest common ancestor A, and maps A's child on
        the earlier path, whose subtree is searched, onto A's child on this
        path: the rest of this child's subtree holds only encodings already
        met, and self.jump is set to A's depth, for search to unwind to."""
        order = [0] * len(colors)
        for i, c in enumerate(colors):
            order[c] = i
        left_part = ",".join([self.names[i] for i in order])
        digits = self.digits
        right_part = "|".join(sorted([
            ",".join([digits[c] for c in sorted(get(colors))])
            for get in self.right_colors]))
        enc = f"L[{left_part}];R[{right_part}]"
        first, path = self.leaves.setdefault(enc, (order, fixed))
        if first != order:
            g = [0] * len(order)
            for i, j in zip(first, order):
                g[i] = j
            self.automorphisms.append(tuple(g))
            if len(path) == len(fixed) and all(g[p] == q for p, q in zip(path, fixed)):
                self.jump = next(k for k, (p, q) in enumerate(zip(path, fixed)) if p != q)
        return enc

    def search(self, colors: list[int], fixed: tuple[int, ...]) -> str:
        """The least leaf encoding below this node; `fixed` holds the items
        individualized on the way down.  A node deeper than a pending jump
        returns the least encoding it has met, one of its own leaves, at once;
        the node the jump targets clears it and goes on with its next child."""
        colors = self.refine(colors)
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        tied = [members for _, members in sorted(cells.items()) if len(members) > 1]
        if not tied:
            return self.leaf(colors, fixed)
        cell = tied[0]
        orbit = {i: i for i in cell}  # a representative of each member's orbit
        seen = 0
        explored: list[int] = []
        best = None
        fresh = max(colors) + 1
        for i in cell:
            # An automorphism fixing `fixed` pointwise maps this node to itself
            # and the subtree of child i onto the subtree of child g[i].
            for g in self.automorphisms[seen:]:
                if all(g[p] == p for p in fixed):
                    for a in cell:
                        ra, rb = orbit[a], orbit[g[a]]
                        if ra != rb:
                            for b in cell:
                                if orbit[b] == rb:
                                    orbit[b] = ra
            seen = len(self.automorphisms)
            if any(orbit[e] == orbit[i] for e in explored):
                continue
            explored.append(i)
            branched = list(colors)
            branched[i] = fresh
            cand = self.search(branched, fixed + (i,))
            if best is None or cand < best:
                best = cand
            if self.jump is not None:
                if self.jump < len(fixed):
                    return best
                self.jump = None
        return best


def canonical_incidence(n_left: int, left_labels: Sequence | None,
                        right_sets: Sequence[Iterable[int]]) -> str:
    """Canonical encoding of a bipartite incidence structure.

    Left items may be permuted (respecting their labels); right items carry no
    identity beyond their left-neighbor sets.  Two structures get equal
    encodings iff they are isomorphic.  The encoding is the least leaf of an
    individualization-refinement search: refine colors, individualize each
    member of the first tied color class in turn, recurse, and encode each
    discrete coloring as the structure relabelled by its order.

    Two leaves that encode alike differ by an automorphism.  Children of a node
    that lie in one orbit of the automorphisms found so far that fix the
    node's individualized items have subtrees with the same leaf encodings,
    so only one of them is searched (orbit pruning, after McKay & Piperno,
    "Practical graph isomorphism, II", 2014).  When such an automorphism maps
    the first leaf of an encoding's path onto the current leaf's path, the
    search backjumps: every node below the two paths' common ancestor
    returns at once, its remaining subtree being the image of a sibling
    subtree already searched.  The result is the least leaf of the full
    search all the same.  Refinement ranks the right sets' sorted colors
    before it sorts the items' keys, and stops at the first round that
    splits no class, or, before building the items' keys, at the first
    round whose right sets split no further; the encoding is the same as
    without any of these steps.

    Raises ValueError when n_left is not an int >= 0 (a bool is not), when
    left_labels does not hold n_left labels, or when a right set holds an
    item that is not an int in range(n_left); one type scan and the least
    and greatest item check the items, and the first bad item, in input
    order, names the error.
    """
    _require_int(n_left, "n_left", 0)
    labels = list(left_labels) if left_labels is not None else [0] * n_left
    if len(labels) != n_left:
        raise ValueError(f"{len(labels)} left labels for {n_left} left items")
    rights = [frozenset(s) for s in right_sets]
    items = frozenset().union(*rights)
    # The type scan reads every member: a union keeps 1 and drops an equal True.
    if not _all_int(chain.from_iterable(rights)) or items and not (
            0 <= min(items) and max(items) < n_left):
        for i in chain.from_iterable(rights):
            if not is_int(i):
                raise ValueError(f"a right set holds {i!r}, not an integer item")
            if not 0 <= i < n_left:
                raise ValueError(f"a right set holds an item outside range({n_left})")
    names = [repr(lab) for lab in labels]
    init = {name: r for r, name in enumerate(sorted(set(names)))}
    return _CanonicalSearch(names, rights).search([init[name] for name in names], ())


@functools.lru_cache(maxsize=512)
def combinatorial_fingerprint(P: HPolytope) -> str:
    """Canonical form of the vertex-facet incidence (atom-coatom) structure.

    Equal fingerprints iff the face lattices are isomorphic: for polytopes the
    vertex-facet incidences determine the whole face lattice.  The
    dimension, the vertices, the facets and their tight vertices are read
    off P's one record (_incidence), with no VPolytope built; each vertex's
    facets, the right sets labelled, come from one pass over the set bits
    of the facet masks.  Cached per polytope, so a fingerprint of a chart
    that verify_duality already labelled runs no second search.
    """
    vert_masks, _, _, faces = _incidence(P)
    if faces is None:
        return "dim=-1;empty"
    n_verts = len(vert_masks)
    facets = faces[1]
    vert_sets: list[list[int]] = [[] for _ in range(n_verts)]
    for j, (_, mask) in enumerate(facets):
        while mask:
            low = mask & -mask
            vert_sets[low.bit_length() - 1].append(j)
            mask ^= low
    enc = canonical_incidence(len(facets), None, vert_sets)
    return f"dim={polytope_dim(P)};facets={len(facets)};vertices={n_verts};{enc}"
