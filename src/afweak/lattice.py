"""Joins and meets in the extended weak order.

A translation-invariant order is encoded exactly as a threshold
relation: for every ordered residue pair the set of shifts at which the
pair is inverted, an eventually-periodic integer set.  Joins close the
union of these relations by a Floyd-Warshall sweep whose loop weights
are handled with Kleene stars, so no unbounded fixpoint iteration is
needed; meets are complement-dual joins.  Relations hold their entries
end to end as runs and rays by their ends, and as IntSets only off that
shape, so unions, complements, sums, stars and the checks take a few
int operations on nearly every entry.
The periodic order model bridges relations and triples both ways: iota
writes the relation of a triple's order, and pi reads the order that a
relation encodes and writes its relation back, which certifies it.
A C-order is a negation-invariant order of Z, so its relation over
residues 0..M-1 is a fixed point of the negation involution sigma.  pi
is the one projection for families A and C: a C join or meet closes the
relations like an A join and pi reads the C order straight off the
closed relation, once it is sigma-fixed.
For B/D only the experimental windowed try_join is offered, plus
exhaustive joins in the finite groups behind the non-sublattice
counterexample.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import inf

from .errors import (InvalidWindow, NotAnOrder, NotBiclosed, SigmaFixednessViolated,
                     TooLarge, TypeMismatch)
from .fan import (BiclosedTriple, FanFace, build_biclosed, classify, origin_face,
                  parahoric, _from_inversions, _ordered_blocks)
from .intset import _EMPTY, IntSet
from .orders import (BlockData, PeriodicOrder, _order_entry, _positions,
                     inversion_set, order_from_triple)
from .perms import from_window
from .roots import AffineType, _Record, _slot_setters

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # the closure layer loads where try_join closes a window
    from . import closure as _closure


# ---------------------------------------------------------------------------
# threshold relations (exact encodings of elements of L_n)


def _eps(a: int, b: int) -> int:
    """Least shift d making (a, b + dM) an ascending pair."""
    return 0 if a < b else 1


def _entry(s: IntSet):
    """The entry form of an IntSet (see ThresholdRelation)."""
    if not s.res:
        if not s.fin:
            return None
        if not s.fin & (s.fin + 1):
            return s.lo, s.lo + s.fin.bit_length() - 1
    elif s.P == 1 and not s.fin:
        return s.T, inf
    return s


def _intset(e) -> IntSet:
    """The IntSet of an entry."""
    if e.__class__ is tuple:
        return IntSet.from_range(e[0], None if e[1] == inf else e[1])
    return e or _EMPTY


def _ends(e) -> tuple[int, int | float, bool]:
    """(least point, largest point or inf, whether it is a run or a ray)
    of a non-empty entry."""
    if e.__class__ is tuple:
        return e[0], e[1], True
    return e.min(), inf if e.res else e.lo + e.fin.bit_length() - 1, False


def _unite(x, y):
    """The union of two entries; intervals that overlap or touch unite."""
    if x is None or y is None:
        return y if x is None else x
    if x.__class__ is tuple and y.__class__ is tuple:
        if x[0] <= y[0] and y[1] <= x[1]:
            return x
        if x[0] <= y[1] + 1 and y[0] <= x[1] + 1:
            return min(x[0], y[0]), max(x[1], y[1])
    return _entry(_intset(x).union(_intset(y)))


# the rays [0, oo) and [1, oo): the complement of an empty entry, and the
# entries of iota across blocks
_RAYS = ((0, inf), (1, inf))


def _complement(e, lo: int):
    """[lo, oo) minus the entry e: a ray and a run from lo swap."""
    if e is None:
        return _RAYS[lo]
    if e.__class__ is tuple:
        if e[1] == inf:
            return (lo, e[0] - 1) if e[0] > lo else None
        if e[0] <= lo:
            return max(lo, e[1] + 1), inf
    return _entry(_intset(e).complement_in(lo))


def _shift(e, c: int):
    """The entry e moved by c."""
    if e.__class__ is tuple:
        return e[0] + c, e[1] + c
    return e and e.shift(c)


class ThresholdRelation(_Record):
    """Translation-invariant inversion data over residues 0..M-1.

    Entry (a, b) holds {d : a > b + dM in the order}, restricted to the
    ascending shifts d >= eps(a, b); the descending half of the full
    relation {d : a comes after b + dM} is forced by totality, so it is
    read off entry (b, a) and not stored.  V holds each entry in one
    canonical form: None when it is empty, (lo, hi) for the run [lo, hi],
    (T, inf) for the ray [T, oo), and an IntSet only for a set of no such
    shape, so == and hash stay structural.  entry(a, b) reads an entry as
    an IntSet; from_sets builds a relation from IntSet rows.
    """

    _fields = ("M", "V")

    def __init__(self, M: int, V: tuple[tuple, ...]):
        self.__dict__.update(M=M, V=V)

    @classmethod
    def from_sets(cls, m: int, rows) -> "ThresholdRelation":
        return cls(m, tuple(tuple(map(_entry, row)) for row in rows))

    def entry(self, a: int, b: int) -> IntSet:
        return _intset(self.V[a][b])

    def succeeds(self, x: int, y: int) -> bool:
        """Whether x comes strictly after y in the encoded order."""
        if x == y:
            raise ValueError("comparing equal integers")
        if x > y:
            return not self.succeeds(y, x)
        a, b = x % self.M, y % self.M
        d = (y - b) // self.M - (x - a) // self.M
        return d in self.entry(a, b)

    def union(self, other: "ThresholdRelation") -> "ThresholdRelation":
        if self.M != other.M:
            raise TypeMismatch("mismatched moduli")
        return ThresholdRelation(self.M, tuple(
            tuple(map(_unite, ra, rb)) for ra, rb in zip(self.V, other.V)))

    def complement(self) -> "ThresholdRelation":
        """Ascending pairs not inverted: the relation of T minus the set."""
        return ThresholdRelation(self.M, tuple(  # eps(a, b) is 1 for b <= a, else 0
            tuple(map(_complement, row, (1,) * (a + 1) + (0,) * (self.M - a - 1)))
            for a, row in enumerate(self.V)))


def _star(e):
    """Kleene star of a diagonal entry: {0} when it is empty, [0, oo) when
    it holds 1; else IntSet.star, which rejects a least point below 1."""
    if e is None or e.__class__ is tuple and e[0] == 1:
        return (0, 0) if e is None else _RAYS[0]
    return _entry(_intset(e).star())


def _add(x, y):
    """Minkowski sum of two non-empty entries: intervals add ends."""
    if x.__class__ is tuple and y.__class__ is tuple:
        return x[0] + y[0], x[1] + y[1]
    return _entry(_intset(x).minkowski(_intset(y)))


def threshold_closure(r: ThresholdRelation) -> ThresholdRelation:
    """Least transitive superset, by Floyd-Warshall with Kleene stars.

    Chains a > b + dM > c + eM compose by Minkowski sums of the shift
    sets, and loop entries are absorbed exactly by their stars.  The sweep
    runs on the relation's entries.  Sums of intervals add their ends
    inline, an empty target takes the sum and an interval target holding
    it stays; other unions and stars that stay intervals are written down,
    and only entries off that shape take the general IntSet operations.
    Transitivity is checked on every call (_check_transitive); degenerate
    inputs surface as NotAnOrder from the validity check downstream.
    """
    m = r.M
    v = [list(row) for row in r.V]
    for k in range(m):
        star = _star(v[k][k])
        for row in v:
            if (ak := row[k]) is not None:
                via = _add(ak, star)
                lo, hi = via if via.__class__ is tuple else (None, None)
                for b, kb in enumerate(v[k]):
                    if kb is None:
                        continue
                    x = (lo + kb[0], hi + kb[1]) if lo is not None and kb.__class__ is tuple \
                        else _add(via, kb)
                    if (t := row[b]) is None:
                        row[b] = x
                    elif not (x.__class__ is t.__class__ is tuple and t[0] <= x[0]
                              and x[1] <= t[1]):
                        row[b] = _unite(t, x)
    out = ThresholdRelation(m, tuple(map(tuple, v)))
    _check_transitive(out)
    return out


def _check_transitive(r: ThresholdRelation) -> None:
    """Raise NotAnOrder at the first (a, b, c) with V[a][b] + V[b][c] not
    inside V[a][c].  A sum's least and largest points are its operands'
    added, so it lies in an interval target [lo, hi] iff they do, and in
    no empty target; only off-shape targets take IntSet operations."""
    v = r.V
    ends = [[(c, _ends(e)) for c, e in enumerate(row) if e is not None] for row in v]
    for a, row in enumerate(v):
        for b, ab in ends[a]:
            for c, bc in ends[b]:
                if (ac := row[c]) is None:
                    ok = False
                elif ac.__class__ is tuple:
                    ok = ab[0] + bc[0] >= ac[0] and ab[1] + bc[1] <= ac[1]
                else:
                    ok = _intset(v[a][b]).minkowski(_intset(v[b][c])).issubset(ac)
                if not ok:
                    raise NotAnOrder(f"closure is not transitive at ({a},{b},{c})")


def check_order(r: ThresholdRelation) -> None:
    """Raise NotAnOrder unless the relation is a (closed) total order.

    Transitivity is assumed from the closure; this checks co-closure:
    no inverted pair may factor through two non-inverted ones.  The
    non-inverted pairs are the complement's entries, and most sums are
    decided from entry ends: a sum with a ray is the ray [x+y, oo) from
    the least points, which meets an entry iff the entry's largest point
    is at least x+y; a sum of runs is a run, which meets a run or a ray
    iff their ends overlap; any sum meets a ray [T, oo) iff its largest
    point is at least T.  Other sums take the general IntSet operations.
    """
    m = r.M
    comp = r.complement()
    left = [[e and _ends(e) for e in row] for row in comp.V]
    right = [[e and _ends(e) for e in row] for row in r.V]
    for a in range(m):
        for b in range(m):
            if not (ab := left[a][b]):
                continue
            for c in range(m):
                if not (bc := left[b][c]) or not (ac := right[a][c]):
                    continue
                lo, hi = ab[0] + bc[0], ab[1] + bc[1]
                if ab[2] and ab[1] == inf or bc[2] and bc[1] == inf:
                    hit = ac[1] >= lo
                elif ab[2] and bc[2] and ac[2]:
                    hit = lo <= ac[1] and ac[0] <= hi
                elif ac[2] and ac[1] == inf:
                    hit = hi >= ac[0]
                else:
                    hit = comp.entry(a, b).minkowski(comp.entry(b, c)).intersects(
                        r.entry(a, c))
                if hit:
                    raise NotAnOrder(f"inversion ({a},{c}) factors through"
                                     f" non-inversions via {b}")
    for a in range(m):
        if r.V[a][a] not in (None, _RAYS[1]):
            raise NotAnOrder(f"diagonal class {a} is partially reversed")


# ---------------------------------------------------------------------------
# iota and pi


def _relation(o: PeriodicOrder) -> ThresholdRelation:
    """The threshold relation of a family-A or family-C periodic order.

    It reads the block positions of ``orders._positions``.  In family C
    the central block places the multiples of M and a block below the
    centre mirrors its negation, so a family-C order yields, over
    residues 0..M-1, the relation of its sigma-fixed family-A order.
    Cells across blocks are None or the ray from eps; in-block cells are
    ``orders._order_entry``, the formula that also writes a triple's
    window cells.
    """
    m = o.type.modulus
    block, place = _positions(o)
    v = [[_RAYS[a >= b] if block[b] < ka else None for b in range(m)]
         for a, ka in enumerate(block)]
    for reps in o.face.relabeling.reps:
        for a in reps:
            row = v[a]
            for b in reps:
                row[b] = _order_entry(a, b, block, place)
    return ThresholdRelation(m, tuple(map(tuple, v)))


def iota(t: BiclosedTriple) -> ThresholdRelation:
    """The threshold relation of a family-A or family-C triple: the
    relation of its canonical periodic order, in which singleton classes
    are ordered increasingly."""
    if t.type.family not in ("A", "C"):
        raise TypeMismatch("iota takes family-A or family-C triples")
    return _relation(order_from_triple(t))


def pi(r: ThresholdRelation, typ: AffineType) -> BiclosedTriple:
    """Project a translation-invariant order onto its family-A or
    family-C triple.

    pi reads the order that r encodes and writes its relation back: the
    face from which entries are finite, each block's orientation from
    whether a diagonal entry is empty, and its permutation from the
    in-block inversion counts (``fan._from_inversions``), complemented in
    a reversed block; all three are read off the entries' ends.  A
    family-C order is the negation-invariant order that r encodes over
    residues 0..M-1, so r must be sigma-fixed (else
    SigmaFixednessViolated); its blocks are read as in family A and
    folded into the C face (v > n is v - M), and the centre's permutation
    becomes the C element of window (u(1), ..., u(c)).  Only the relation
    of a genuine order equals the relation written back; any other r
    raises NotAnOrder.
    """
    if typ.family not in ("A", "C") or typ.modulus != r.M:
        raise TypeMismatch("pi needs the family-A or family-C type matching the modulus")
    m, v, signed = r.M, r.V, typ.family == "C"
    check_order(r)
    if signed and sigma_relation(r) != r:
        raise SigmaFixednessViolated("the relation is not sigma-fixed")
    fin = [[e is None or _ends(e)[1] < inf for e in row] for row in v]
    equal, after = [], []
    for a in range(m):
        for b in range(a + 1, m):
            fa, fb = fin[a][b], fin[b][a]
            if fa == fb:
                equal.append((a, b))
            else:
                after.append((b, a) if fa else (a, b))
    blocks = _ordered_blocks(range(m), equal, after, NotAnOrder)
    if signed:
        blocks = [frozenset(x - m if x > typ.n else x for x in blk) for blk in blocks]
    face = FanFace(typ, tuple(blocks))
    mid = len(blocks) // 2 if signed else 0
    data = [None] * mid
    for k, reps in enumerate(face.relabeling.reps[mid:], mid):
        reversed_ = v[reps[0]][reps[0]] is not None
        counts = []
        for (p, a), (q, b) in itertools.permutations(enumerate(reps), 2):
            inv = v[a][b]
            if reversed_:
                inv = _complement(inv, _eps(a, b))
            # the shifts d of the inversions (a, b + dM), below the tail of
            # an infinite set, which fails the certificate below
            counts.append((p, q, _finite_count(inv)))
        perm = None
        if len(reps) > 1:
            try:
                perm = _from_inversions(AffineType("A", len(reps)), counts)
                if signed and k == mid:
                    perm = from_window(face.block_types[k], perm.window[:len(reps) // 2])
            except InvalidWindow as e:
                raise NotAnOrder(f"block {list(reps)} has no element: {e}") from e
        data.append(BlockData(reversed_, perm))
    o = PeriodicOrder(face, tuple(data))
    if _relation(o) != r:
        raise NotAnOrder("the relation is not that of the order it encodes")
    return inversion_set(o)


def _finite_count(e) -> int:
    """How many points of the entry lie below its tail, if it has one."""
    if e.__class__ is tuple:
        return 0 if e[1] == inf else e[1] - e[0] + 1
    return e.fin.bit_count() if e else 0


# ---------------------------------------------------------------------------
# sigma and the exact joins


def sigma_relation(r: ThresholdRelation) -> ThresholdRelation:
    """The negation conjugate: x new-precedes y iff -y precedes -x."""
    m, v = r.M, r.V
    return ThresholdRelation(m, tuple(
        tuple(_shift(v[-b % m][-a % m], (-b) // m - (-a) // m) for b in range(m))
        for a in range(m)))


def sigma(t: BiclosedTriple) -> BiclosedTriple:
    """The negation involution on family-A triples."""
    if t.type.family != "A":
        raise TypeMismatch("sigma takes family-A triples")
    return pi(sigma_relation(iota(t)), t.type)


def _operands(xs, typ: AffineType | None, family: str, name: str):
    xs = list(xs)
    if not (typ or xs):
        raise ValueError(f"{name} of no operands needs a type")
    typ = typ or xs[0].type
    if typ.family != family:
        raise TypeMismatch(f"{name} is for family {family}")
    if any(x.type != typ for x in xs):
        raise TypeMismatch(f"mixed types in {name}")
    return xs, typ


def _closed_union(rels) -> ThresholdRelation:
    return threshold_closure(reduce(ThresholdRelation.union, rels))


def _join(xs, typ: AffineType | None, family: str) -> BiclosedTriple:
    """pi of the closed union of the operands' relations; with no
    operands, the bottom of the order."""
    xs, typ = _operands(xs, typ, family, f"join_{family}")
    if not xs:
        return build_biclosed(origin_face(typ), frozenset(), {})
    return pi(_closed_union(map(iota, xs)), typ)


def _meet(xs, typ: AffineType | None, family: str) -> BiclosedTriple:
    """The complement-dual join; with no operands, the top of the order."""
    xs, typ = _operands(xs, typ, family, f"meet_{family}")
    if not xs:
        face = origin_face(typ)
        return build_biclosed(face, frozenset(parahoric(face).ids()), {})
    return pi(_closed_union(iota(x).complement() for x in xs).complement(), typ)


def join_A(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact join in the family-A extended weak order."""
    return _join(xs, typ, "A")


def meet_A(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact meet, as the complement-dual join."""
    return _meet(xs, typ, "A")


# ---------------------------------------------------------------------------
# family C through the sigma-fixed embedding


def a_ambient(typ: AffineType) -> AffineType:
    return AffineType("A", typ.modulus)


def embed_c(t: BiclosedTriple) -> BiclosedTriple:
    """A C-triple as the sigma-fixed family-A triple of the same order.

    Exact: the projection pi of the C-triple's threshold relation, with
    no windowed oracle involved.
    """
    if t.type.family != "C":
        raise TypeMismatch("embed_c takes family-C triples")
    return pi(iota(t), a_ambient(t.type))


def restrict_c(t: BiclosedTriple, typ: AffineType) -> BiclosedTriple:
    """Pull a sigma-fixed family-A triple back to its C-triple: the
    family-C projection pi of its threshold relation, which raises
    SigmaFixednessViolated unless t is sigma-fixed."""
    if t.type != a_ambient(typ) or typ.family != "C":
        raise TypeMismatch("restrict_c needs the matching C type")
    return pi(iota(t), typ)


def join_C(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact join in family C.

    The inputs' threshold relations are united and closed as in family A,
    and the closed relation is read as a C order by the family-C
    projection pi, which checks that it is sigma-fixed and certifies the
    order by writing its relation back; no family-A triple is built.
    """
    return _join(xs, typ, "C")


def meet_C(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact meet in family C: the complement-dual route of join_C, with
    one family-C pi."""
    return _meet(xs, typ, "C")


# ---------------------------------------------------------------------------
# finite-group joins (the B3 / D3 counterexample scale)


@lru_cache(maxsize=32)
def finite_group(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """One-line notations on [1, 2n] (signed families) or [1, n+1] (A)."""
    if rank > 4:
        raise TooLarge("finite enumeration is guarded at rank <= 4")
    if family == "A":
        return tuple(itertools.permutations(range(1, rank + 2)))
    n = rank
    out = []
    for img in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((0, 1), repeat=n):
            if family == "D" and sum(signs) % 2:
                continue
            sigma_ = [0] * (2 * n)
            for x in range(1, n + 1):
                v = img[x - 1] if not signs[x - 1] else 2 * n + 1 - img[x - 1]
                sigma_[x - 1] = v
                sigma_[2 * n - x] = 2 * n + 1 - v
            out.append(tuple(sigma_))
    return tuple(sorted(set(out)))


def finite_inversions(family: str, rank: int, sigma_: tuple[int, ...]):
    """Inversion set of a one-line element, family-admissible pairs only.

    One-line notation reads values at positions, so the inversion test is
    the value criterion sigma(j) < sigma(i); for word-built elements this
    matches the position criterion applied to the reversed word.
    """
    size = len(sigma_)
    out = set()
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if family == "D" and i + j == size + 1:
                continue
            if sigma_[j - 1] < sigma_[i - 1]:
                # identify (i, j) with its mirror for the signed families
                if family in ("B", "C", "D"):
                    mi, mj = size + 1 - j, size + 1 - i
                    out.add(min((i, j), (mi, mj)))
                else:
                    out.add((i, j))
    return frozenset(out)


def join_finite(family: str, rank: int, u, w) -> tuple[int, ...]:
    """Join in the finite weak order by exhaustive scan.

    Inputs and output are one-line notations; for the signed families
    these are the complement-symmetric permutations of [1, 2n].
    """
    group = finite_group(family, rank)
    u, w = tuple(u), tuple(w)
    for x in (u, w):
        if x not in group:
            raise ValueError(f"{x} is not an element of {family}{rank}")
    nu, nw = (finite_inversions(family, rank, x) for x in (u, w))
    bounds = [
        (len(inv), g, inv)
        for g in group
        for inv in [finite_inversions(family, rank, g)]
        if inv >= nu and inv >= nw
    ]
    if not bounds:
        raise ValueError("no upper bound exists")
    bounds.sort(key=lambda t: (t[0], t[1]))
    best = bounds[0]
    for _, _, inv in bounds[1:]:
        if not best[2] <= inv:
            raise AssertionError("finite weak order lost its lattice property")
    return best[1]


# ---------------------------------------------------------------------------
# experimental joins for B/D


class TryJoinResult(_Record):
    __slots__ = _fields = ("ok", "triple", "witness")

    def __init__(self, ok: bool, triple: BiclosedTriple | None = None,
                 witness: _closure.FiniteBiclosedCertificate | None = None):
        _set_ok(self, ok)
        _set_triple(self, triple)
        _set_witness(self, witness)


_set_ok, _set_triple, _set_witness = _slot_setters(TryJoinResult)


def try_join(xs, h: int) -> TryJoinResult:
    """Windowed closure-of-union join attempt for families B and D.

    The inputs' 2h window masks are unioned and closed, certified by
    agreeing windows at h and 2h (closure.stable_close; h >= 1).  On
    success the result is classify's triple for that biclosed closure, on
    failure the rank-2 witness that classify's NotBiclosed carries.  That
    h/2h-certified closure is not shown to be the join: classify can
    return another triple with the same window (see there), and the B2
    triple t of its docstring gives try_join([t, t], h) a chamber triple
    at h = 1 and 2.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("try_join needs at least one operand")
    typ = xs[0].type
    if any(x.type != typ for x in xs):
        raise TypeMismatch("mixed types in try_join")
    if h < 1:
        raise ValueError(f"try_join needs a cutoff h >= 1, not {h}")
    from .closure import stable_close

    union = 0
    for x in xs:
        union |= x.window(2 * h).mask
    big = stable_close(typ, union, h)
    try:
        return TryJoinResult(True, classify(big), None)
    except NotBiclosed as e:
        return TryJoinResult(False, None, e.witness)
