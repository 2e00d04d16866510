"""Joins and meets in the extended weak order.

A translation-invariant order is encoded exactly as a threshold
relation: for every ordered residue pair the set of shifts at which the
pair is inverted, an eventually-periodic integer set.  Joins close the
union of these relations by a Floyd-Warshall sweep whose loop weights
are handled with Kleene stars, so no unbounded fixpoint iteration is
needed; meets are complement-dual joins.  The sweep holds entries as
intervals and rays, whose sums, stars and unions take a few int
operations, and falls back to IntSet off that shape; the transitivity
and order checks decide most sums from entries' least and largest points.
The periodic order model bridges relations and triples both ways: iota
writes the relation of a triple's order, and pi reads the order that a
relation encodes and writes its relation back, which certifies it.
Family C reduces to family A by the negation involution sigma, whose
fixed points the C-orders are.  A C join or meet projects through pi
once; whether the result is sigma-fixed and whether its pull-back
embeds onto it are decided on threshold relations, against the iota of
that result.
For B/D only the experimental windowed try_join is offered, plus
exhaustive joins in the finite groups behind the non-sublattice
counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import inf

from . import closure as _closure
from .errors import (InvalidWindow, NotAnOrder, NotBiclosed, SigmaFixednessViolated,
                     TooLarge, TypeMismatch)
from .fan import (BiclosedTriple, FanFace, build_biclosed, classify, origin_face,
                  parahoric, _from_inversions, _ordered_blocks)
from .intset import _EMPTY, IntSet, _is_ray
from .orders import (BlockData, PeriodicOrder, _block_position_fn, inversion_set,
                     order_from_triple)
from .perms import from_window
from .roots import AffineType


# ---------------------------------------------------------------------------
# threshold relations (exact encodings of elements of L_n)


def _eps(a: int, b: int) -> int:
    """Least shift d making (a, b + dM) an ascending pair."""
    return 0 if a < b else 1


@dataclass(frozen=True)
class ThresholdRelation:
    """Translation-invariant inversion data over residues 0..M-1.

    Entry (a, b) holds {d : a > b + dM in the order}, restricted to the
    ascending shifts d >= eps(a, b); the descending half of the full
    relation {d : a comes after b + dM} is forced by totality, so it is
    read off entry (b, a) and not stored.
    """

    M: int
    V: tuple[tuple[IntSet, ...], ...]

    def entry(self, a: int, b: int) -> IntSet:
        return self.V[a][b]

    def succeeds(self, x: int, y: int) -> bool:
        """Whether x comes strictly after y in the encoded order."""
        if x == y:
            raise ValueError("comparing equal integers")
        if x > y:
            return not self.succeeds(y, x)
        a, b = x % self.M, y % self.M
        d = (y - b) // self.M - (x - a) // self.M
        return d in self.V[a][b]

    def union(self, other: "ThresholdRelation") -> "ThresholdRelation":
        if self.M != other.M:
            raise TypeMismatch("mismatched moduli")
        return ThresholdRelation(self.M, tuple(
            tuple(map(IntSet.union, ra, rb)) for ra, rb in zip(self.V, other.V)))

    def complement(self) -> "ThresholdRelation":
        """Ascending pairs not inverted: the relation of T minus the set."""
        return ThresholdRelation(
            self.M,
            tuple(
                tuple(
                    self.V[a][b].complement_in(_eps(a, b))
                    for b in range(self.M)
                )
                for a in range(self.M)
            ),
        )


def _shape(s: IntSet) -> tuple[int, int | float, bool] | None:
    """None when s is empty, else (least point, largest point or inf when
    there is a tail, whether s is a ray [T, oo))."""
    if not (s.fin or s.res):
        return None
    return s.min(), inf if s.res else s.lo + s.fin.bit_length() - 1, _is_ray(s)


def _interval(s: IntSet):
    """The sweep entry of s: None when s is empty, (lo, hi) when s is the
    run [lo, hi] or, with hi = inf, the ray [lo, oo), else s itself."""
    e = _shape(s)
    return e and (e[:2] if e[2] or not (s.res or s.fin & (s.fin + 1)) else s)


def _intset(e) -> IntSet:
    """The IntSet of a sweep entry."""
    if e.__class__ is tuple:
        return IntSet.from_range(e[0], None if e[1] == inf else e[1])
    return e or _EMPTY


def _star(e):
    """Kleene star of a diagonal entry: {0} when it is empty, [0, oo) when
    it holds 1; else IntSet.star, which rejects a least point below 1."""
    if e is None or e.__class__ is tuple and e[0] == 1:
        return (0, 0) if e is None else (0, inf)
    return _intset(e).star()


def _add(x, y):
    """Minkowski sum of two non-empty sweep entries: intervals add ends."""
    if x.__class__ is tuple and y.__class__ is tuple:
        return x[0] + y[0], x[1] + y[1]
    return _intset(x).minkowski(_intset(y))


def _unite(x, y):
    """x united with a non-empty y; intervals that overlap or touch unite."""
    if x is None:
        return y
    if x.__class__ is tuple and y.__class__ is tuple:
        if x[0] <= y[0] and y[1] <= x[1]:
            return x
        if x[0] <= y[1] + 1 and y[0] <= x[1] + 1:
            return min(x[0], y[0]), max(x[1], y[1])
    return _intset(x).union(_intset(y))


def threshold_closure(r: ThresholdRelation) -> ThresholdRelation:
    """Least transitive superset, by Floyd-Warshall with Kleene stars.

    Chains a > b + dM > c + eM compose by Minkowski sums of the shift
    sets, and loop entries are absorbed exactly by their stars.  Entries
    are held as intervals (_interval): a sum adds the ends, and unions
    and stars that stay intervals are written down; an entry that leaves
    the shape takes the general IntSet operations for the rest of the
    sweep.  Transitivity is checked on every call, from the sweep's
    entries (_check_transitive); degenerate inputs surface as NotAnOrder
    from the validity check downstream.
    """
    m = r.M
    v = [[_interval(s) for s in row] for row in r.V]
    for k in range(m):
        star = _star(v[k][k])
        for row in v:
            if (ak := row[k]) is not None:
                via = _add(ak, star)
                for b, kb in enumerate(v[k]):
                    if kb is not None:
                        row[b] = _unite(row[b], _add(via, kb))
    out = ThresholdRelation(m, tuple(tuple(map(_intset, row)) for row in v))
    _check_transitive(out, v)
    return out


def _check_transitive(r: ThresholdRelation, entries=None) -> None:
    """Raise NotAnOrder at the first (a, b, c) with V[a][b] + V[b][c] not
    inside V[a][c], read from the sweep entries (r's when none are given).
    A sum's least and largest points are its operands' added, so it lies
    in an interval target [lo, hi] iff they do, and in no empty target;
    only targets off the interval shape take IntSet operations."""
    v = r.V
    entries = entries or [[_interval(s) for s in row] for row in v]
    ends = [[(c, e if e.__class__ is tuple else _shape(e))
             for c, e in enumerate(row) if e is not None] for row in entries]
    for a, row in enumerate(entries):
        for b, ab in ends[a]:
            for c, bc in ends[b]:
                if (ac := row[c]) is None:
                    ok = False
                elif ac.__class__ is tuple:
                    ok = ab[0] + bc[0] >= ac[0] and ab[1] + bc[1] <= ac[1]
                else:
                    ok = v[a][b].minkowski(v[b][c]).issubset(ac)
                if not ok:
                    raise NotAnOrder(f"closure is not transitive at ({a},{b},{c})")


def check_order(r: ThresholdRelation) -> None:
    """Raise NotAnOrder unless the relation is a (closed) total order.

    Transitivity is assumed from the closure; this checks co-closure:
    no inverted pair may factor through two non-inverted ones.  A sum
    with a ray is the ray [x+y, oo) from the least points, which meets an
    entry iff the entry's largest point is at least x+y; a sum meets a
    ray [T, oo) iff its largest point is at least T.  Other sums take the
    general IntSet operations.
    """
    m = r.M
    comp = r.complement()
    left = [[_shape(s) for s in row] for row in comp.V]
    right = [[_shape(s) for s in row] for row in r.V]
    for a in range(m):
        for b in range(m):
            if not (ab := left[a][b]):
                continue
            for c in range(m):
                if not (bc := left[b][c]) or not (ac := right[a][c]):
                    continue
                if ab[2] or bc[2]:
                    hit = ac[1] >= ab[0] + bc[0]
                elif ac[2]:
                    hit = ab[1] + bc[1] >= ac[0]
                else:
                    hit = comp.V[a][b].minkowski(comp.V[b][c]).intersects(r.V[a][c])
                if hit:
                    raise NotAnOrder(
                        f"inversion ({a},{c}) factors through non-inversions"
                        f" via {b}"
                    )
    for a in range(m):
        if r.entry(a, a) not in (IntSet.empty(), IntSet.from_range(1)):
            raise NotAnOrder(f"diagonal class {a} is partially reversed")


# ---------------------------------------------------------------------------
# iota and pi


# the cross-block entries of iota, shared: empty, [0, oo) and [1, oo)
_RAYS = (IntSet.from_range(0), IntSet.from_range(1))


def _relation(o: PeriodicOrder) -> ThresholdRelation:
    """The threshold relation of a family-A or family-C periodic order.

    Positions inside a block come from the block-position function of
    ``orders.precedes``; a family-C block below the centre mirrors its
    negation, pos_k(x) = -pos_{2 mid - k}(-x), and the central block
    places the multiples of M.  A family-C order therefore yields, over
    residues 0..M-1, the relation of its sigma-fixed family-A order.
    """
    typ = o.type
    m = typ.modulus
    face = o.face
    top = len(face.blocks) - 1
    block, pos, step = {}, {}, {}
    for k, blk in enumerate(face.blocks):
        if typ.family == "C" and 2 * k < top:
            g = _block_position_fn(o, top - k)
            f = lambda x, g=g: -g(-x)
        else:
            f = _block_position_fn(o, k)
        for a in (v % m for v in blk):
            block[a], pos[a] = k, f(a)
        # +-(period size of the block) per shift of M; negative when reversed
        step[k] = f(a + m) - pos[a]
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            lo = _eps(a, b)
            if block[a] < block[b]:
                row.append(_EMPTY)
            elif block[a] > block[b]:
                row.append(_RAYS[lo])
            else:
                diff, s = pos[a] - pos[b], step[block[a]]
                # a comes after b + dM  iff  diff > d * s
                if s < 0:
                    row.append(IntSet.from_range(max(lo, -diff // -s + 1)))
                else:
                    row.append(IntSet.from_range(lo, (diff - 1) // s))
        rows.append(tuple(row))
    return ThresholdRelation(m, tuple(rows))


def iota(t: BiclosedTriple) -> ThresholdRelation:
    """The threshold relation of a family-A or family-C triple: the
    relation of its canonical periodic order, in which singleton classes
    are ordered increasingly."""
    if t.type.family not in ("A", "C"):
        raise TypeMismatch("iota takes family-A or family-C triples")
    return _relation(order_from_triple(t))


def pi(r: ThresholdRelation, typ: AffineType) -> BiclosedTriple:
    """Project a translation-invariant order onto its family-A triple.

    pi reads the order that r encodes and writes its relation back: the
    face from entry finiteness, each block's orientation from a diagonal
    entry, and its permutation from the in-block inversion counts
    (``fan._from_inversions``), complemented in a reversed block.  Only
    the relation of a genuine order equals the relation written back;
    any other r raises NotAnOrder.
    """
    if typ.family != "A" or typ.modulus != r.M:
        raise TypeMismatch("pi needs the family-A type matching the modulus")
    m = r.M
    check_order(r)
    equal, after = [], []
    for a in range(m):
        for b in range(a + 1, m):
            fa, fb = r.entry(a, b).is_finite(), r.entry(b, a).is_finite()
            if fa == fb:
                equal.append((a, b))
            else:
                after.append((b, a) if fa else (a, b))
    face = FanFace(typ, tuple(_ordered_blocks(range(m), equal, after, NotAnOrder)))
    data = []
    for blk in face.blocks:
        reps = sorted(blk)
        reversed_ = not r.entry(reps[0], reps[0]).is_empty()
        counts = []
        for (p, a), (q, b) in itertools.permutations(enumerate(reps), 2):
            inv = r.entry(a, b)
            if reversed_:
                inv = inv.complement_in(_eps(a, b))
            # the shifts d of the inversions (a, b + dM); an infinite set
            # fails the certificate below, whatever it counts
            counts.append((p, q, inv.fin.bit_count()))
        perm = None
        if len(reps) > 1:
            try:
                perm = _from_inversions(AffineType("A", len(reps)), counts)
            except InvalidWindow as e:
                raise NotAnOrder(f"block {reps} has no element: {e}") from e
        data.append(BlockData(reversed_, perm))
    o = PeriodicOrder(face, tuple(data))
    if _relation(o) != r:
        raise NotAnOrder("the relation is not that of the order it encodes")
    return inversion_set(o)


# ---------------------------------------------------------------------------
# sigma and the exact joins


def sigma_relation(r: ThresholdRelation) -> ThresholdRelation:
    """The negation conjugate: x new-precedes y iff -y precedes -x."""
    m = r.M
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            row.append(r.entry((-b) % m, (-a) % m).shift((-b) // m - (-a) // m))
        rows.append(tuple(row))
    return ThresholdRelation(m, tuple(rows))


def sigma(t: BiclosedTriple) -> BiclosedTriple:
    """The negation involution on family-A triples."""
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


def _top(typ: AffineType) -> BiclosedTriple:
    face = origin_face(typ)
    return build_biclosed(face, frozenset(parahoric(face).ids()), {})


def _closed_union(rels) -> ThresholdRelation:
    return threshold_closure(reduce(ThresholdRelation.union, rels))


def join_A(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact join in the family-A extended weak order."""
    xs, typ = _operands(xs, typ, "A", "join_A")
    if not xs:
        return build_biclosed(origin_face(typ), frozenset(), {})
    return pi(_closed_union(map(iota, xs)), typ)


def meet_A(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact meet, as the complement-dual join."""
    xs, typ = _operands(xs, typ, "A", "meet_A")
    if not xs:
        return _top(typ)
    return pi(_closed_union(iota(x).complement() for x in xs).complement(), typ)


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
    """Pull a sigma-fixed family-A triple back to its C-triple."""
    amb = t.type
    if amb != a_ambient(typ) or typ.family != "C":
        raise TypeMismatch("restrict_c needs the matching C type")
    m = typ.modulus
    blocks = []
    for blk in t.face.blocks:
        blocks.append(frozenset(v if v <= typ.n else v - m for v in blk))
    face = FanFace(typ, tuple(blocks))
    top = len(blocks) - 1
    # the C-face has the blocks of t's face at the same positions
    over = parahoric(t.face).by_block
    phi = set()
    wmap = {}
    for comp in parahoric(face).components:
        (a_comp,) = over[comp.block]
        u = t.component_w(a_comp.id)
        if comp.kind == "central":
            u = from_window(comp.ctype, tuple(u(k) for k in range(1, comp.ctype.n + 1)))
        elif (a_comp.id in t.phi_prime) != (over[top - comp.block][0].id in t.phi_prime):
            raise SigmaFixednessViolated("phi_prime is not sigma-symmetric")
        wmap[comp.id] = u
        if a_comp.id in t.phi_prime:
            phi.add(comp.id)
    return build_biclosed(face, frozenset(phi), wmap)


def _pull_back(t: BiclosedTriple, typ: AffineType, what: str) -> BiclosedTriple:
    """restrict_c of a family-A result, checked to be a sigma-fixed point
    that the C-result embeds onto.

    Both checks compare threshold relations against rel = iota(t), with
    no further projection: pi(iota(t)) == t, and iota writes every
    singleton class increasing, which sigma_relation keeps.  So
    sigma(t) == t iff sigma_relation(rel) == rel, and embed_c(out) == t
    iff iota(out) == rel.  The relation the join closed is no substitute
    for rel: pi drops a singleton class's orientation, so that relation
    may hold a decreasing singleton that rel writes increasing.
    """
    rel = iota(t)
    if sigma_relation(rel) != rel:
        raise SigmaFixednessViolated(f"{what} of sigma-fixed points moved")
    out = restrict_c(t, typ)
    if iota(out) != rel:
        raise SigmaFixednessViolated("pull-back does not embed correctly")
    return out


def join_C(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact join in family C.

    The inputs' threshold relations are united and closed in the family-A
    ambient and projected once by pi; the result is pulled back by
    restrict_c after its sigma-fixedness and the pull-back's embedding
    are checked on threshold relations (see _pull_back).
    """
    xs, typ = _operands(xs, typ, "C", "join_C")
    if not xs:
        return build_biclosed(origin_face(typ), frozenset(), {})
    joined = pi(_closed_union(map(iota, xs)), a_ambient(typ))
    return _pull_back(joined, typ, "join")


def meet_C(xs, typ: AffineType | None = None) -> BiclosedTriple:
    """Exact meet in family C: the complement-dual route of join_C, with
    one pi and the same relation-level checks."""
    xs, typ = _operands(xs, typ, "C", "meet_C")
    if not xs:
        return _top(typ)
    comp = _closed_union(iota(x).complement() for x in xs)
    return _pull_back(pi(comp.complement(), a_ambient(typ)), typ, "meet")


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


@dataclass(frozen=True, slots=True)
class TryJoinResult:
    ok: bool
    triple: BiclosedTriple | None = None
    witness: _closure.FiniteBiclosedCertificate | None = None


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
    union = 0
    for x in xs:
        union |= x.window(2 * h).mask
    big = _closure.stable_close(typ, union, h)
    try:
        return TryJoinResult(True, classify(big), None)
    except NotBiclosed as e:
        return TryJoinResult(False, None, e.witness)
