"""Classical affine root systems in index-pair form.

A positive root of one of the affine systems on families A, B, C, D is
stored as a canonical pair ``(i, j)`` of integers standing for the vector
``e~_j - e~_i`` in the spanning-set model of the corresponding affine
permutation group.  Family A uses the relation ``e~_{x+M} = e~_x + delta``
with modulus ``M = n``; the signed families B, C, D additionally impose
``e~_{-x} = -e~_x`` and use ``M = 2n + 1``.

This module alone maps ground residue pairs to the finite root system:
``finite_roots`` is the one table from a pair (a, b) to the finite part
of e~_b - e~_a, and the class keys, root recognition (``vector_to_root``),
delta-strings and plane lifts all read it.

All computations are exact and in integers, the plane geometry of rank-2
subsystems too: a plane key, the in-plane test and the betweenness order
are read off 2x2 minors (``_plane_key``, ``_lift``, ``_angular_sort``).
The finite A2 and B2 spans carry what a lift of them needs
(``_finite_spans``): their key rows as combinations of a base, and the
circular order of their signed classes.
"""

from __future__ import annotations

import functools
import itertools
import operator
from functools import lru_cache
from math import gcd

from .errors import AfweakError, DependentRoots, NotARoot, TooLarge

FAMILIES = ("A", "B", "C", "D")


class _Record:
    """A frozen record, the base of every afweak record class.

    A subclass names its fields (two or more) in ``_fields`` and sets
    them in its own ``__init__``, past the refusing ``__setattr__``: a
    slotted record through its slots' ``__set__``, any other through its
    ``__dict__``.  After that nothing is assigned or deleted.  Two records
    are equal iff they are of the same class and their fields are equal
    in order; hash and repr read the same fields.  A plain class:
    defining a record generates no code, so importing a layer stays
    cheap."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy set the fields past __setattr__; the state is
        # the __dict__, or (None, slot values) for a slotted record
        for values in state if state.__class__ is tuple else (state,):
            for name, value in (values or {}).items():
                object.__setattr__(self, name, value)


def _slot_setters(cls):
    """The ``__set__`` of each slot of a slotted record class, in order."""
    return (getattr(cls, name).__set__ for name in cls.__slots__)


class AffineType(_Record):
    """One of the classical affine families with its rank parameter.

    Family A with parameter n is the group usually written with subscript
    n - 1 (windows of length n); families B, C, D with parameter n act on
    windows of length n with modulus 2n + 1.
    """

    # M, stored once: n for A, 2n + 1 for B, C, D (read on every root);
    # not a field, so not read by ==, hash or repr
    __slots__ = ("family", "n", "modulus")
    _fields = ("family", "n")

    def __init__(self, family: str, n: int):
        if type(n) is not int:
            raise TypeError(f"the rank n must be an int, not {n!r}")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        least = 2 if family == "D" else 1
        if n < least:
            raise ValueError(f"family {family} needs n >= {least}")
        _set_family(self, family)
        _set_n(self, n)
        _set_modulus(self, n if family == "A" else 2 * n + 1)

    # == and hash written out for the two records hashed on every window
    # lookup: reading the slots inline beats the generic attrgetter
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.n) == (other.family, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.n))

    @property
    def dim(self) -> int:
        """Length of the exact coordinate vectors (finite part + delta)."""
        return self.n + 1

    def __repr__(self):
        return f"AffineType({self.family!r}, {self.n})"


_set_family, _set_n, _set_modulus = _slot_setters(AffineType)


def signed_residue(typ: AffineType, x: int) -> int:
    """Reduce x into [-n, n] modulo M for the signed families (0 allowed)."""
    m = typ.modulus
    return (x + typ.n) % m - typ.n


class Root(_Record):
    """A canonical positive root ``e~_j - e~_i``.

    Instances should be produced through :func:`canonical_root`, which
    validates admissibility and normal form.
    """

    __slots__ = _fields = ("type", "i", "j")

    def __init__(self, type: AffineType, i: int, j: int):
        _set_type(self, type)
        _set_i(self, i)
        _set_j(self, j)

    def __eq__(self, other):  # as AffineType's
        if other.__class__ is self.__class__:
            return (self.type, self.i, self.j) == (other.type, other.i, other.j)
        return NotImplemented

    def __hash__(self):
        return hash((self.type, self.i, self.j))

    @property
    def height(self) -> int:
        """The delta-height (j - i) // M; adding delta raises it by one."""
        return (self.j - self.i) // self.type.modulus

    def sort_key(self):
        return (self.height, self.i, self.j)

    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)

    def vector(self) -> tuple[int, ...]:
        """Exact integer coordinates of e~_j - e~_i.

        Family A uses coordinates (e_0, ..., e_{M-1}, delta); the signed
        families use (e_1, ..., e_n, delta).  For pairs with i = -j
        (mod M) the vector is twice a short root, which never matters for
        the cone geometry done here.
        """
        return _pair_vector(self.type, self.i, self.j)

    def __repr__(self):
        return f"Root({self.type.family}{self.type.n}:{self.i},{self.j})"


_set_type, _set_i, _set_j = _slot_setters(Root)


def delta_height(r: Root) -> int:
    return r.height


def _translate_first(typ: AffineType, i: int, j: int) -> tuple[int, int]:
    """Shift (i, j) by a multiple of M to canonicalize the first entry.

    Family A lands i in [0, M-1]; the signed families land i in [1, M].
    """
    m = typ.modulus
    if typ.family == "A":
        i0 = i % m
    else:
        i0 = (i - 1) % m + 1
    return i0, j + (i0 - i)


def canonical_root(typ: AffineType, i: int, j: int) -> Root:
    """Return the canonical representative of the root e~_j - e~_i.

    Raises TypeError if i or j is not an int (a bool is none), and
    NotARoot if (i, j) is inadmissible for the family or names a
    non-positive vector.
    """
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"root indices must be ints, not {i!r}, {j!r}")
    if i >= j:
        raise NotARoot(f"({i},{j}) is not a positive root (need i < j)")
    m = typ.modulus
    if (j - i) % m == 0:
        raise NotARoot(f"({i},{j}): j = i mod {m}")
    if typ.family != "A":
        if i % m == 0 or j % m == 0:
            raise NotARoot(f"({i},{j}): index divisible by {m}")
        if (i + j) % m == 0:
            if typ.family == "D":
                raise NotARoot(f"({i},{j}): i = -j mod {m} excluded in type D")
            if typ.family == "B" and (i + j) % (2 * m) != 0:
                raise NotARoot(
                    f"({i},{j}): i+j = {m} mod {2 * m} is not a type-B root"
                )
    if typ.family == "A":
        return Root(typ, *_translate_first(typ, i, j))
    cand = _translate_first(typ, i, j)
    mirror = _translate_first(typ, -j, -i)
    return Root(typ, *min(cand, mirror))


def _pair_vector(typ: AffineType, i: int, j: int) -> tuple[int, ...]:
    m = typ.modulus
    vec = [0] * typ.dim
    if typ.family == "A":
        for x, s in ((j, 1), (i, -1)):
            vec[x % m] += s
            vec[-1] += s * (x // m)
    else:
        for x, s in ((j, 1), (i, -1)):
            r = signed_residue(typ, x)
            q = (x - r) // m
            if r > 0:
                vec[r - 1] += s
            elif r < 0:
                vec[-r - 1] -= s
            vec[-1] += s * q
    return tuple(vec)


def vector_to_root(typ: AffineType, vec) -> tuple[int, Root] | None:
    """Recognize an exact coordinate vector as +/- a root.

    Returns (sign, root) with sign +1 for a positive root and -1 for the
    negative of one, or None if the vector is not a root at all.
    """
    vec = tuple(vec)
    if len(vec) != typ.dim:
        raise ValueError("wrong vector length")
    pair = _pair_of_finite_root(typ).get(vec[:-1])
    if pair is None:
        return None
    # e~_{b + kM} - e~_a has finite part e_b - e_a and delta coordinate k
    lo, hi = pair[0], pair[1] + vec[-1] * typ.modulus
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    try:
        return sign, canonical_root(typ, lo, hi)
    except NotARoot:
        return None


# The largest window a windowed operation may build.  Those operations
# build the window's plane tables from the finite rank-2 spans: about
# 0.09 s of CPU at B4 height 8 (252 roots) and at A6 height 8 (270 roots,
# refused), best of three on a 2-core VM with Python 3.11.  The largest
# window the package, its tests and its benchmark build is D4 at height 6.
MAX_WINDOW_ROOTS = 256


def window_size(typ: AffineType, h: int) -> int:
    """len(root_window(typ, h)), in closed form: every height level holds
    as many roots as the finite root system (B: n(2n - 1))."""
    n = typ.n
    per_level = {"A": n * (n - 1), "B": n * (2 * n - 1), "C": 2 * n * n,
                 "D": 2 * n * (n - 1)}[typ.family]
    return per_level * max(h + 1, 0)


def guard_window(typ: AffineType, h: int) -> None:
    """TypeError for a height that is not an int (a bool is none),
    ValueError for a negative one, and TooLarge, before anything is
    enumerated, for a height-h window of more than MAX_WINDOW_ROOTS roots."""
    if type(h) is not int:
        raise TypeError(f"a window height must be an int, not {h!r}")
    if h < 0:
        raise ValueError(f"a window height must be >= 0, not {h}")
    size = window_size(typ, h)
    if size > MAX_WINDOW_ROOTS:
        raise TooLarge(
            f"a height-{h} window of {typ.family}{typ.n} has {size} roots;"
            f" the limit is {MAX_WINDOW_ROOTS}"
        )


@lru_cache(maxsize=None, typed=True)
def root_window(typ: AffineType, h: int) -> tuple[Root, ...]:
    """All canonical roots of delta-height <= h, sorted by (height, i, j).

    TypeError for a height that is not an int (a bool is none); the cache
    is typed, so a bool or float never meets a cached int height."""
    if type(h) is not int:
        raise TypeError(f"a window height must be an int, not {h!r}")
    m = typ.modulus
    out = []
    first = range(m) if typ.family == "A" else range(1, m)
    for i in first:
        for j in range(i + 1, i + (h + 1) * m):
            try:
                r = canonical_root(typ, i, j)
            except NotARoot:
                continue
            if r.i == i and r.j == j and r.height <= h:
                out.append(r)
    out.sort(key=Root.sort_key)
    return tuple(out)


def finite_class(r: Root) -> tuple[int, ...]:
    """Primitive finite direction of a root: its Phi_0-class key.

    Two roots lie on the same delta-string exactly when their keys agree.
    """
    return primitive_direction(r.vector()[:-1])


def primitive_direction(fin: tuple[int, ...]) -> tuple[int, ...]:
    """A non-zero integer vector divided by the gcd of its entries."""
    g = gcd(*fin)
    return tuple(c // g for c in fin)


def negate_class(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in key)


@lru_cache(maxsize=None)
def finite_roots(typ: AffineType) -> dict[tuple[int, int], tuple[int, ...]]:
    """The finite root system Phi_0: each ordered pair (a, b) of distinct
    ground residues (0..M-1 for A; +-1..+-n for B, C, D, without a = -b
    for D) mapped to the finite part of e~_b - e~_a, in a-then-b order.

    Family B lists its short roots doubled, as 2e_v from (-v, v), like
    the pair vectors of its roots."""
    if typ.family == "A":
        ground = range(typ.modulus)
    else:
        ground = [v for v in range(-typ.n, typ.n + 1) if v]
    return {
        (a, b): _pair_vector(typ, a, b)[:-1]
        for a in ground
        for b in ground
        if a != b and not (typ.family == "D" and a == -b)
    }


@lru_cache(maxsize=None)
def _pair_of_finite_root(typ: AffineType) -> dict[tuple[int, ...], tuple[int, int]]:
    """One residue pair per finite root vector: finite_roots inverted."""
    return {fin: pair for pair, fin in finite_roots(typ).items()}


@lru_cache(maxsize=None)
def pair_class_keys(typ: AffineType) -> dict[tuple[int, int], tuple[int, ...]]:
    """The Phi_0-class key of e_b - e_a for each residue pair of finite_roots."""
    return {pair: primitive_direction(fin) for pair, fin in finite_roots(typ).items()}


@lru_cache(maxsize=None)
def all_class_keys(typ: AffineType) -> tuple[tuple[int, ...], ...]:
    """Keys of all Phi_0-classes (both signs), i.e. of all finite roots."""
    return tuple(sorted(set(pair_class_keys(typ).values())))


def positive_class_pairs(typ: AffineType) -> list[tuple[int, int]]:
    """One residue pair per positive Phi_0-class (a key that precedes its
    negative), sorted."""
    pairs = {key: pair for pair, key in pair_class_keys(typ).items()
             if key < negate_class(key)}
    return sorted(pairs.values())


# ---------------------------------------------------------------------------
# rank-2 subsystems
#
# A plane is keyed by the primitive integer rows of the reduced row echelon
# form of its span.  Row 1 leads at column c1 and vanishes at c2, row 2
# leads at c2 (the pivots), so a plane vector x is
# (x[c1] / row1[c1]) row1 + (x[c2] / row2[c2]) row2, and the cross product
# of the plane coordinates of x and y is x[c1] y[c2] - x[c2] y[c1] divided
# by the positive row1[c1] row2[c2].


def _plane_key(u, v):
    """The plane key of the span of the integer vectors u, v, from 2x2
    minors, or None if they are dependent.

    With c1 the first column where u or v is non-zero, m1 = u[c1] v - v[c1] u
    vanishes up to its first non-zero column c2, and m2 = u[c2] v - v[c2] u
    vanishes at c2 and has m2[c1] = -m1[c2]; the rows are -+m2 and +-m1,
    signed to lead positive and divided by their gcds."""
    c1 = next((k for k, x in enumerate(u) if x or v[k]), None)
    if c1 is None:
        return None
    a, b = u[c1], v[c1]
    m1 = [a * y - b * x for x, y in zip(u, v)]
    c2 = next((k for k, x in enumerate(m1) if x), None)
    if c2 is None:
        return None
    a, b = u[c2], v[c2]
    m2 = [a * y - b * x for x, y in zip(u, v)]
    sign = 1 if m1[c2] > 0 else -1
    g1, g2 = sign * gcd(*m1), -sign * gcd(*m2)
    return tuple(x // g2 for x in m2), tuple(x // g1 for x in m1)


def plane_key(a: Root, b: Root):
    key = _plane_key(a.vector(), b.vector())
    if key is None:
        raise DependentRoots(f"{a} and {b} span a line")
    return key


def _pivots(key) -> tuple[int, int]:
    """The leading columns c1, c2 of the two rows of a plane key."""
    return tuple(next(k for k, x in enumerate(row) if x) for row in key)


def _lift(key, pivots, vec):
    """(p, p * w) for p = row1[c1] row2[c2] > 0 and w the plane vector that
    agrees with vec at the pivots; vec is in the plane iff it equals w."""
    (r1, r2), (c1, c2) = key, pivots
    s, t = vec[c1] * r2[c2], vec[c2] * r1[c1]
    return r1[c1] * r2[c2], [s * x + t * y for x, y in zip(r1, r2)]


def _in_plane(key, pivots, vec) -> bool:
    p, w = _lift(key, pivots, vec)
    return all(p * x == y for x, y in zip(vec, w))


def _angular_sort(key, members, vector=Root.vector) -> list:
    """Sort plane members by angle; betweenness = interval in this order.

    ``vector(m)`` gives the coordinates of a member, by default a Root's.
    Member x comes first iff x[c1] y[c2] - x[c2] y[c1] > 0.  Members
    outside the plane are refused."""
    c1, c2 = pivots = _pivots(key)
    vecs = {m: vector(m) for m in members}
    outside = [m for m, v in vecs.items() if not _in_plane(key, pivots, v)]
    if outside:
        raise AfweakError(f"{outside} lie outside the plane {key}")

    def cmp(m1, m2):
        x, y = vecs[m1], vecs[m2]
        cross = x[c1] * y[c2] - x[c2] * y[c1]
        if not cross and m1 != m2:
            raise AssertionError("proportional positive roots in a plane")
        return -cross

    return sorted(members, key=functools.cmp_to_key(cmp))


@lru_cache(maxsize=None)
def _finite_spans(typ: AffineType):
    """The rank-2 spans of Phi_0 with three or more roots up to sign (A2
    and B2), found as triangles fin[a, b] + fin[b, c] = fin[a, c] of ground
    residues, each as (key, classes, bases, arcs).

    key is the span's plane key and classes are its roots f up to sign,
    f > -f.  A base (i, j, coeffs, rows) has classes[w] = p classes[i] +
    q classes[j] for (p, q) = coeffs[w], all integers; an A2 span has one
    base, a B2 span two disjoint ones: any three classes hold one.  rows
    holds, per key row r, (s, t, det) with det r = s classes[i] +
    t classes[j] and det > 0.  A signed class is numbered w for
    +classes[w] and w + len(classes) for -classes[w]; arcs maps the bits
    of three or more signed classes in an open half-plane to the getter of
    their numbers in angular order (x before y iff x[c1] y[c2] >
    x[c2] y[c1] at the key's pivots): the circular order of the signed
    classes, cut open."""
    fin = finite_roots(typ)
    spans: dict[tuple, set] = {}
    for a, b, c in itertools.combinations(sorted({a for a, _ in fin}), 3):
        if (a, b) in fin and (b, c) in fin and (a, c) in fin:
            spans.setdefault(_plane_key(fin[a, b], fin[b, c]), set()).update(
                max(f, negate_class(f)) for f in (fin[a, b], fin[b, c], fin[a, c]))
    out = []
    for key, classes in sorted(spans.items()):
        (c1, c2), ws, good = _pivots(key), tuple(sorted(classes)), []

        def cross(x, y):
            return x[c1] * y[c2] - x[c2] * y[c1]

        for i, j in itertools.combinations(range(len(ws)), 2):
            x, y = ws[i], ws[j]
            det = cross(x, y)
            num = [(cross(w, y), cross(x, w)) for w in ws]
            if all(p % det == q % det == 0 for p, q in num):
                sign = 1 if det > 0 else -1
                rows = tuple((sign * cross(r, y), sign * cross(x, r), sign * det)
                             for r in key)
                good.append((i, j, tuple((p // det, q // det) for p, q in num), rows))
        bases = good[:1] if len(ws) == 3 else next(
            (u, v) for u, v in itertools.combinations(good, 2) if not {*u[:2]} & {*v[:2]})
        k = len(ws)
        signed = ws + tuple(negate_class(w) for w in ws)
        upper = _angular_sort(key, [w for w in range(2 * k)
                                    if (signed[w][c1], signed[w][c2]) > (0, 0)],
                              signed.__getitem__)
        ring = upper + [(w + k) % (2 * k) for w in upper]
        arcs = {}
        for start in range(2 * k):
            arc = [ring[(start + d) % (2 * k)] for d in range(k)]
            for size in range(3, k + 1):
                for part in itertools.combinations(arc, size):
                    arcs[sum(1 << w for w in part)] = operator.itemgetter(*part)
        out.append((key, ws, tuple(bases), arcs))
    return tuple(out)


class RankTwoSubsystem(_Record):
    """A full rank-2 subsystem with its betweenness order.

    For the finite kinds ``positive_roots`` is the complete ordered list;
    for kind Atilde1 it holds the two base roots and the bi-infinite order
    is produced on demand by :meth:`ordered_window`.
    """

    _fields = ("kind", "type", "positive_roots")

    def __init__(self, kind: str, type: AffineType, positive_roots: tuple[Root, ...]):
        # kind: "A1xA1" | "A2" | "B2" | "Atilde1"
        self.__dict__.update(kind=kind, type=type, positive_roots=positive_roots)

    def ordered_window(self, h: int) -> tuple[Root, ...]:
        """Members of height <= h in betweenness order."""
        if self.kind != "Atilde1":
            return tuple(r for r in self.positive_roots if r.height <= h)
        lo, hi = self.positive_roots
        left = _class_string(self.type, lo.vector()[:-1], h)
        right = _class_string(self.type, hi.vector()[:-1], h)
        return tuple(left + right[::-1])


def _class_string(typ: AffineType, fin, h: int) -> list[Root]:
    """The positive roots of height <= h with finite part fin, upward.

    A positive root fin + k*delta has k >= 0 and height k or k - 1, so
    k <= h + 1 reaches them all."""
    out = []
    for k in range(h + 2):
        got = vector_to_root(typ, fin + (k,))
        if got is not None and got[0] == 1 and got[1].height <= h:
            out.append(got[1])
    return out


def rank2_subsystem(a: Root, b: Root) -> RankTwoSubsystem:
    """The full rank-2 subsystem of the plane spanned by two roots."""
    if a.type != b.type:
        raise DependentRoots("roots of different types")
    typ = a.type
    key = plane_key(a, b)
    c1, c2 = pivots = _pivots(key)
    if _in_plane(key, pivots, (0,) * (typ.dim - 1) + (1,)):  # delta
        # the lowest root of each class has height 0 or 1
        fin = a.vector()[:-1]
        bases = {_class_string(typ, f, 1)[0] for f in (fin, negate_class(fin))}
        return RankTwoSubsystem("Atilde1", typ,
                                tuple(sorted(bases, key=Root.sort_key)))
    # one root per class of the span at most: w + k delta = x a + y b, with
    # x det = cross(w, b), y det = cross(a, w) at the (finite) pivots
    u, v = a.vector(), b.vector()
    det = u[c1] * v[c2] - u[c2] * v[c1]
    fu, fv = (max(f, negate_class(f)) for f in (u[:-1], v[:-1]))
    members = {a, b}
    for w in next((ws for _, ws, *_ in _finite_spans(typ) if fu in ws and fv in ws), ()):
        k, r = divmod((w[c1] * v[c2] - w[c2] * v[c1]) * u[-1]
                      + (u[c1] * w[c2] - u[c2] * w[c1]) * v[-1], det)
        if not r and (got := vector_to_root(typ, w + (k,))):
            members.add(got[1])
    ordered = _angular_sort(key, members)
    if ordered[-1].sort_key() < ordered[0].sort_key():
        ordered.reverse()
    kind = {2: "A1xA1", 3: "A2", 4: "B2"}[len(members)]
    return RankTwoSubsystem(kind, typ, tuple(ordered))
