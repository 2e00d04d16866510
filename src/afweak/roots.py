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

All computations are exact: integer arithmetic for pair bookkeeping and
``fractions.Fraction`` for the little plane geometry that rank-2
subsystems need, only in ``_rref_plane_key`` and ``_solve_in_plane``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import AfweakError, DependentRoots, NotARoot, TooLarge

FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True, slots=True)
class AffineType:
    """One of the classical affine families with its rank parameter.

    Family A with parameter n is the group usually written with subscript
    n - 1 (windows of length n); families B, C, D with parameter n act on
    windows of length n with modulus 2n + 1.
    """

    family: str
    n: int

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"the rank n must be an int, not {self.n!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        least = 2 if self.family == "D" else 1
        if self.n < least:
            raise ValueError(f"family {self.family} needs n >= {least}")

    @property
    def modulus(self) -> int:
        return self.n if self.family == "A" else 2 * self.n + 1

    @property
    def dim(self) -> int:
        """Length of the exact coordinate vectors (finite part + delta)."""
        return self.n + 1

    def __repr__(self):
        return f"AffineType({self.family!r}, {self.n})"


def signed_residue(typ: AffineType, x: int) -> int:
    """Reduce x into [-n, n] modulo M for the signed families (0 allowed)."""
    m = typ.modulus
    return (x + typ.n) % m - typ.n


@dataclass(frozen=True, slots=True)
class Root:
    """A canonical positive root ``e~_j - e~_i``.

    Instances should be produced through :func:`canonical_root`, which
    validates admissibility and normal form.
    """

    type: AffineType
    i: int
    j: int

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
# scan all root pairs of the window, about 5 s at B4 height 8 (252
# roots) and 8 s at A6 height 8 (270 roots, refused).  The largest window
# the package, its tests and its benchmark build is D4 at height 6 (168).
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


def _rref_plane_key(u, v):
    """Canonical basis of the rational span of u, v (primitive int rows)."""
    rows = [list(map(Fraction, u)), list(map(Fraction, v))]
    r = 0
    for c in range(len(u)):
        piv = next((k for k in range(r, 2) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for k in range(2):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == 2:
            break
    if r < 2:
        return None
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def plane_key(a: Root, b: Root):
    key = _rref_plane_key(a.vector(), b.vector())
    if key is None:
        raise DependentRoots(f"{a} and {b} span a line")
    return key


def _solve_in_plane(basis, vec):
    """Exact coordinates of vec in the 2-row basis, or None if outside."""
    b1, b2 = basis
    n = len(b1)
    for p in range(n):
        for q in range(p + 1, n):
            det = b1[p] * b2[q] - b1[q] * b2[p]
            if det:
                x = Fraction(vec[p] * b2[q] - vec[q] * b2[p], det)
                y = Fraction(b1[p] * vec[q] - b1[q] * vec[p], det)
                if all(x * b1[k] + y * b2[k] == vec[k] for k in range(n)):
                    return (x, y)
                return None
    return None


def _angular_sort(basis, members, vector=Root.vector) -> list:
    """Sort plane members by angle; betweenness = interval in this order.

    ``vector(m)`` gives the coordinates of a member, by default a Root's."""
    coords = {m: _solve_in_plane(basis, vector(m)) for m in members}
    outside = [m for m, c in coords.items() if c is None]
    if outside:
        raise AfweakError(f"{outside} lie outside the plane {basis}")

    def cross(m1, m2):
        return coords[m1][0] * coords[m2][1] - coords[m1][1] * coords[m2][0]

    def cmp(m1, m2):
        if cross(m1, m2) > 0:
            return -1
        if cross(m1, m2) < 0:
            return 1
        if m1 != m2:
            raise AssertionError("proportional positive roots in a plane")
        return 0

    return sorted(members, key=functools.cmp_to_key(cmp))


@dataclass(frozen=True)
class RankTwoSubsystem:
    """A full rank-2 subsystem with its betweenness order.

    For the finite kinds ``positive_roots`` is the complete ordered list;
    for kind Atilde1 it holds the two base roots and the bi-infinite order
    is produced on demand by :meth:`ordered_window`.
    """

    kind: str  # "A1xA1" | "A2" | "B2" | "Atilde1"
    type: AffineType
    positive_roots: tuple[Root, ...]

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


def _delta_lift(basis, fin):
    """The unique k with fin + k*delta in the plane, if it is an integer."""
    xy = _solve_in_plane(tuple(b[:-1] for b in basis), fin)
    if xy is None:
        return None
    k = xy[0] * basis[0][-1] + xy[1] * basis[1][-1]
    return int(k) if k.denominator == 1 else None


def rank2_subsystem(a: Root, b: Root) -> RankTwoSubsystem:
    """The full rank-2 subsystem of the plane spanned by two roots."""
    if a.type != b.type:
        raise DependentRoots("roots of different types")
    typ = a.type
    basis = plane_key(a, b)
    delta = tuple([0] * (typ.dim - 1) + [1])
    if _solve_in_plane(basis, delta) is not None:
        # the lowest root of each class has height 0 or 1
        fin = a.vector()[:-1]
        bases = {_class_string(typ, f, 1)[0] for f in (fin, negate_class(fin))}
        return RankTwoSubsystem("Atilde1", typ,
                                tuple(sorted(bases, key=Root.sort_key)))
    members = set()
    for fin in _pair_of_finite_root(typ):
        k = _delta_lift(basis, fin)
        if k is None:
            continue
        got = vector_to_root(typ, fin + (k,))
        if got is not None and got[0] == 1:
            members.add(got[1])
    members = sorted(members, key=Root.sort_key)
    if not 2 <= len(members) <= 4:
        raise AfweakError(
            f"the plane of {a} and {b} holds {len(members)} positive "
            f"roots, not 2-4: {members}"
        )
    ordered = _angular_sort(basis, members)
    if ordered[-1].sort_key() < ordered[0].sort_key():
        ordered.reverse()
    kind = {2: "A1xA1", 3: "A2", 4: "B2"}[len(members)]
    return RankTwoSubsystem(kind, typ, tuple(ordered))
