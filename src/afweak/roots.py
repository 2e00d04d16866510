"""Classical affine root systems in index-pair form.

A positive root of one of the affine systems on families A, B, C, D is
stored as a canonical pair ``(i, j)`` of integers standing for the vector
``e~_j - e~_i`` in the spanning-set model of the corresponding affine
permutation group.  Family A uses the relation ``e~_{x+M} = e~_x + delta``
with modulus ``M = n``; the signed families B, C, D additionally impose
``e~_{-x} = -e~_x`` and use ``M = 2n + 1``.

All computations are exact: integer arithmetic for pair bookkeeping and
``fractions.Fraction`` for the little plane geometry that rank-2
subsystems need.
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

    Raises NotARoot if (i, j) is inadmissible for the family or names a
    non-positive vector.
    """
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
    fin, c_delta = vec[:-1], vec[-1]
    m = typ.modulus
    reps: list[tuple[int, int]] = []  # (a, b) with finite part e_b - e_a
    if typ.family == "A":
        if sorted(c for c in fin if c) != [-1, 1]:
            return None
        a = next(r for r, c in enumerate(fin) if c == -1)
        b = next(r for r, c in enumerate(fin) if c == 1)
        reps.append((a, b))
    else:
        support = [(v + 1, c) for v, c in enumerate(fin) if c]
        if len(support) == 1:
            v, c = support[0]
            if c == 2:
                reps.append((-v, v))
            elif c == -2:
                reps.append((v, -v))
            else:
                return None
        elif len(support) == 2:
            (v1, c1), (v2, c2) = support
            if abs(c1) != 1 or abs(c2) != 1:
                return None
            # e_b - e_a: read one +/-1 entry as b, the other (negated) as a
            reps.append((v1 if c1 == -1 else -v1, v2 if c2 == 1 else -v2))
        else:
            return None
    for a, b in reps:
        lo, hi = a, b + c_delta * m
        sign = 1
        if lo > hi:
            lo, hi, sign = hi, lo, -1
        try:
            return sign, canonical_root(typ, lo, hi)
        except NotARoot:
            return None
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
    """ValueError for a negative height, and TooLarge, before anything is
    enumerated, for a height-h window of more than MAX_WINDOW_ROOTS roots."""
    if h < 0:
        raise ValueError(f"a window height must be >= 0, not {h}")
    size = window_size(typ, h)
    if size > MAX_WINDOW_ROOTS:
        raise TooLarge(
            f"a height-{h} window of {typ.family}{typ.n} has {size} roots;"
            f" the limit is {MAX_WINDOW_ROOTS}"
        )


@lru_cache(maxsize=None)
def root_window(typ: AffineType, h: int) -> tuple[Root, ...]:
    """All canonical roots of delta-height <= h, sorted by (height, i, j)."""
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
def all_class_keys(typ: AffineType) -> tuple[tuple[int, ...], ...]:
    """Keys of all Phi_0-classes (both signs), i.e. of all finite roots."""
    seen = set()
    for r in root_window(typ, 1):
        k = finite_class(r)
        seen.add(k)
        seen.add(negate_class(k))
    return tuple(sorted(seen))


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


def _angular_sort(basis, members: list[Root]) -> list[Root]:
    """Sort plane members by angle; betweenness = interval in this order."""
    coords = {r: _solve_in_plane(basis, r.vector()) for r in members}
    outside = [r for r, c in coords.items() if c is None]
    if outside:
        raise AfweakError(f"{outside} lie outside the plane {basis}")

    def cmp(r1, r2):
        a, b = coords[r1], coords[r2]
        c = a[0] * b[1] - a[1] * b[0]
        if c == 0 and r1 != r2:
            raise AssertionError("proportional positive roots in a plane")
        return -1 if c > 0 else (1 if c < 0 else 0)

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
        left = _delta_string_up(lo, h)
        right = _delta_string_up(hi, h)
        return tuple(left + right[::-1])


def _delta_string_up(base: Root, h: int) -> list[Root]:
    """base, base+delta, base+2delta, ... up to height h.

    Type-B short strings advance in steps of 2M in the pair coordinates,
    so a couple of misses are tolerated before stopping.
    """
    typ = base.type
    m = typ.modulus
    out, k, misses = [], 0, 0
    while misses <= 2:
        try:
            r = canonical_root(typ, base.i, base.j + k * m)
        except NotARoot:
            misses += 1
            k += 1
            continue
        if r.height > h:
            break
        out.append(r)
        misses = 0
        k += 1
    return out


def _string_base(r: Root) -> Root:
    """Minimal-height root on the delta-string of r."""
    typ = r.type
    m = typ.modulus
    best = r
    while True:
        nxt = None
        for k in (1, 2):
            if best.j - k * m <= best.i:
                continue
            try:
                nxt = canonical_root(typ, best.i, best.j - k * m)
                break
            except NotARoot:
                continue
        if nxt is None:
            return best
        best = nxt


def _opposite_string_base(base: Root) -> Root:
    """Minimal root whose finite part is the negative of base's."""
    typ = base.type
    fin = base.vector()[:-1]
    neg = tuple(-c for c in fin)
    for k in range(0, 5):
        got = vector_to_root(typ, neg + (k,))
        if got is not None and got[0] == 1:
            return got[1]
    raise AssertionError("no opposite string base found")


@lru_cache(maxsize=None)
def _finite_root_vectors(typ: AffineType) -> tuple[tuple[int, ...], ...]:
    """All roots of the finite system Phi_0 as pair-vector finite parts."""
    vecs = set()
    for r in root_window(typ, 1):
        fin = r.vector()[:-1]
        vecs.add(fin)
        vecs.add(tuple(-c for c in fin))
    return tuple(sorted(vecs))


def _delta_lift(basis, fin):
    """The unique k with fin + k*delta in the plane, if it is an integer."""
    b1, b2 = basis
    n = len(fin)
    for p in range(n):
        for q in range(p + 1, n):
            det = b1[p] * b2[q] - b1[q] * b2[p]
            if det:
                x = Fraction(fin[p] * b2[q] - fin[q] * b2[p], det)
                y = Fraction(b1[p] * fin[q] - b1[q] * fin[p], det)
                if any(x * b1[k] + y * b2[k] != fin[k] for k in range(n)):
                    return None
                k = x * b1[n] + y * b2[n]
                return int(k) if k.denominator == 1 else None
    return None


def rank2_subsystem(a: Root, b: Root) -> RankTwoSubsystem:
    """The full rank-2 subsystem of the plane spanned by two roots."""
    if a.type != b.type:
        raise DependentRoots("roots of different types")
    typ = a.type
    basis = plane_key(a, b)
    delta = tuple([0] * (typ.dim - 1) + [1])
    if _solve_in_plane(basis, delta) is not None:
        lo = _string_base(a)
        return RankTwoSubsystem(
            "Atilde1", typ, tuple(sorted({lo, _opposite_string_base(lo)},
                                         key=Root.sort_key))
        )
    members = set()
    for fin in _finite_root_vectors(typ):
        k = _delta_lift(basis, fin)
        if k is None:
            continue
        got = vector_to_root(typ, tuple(fin) + (k,))
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
