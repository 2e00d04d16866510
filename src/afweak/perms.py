"""Affine and signed-affine permutations in window notation.

Family A elements are bijections of the integers commuting with
translation by M = n and normalized to have zero displacement sum over a
period.  Families B, C, D are the subgroups of the family-A group on
M = 2n + 1 letters cut out by the negation symmetry f(-x) = -f(x) and,
for B and D, by evenness of the crossing counts.

Inversion sets use the position criterion: the admissible pair (i, j)
with i < j is an inversion of w when w^{-1}(i) > w^{-1}(j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidWindow, NotARoot, ParityViolation, TypeMismatch
from .roots import AffineType, Root, canonical_root, signed_residue


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    """Window notation: the values f(1), ..., f(M) (family A) or f(1),
    ..., f(n) (signed families, extended by symmetry and periodicity)."""

    type: AffineType
    window: tuple[int, ...]

    def __call__(self, x: int) -> int:
        typ = self.type
        m = typ.modulus
        if typ.family == "A":
            r = (x - 1) % m
            return self.window[r] + (x - 1 - r)
        s = signed_residue(typ, x)
        if s == 0:
            return x
        q = (x - s) // m
        val = self.window[s - 1] if s > 0 else -self.window[-s - 1]
        return val + q * m

    def is_identity(self) -> bool:
        return self == identity(self.type)

    def __repr__(self):
        win = ",".join(map(str, self.window))
        return f"AffinePermutation({self.type.family}{self.type.n}:[{win}])"


def identity(typ: AffineType) -> AffinePermutation:
    size = typ.modulus if typ.family == "A" else typ.n
    return AffinePermutation(typ, tuple(range(1, size + 1)))


def from_window(typ: AffineType, values) -> AffinePermutation:
    """Validate a window and build the permutation.

    Raises TypeError for a value that is not an int (a bool is none),
    InvalidWindow for malformed data and ParityViolation when a B/D
    evenness condition fails (the message names the odd count).
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"window values must be ints, not {v!r}")
    m = typ.modulus
    if typ.family == "A":
        if len(values) != m:
            raise InvalidWindow(f"need {m} window values, got {len(values)}")
        if len({v % m for v in values}) != m:
            raise InvalidWindow("window values collide modulo M")
        if sum(values) != m * (m + 1) // 2:
            raise InvalidWindow("window displacement sum is not zero")
        return AffinePermutation(typ, values)
    if len(values) != typ.n:
        raise InvalidWindow(f"need {typ.n} window values, got {len(values)}")
    if any(v % m == 0 for v in values):
        raise InvalidWindow("window value hits the zero residue class")
    residues = set()
    for v in values:
        residues.add(v % m)
        residues.add(-v % m)
    if len(residues) != 2 * typ.n:
        raise InvalidWindow("window values collide modulo M up to sign")
    w = AffinePermutation(typ, values)
    if typ.family in ("B", "D"):
        cross = _count_crossings(w)
        if cross % 2:
            raise ParityViolation(
                f"#{{x >= n+1 : f(x) <= n}} = {cross} is odd"
            )
    if typ.family == "D":
        if typ.n == 1:
            raise InvalidWindow("family D needs n >= 2")
        neg = _count_negatives(w)
        if neg % 2:
            raise ParityViolation(f"#{{x > 0 : f(x) < 0}} = {neg} is odd")
    return w


def _count_crossings(w: AffinePermutation) -> int:
    """#{x >= n+1 : f(x) <= n}, computed per residue class."""
    typ = w.type
    m, n = typ.modulus, typ.n
    total = 0
    for x0 in range(1, m + 1):
        fx0 = w(x0)
        k0 = 1 if x0 <= n else 0  # least k with x0 + k*m >= n + 1
        k1 = (n - fx0) // m  # greatest k with f <= n
        total += max(0, k1 - k0 + 1)
    return total


def _count_negatives(w: AffinePermutation) -> int:
    """#{x > 0 : f(x) < 0}, computed per residue class."""
    typ = w.type
    m = typ.modulus
    total = 0
    for x0 in range(1, m + 1):
        fx0 = w(x0)
        if fx0 < 0:
            total += (-fx0 + m - 1) // m  # k >= 0 with fx0 + k*m < 0
    return total


def reflection(typ: AffineType, i: int, j: int) -> AffinePermutation:
    """The reflection t_{ij} (family A) or its signed product for B/C/D."""
    canonical_root(typ, i, j)  # admissibility gate; raises NotARoot
    m = typ.modulus

    if typ.family == "A":

        def image(x: int) -> int:
            if (x - i) % m == 0:
                return x + (j - i)
            if (x - j) % m == 0:
                return x - (j - i)
            return x

        size = m
    else:
        pair_swap = (i + j) % m != 0  # otherwise the two A-factors coincide

        def image(x: int) -> int:
            if (x - i) % m == 0:
                return x + (j - i)
            if (x - j) % m == 0:
                return x - (j - i)
            if pair_swap and (x + i) % m == 0:
                return x - (j - i)
            if pair_swap and (x + j) % m == 0:
                return x + (j - i)
            return x

        size = typ.n
    return from_window(typ, tuple(image(x) for x in range(1, size + 1)))


def multiply(u: AffinePermutation, v: AffinePermutation) -> AffinePermutation:
    """Function composition (u*v)(x) = u(v(x))."""
    if u.type != v.type:
        raise TypeMismatch("cannot multiply permutations of different types")
    size = len(u.window)
    return from_window(u.type, tuple(u(v(x)) for x in range(1, size + 1)))


def invert(u: AffinePermutation) -> AffinePermutation:
    return _inverse(u)


@lru_cache(maxsize=8192)
def _inverse(u: AffinePermutation) -> AffinePermutation:
    typ = u.type
    m = typ.modulus
    if typ.family == "A":
        out = [0] * m
        for k, val in enumerate(u.window, start=1):
            r = (val - 1) % m
            out[r] = k - (val - 1 - r)
        window = tuple(out[(y - 1) % m] + (y - 1 - (y - 1) % m)
                       for y in range(1, m + 1))
        return AffinePermutation(typ, window)
    out = []
    for y in range(1, typ.n + 1):
        for k, val in enumerate(u.window, start=1):
            if (val - y) % m == 0:
                out.append(k + (y - val))
                break
            if (val + y) % m == 0:
                out.append(-k + (y + val))
                break
        else:
            raise AssertionError("window does not cover residue")
    return AffinePermutation(typ, tuple(out))


def word(typ: AffineType, letters) -> AffinePermutation:
    """Product of simple generators given by index into simple_reflections."""
    gens = simple_reflections(typ)
    w = identity(typ)
    for s in letters:
        w = multiply(w, gens[s])
    return w


@lru_cache(maxsize=None)
def _simple_pairs(typ: AffineType) -> tuple[tuple[int, int], ...]:
    """Index pairs of the simple roots, in diagram order.

    Family A: s_0 = t_{0,1}, ..., s_{n-1} = t_{n-1,n}.
    Family C: s_0 = t_{-1,1}, s_i = t_{i,i+1} for 1 <= i <= n.
    Family B: s_0 = t_{-1,1}, s_i = t_{i,i+1} (i < n), s_n = t_{n-1,n+1};
              for n = 1 the two generators are t_{-1,1}, t_{1,2M-1}.
    Family D: s_0 = t_{-1,2}, s_i = t_{i,i+1} (i < n), s_n = t_{n-1,n+1};
              for n = 2 the four generators of the two A~1 factors.
    """
    n, m = typ.n, typ.modulus
    f = typ.family
    if f == "A":
        return tuple((i, i + 1) for i in range(n))
    if f == "C":
        return ((-1, 1),) + tuple((i, i + 1) for i in range(1, n + 1))
    if f == "B":
        if n == 1:
            return ((-1, 1), (1, 2 * m - 1))
        return ((-1, 1),) + tuple(
            (i, i + 1) for i in range(1, n)
        ) + ((n - 1, n + 1),)
    if n == 2:
        return ((1, 2), (2, m + 1), (1, 3), (3, m + 1))
    return ((-1, 2),) + tuple(
        (i, i + 1) for i in range(1, n)
    ) + ((n - 1, n + 1),)


@lru_cache(maxsize=None)
def simple_reflections(typ: AffineType) -> tuple[AffinePermutation, ...]:
    """The simple generators, indexed as in _simple_pairs."""
    return tuple(reflection(typ, i, j) for i, j in _simple_pairs(typ))


def max_displacement(w: AffinePermutation) -> int:
    typ = w.type
    span = typ.modulus if typ.family == "A" else typ.n
    return max((abs(w(x) - x) for x in range(1, span + 1)), default=0)


def inversions(w: AffinePermutation) -> frozenset[Root]:
    """The finite set N(w) of canonical roots inverted by w."""
    typ = w.type
    m = typ.modulus
    winv = _inverse(w)
    disp = max(max_displacement(w), max_displacement(winv))
    out = set()
    first = range(m) if typ.family == "A" else range(1, m)
    for i in first:
        for j in range(i + 1, i + 2 * disp + 1):
            try:
                r = canonical_root(typ, i, j)
            except NotARoot:
                continue
            if r.i != i or r.j != j:
                continue  # count each root once, at its canonical pair
            if winv(i) > winv(j):
                out.add(r)
    return frozenset(out)


def length(w: AffinePermutation) -> int:
    return len(inversions(w))


def root_action(w: AffinePermutation, r: Root) -> tuple[int, Root]:
    """Apply w to a root: returns (sign, |w(r)|) with sign = +1 if w(r)
    stayed positive."""
    a, b = w(r.i), w(r.j)
    sign = 1
    if a > b:
        a, b, sign = b, a, -1
    return sign, canonical_root(r.type, a, b)


def elements_up_to_length(typ: AffineType, bound: int):
    """BFS over the Cayley graph: {w : l(w) <= bound} with exact lengths.

    Returns a dict w -> length.  Cayley-graph distance from the identity
    equals Coxeter length, so no inversion counting is needed here.
    """
    gens = simple_reflections(typ)
    seen = {identity(typ): 0}
    frontier = [identity(typ)]
    for depth in range(1, bound + 1):
        nxt = []
        for w in frontier:
            for g in gens:
                u = multiply(g, w)
                if u not in seen:
                    seen[u] = depth
                    nxt.append(u)
        frontier = nxt
    return seen
