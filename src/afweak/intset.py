"""Exact eventually-periodic subsets of the integers, bounded below.

A set is a finite part below a threshold T plus a tail {x >= T : x mod P
in residues}, held as Python-int bitmasks.  Union and intersection are |
and & of windows and of residue masks lifted to lcm(P) by multiplying
with (2^lcm - 1)/(2^P - 1); complement is ~, shift rotates residues, and
a Minkowski sum shift-ORs one window over the runs of the other.  The
threshold relations of lattice hold empty sets, runs and rays as plain
ends and build an IntSet only for a set off those shapes, so these
operations serve the few entries that leave them.  Everything the
closure of translation-invariant inversion relations consumes stays in
the family.  All operations are exact; least period, then least
threshold, make equality structural.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import lcm


class IntSet:
    """Immutable; equal sets have equal fields, so == and hash are structural."""

    __slots__ = ("lo", "fin", "T", "P", "res")
    lo: int  # least finite point (0 when there is none)
    fin: int  # bit i: lo + i is in the set; every such point is below T
    T: int  # tail threshold (0 for finite sets)
    P: int  # tail period (1 for finite sets)
    res: int  # bit r: residue r mod P is in the tail

    def __init__(self, lo: int, fin: int, T: int, P: int, res: int):
        _set_lo(self, lo)
        _set_fin(self, fin)
        _set_T(self, T)
        _set_P(self, P)
        _set_res(self, res)

    def __setattr__(self, name, value):
        raise AttributeError("IntSet is immutable")

    def _key(self) -> tuple[int, int, int, int, int]:
        return self.lo, self.fin, self.T, self.P, self.res

    def __eq__(self, other) -> bool:
        return other.__class__ is IntSet and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def from_range(lo: int, hi: int | None = None) -> "IntSet":
        """[lo, hi] when hi is given, else [lo, oo)."""
        if hi is None:
            return IntSet(0, 0, lo, 1, 1)
        return IntSet(lo, _ones(hi - lo + 1), 0, 1, 0) if hi >= lo else _EMPTY

    def __contains__(self, x: int) -> bool:
        if self.res and x >= self.T:
            return bool(self.res >> (x % self.P) & 1)
        return x >= self.lo and bool(self.fin >> (x - self.lo) & 1)

    def is_empty(self) -> bool:
        return not (self.fin or self.res)

    def min(self) -> int | None:
        if self.fin:
            return self.lo
        if self.P == 1:
            return self.T if self.res else None
        return self.T + _low(_rot(self.res, self.T, self.P))

    def upto(self, hi: int) -> list[int]:
        lo = self.min()
        return [] if lo is None else _points(lo, _bits(self, lo, hi + 1))

    def union(self, other: "IntSet") -> "IntSet":
        a, b = self, other
        if a.is_empty() or b.is_empty():
            return b if a.is_empty() else a
        lo = min(a.lo if a.fin else a.T, b.lo if b.fin else b.T)
        return _canon(lo, *_merged(a, b, int.__or__, lo))

    def intersection(self, other: "IntSet") -> "IntSet":
        if self.is_empty() or other.is_empty():
            return _EMPTY
        lo = max(self.min(), other.min())
        return _canon(lo, *_merged(self, other, int.__and__, lo))

    def complement_in(self, lo: int) -> "IntSet":
        """[lo, oo) minus this set."""
        t = max(_t_eff(self), lo)
        return _canon(lo, ~_bits(self, lo, t), t, self.P, ~self.res & _ones(self.P))

    def issubset(self, other: "IntSet") -> bool:
        bits, _, _, res = _merged(self, other, lambda x, y: x & ~y, self.min() or 0)
        return not (bits or res)

    def intersects(self, other: "IntSet") -> bool:
        bits, _, _, res = _merged(self, other, int.__and__, self.min() or 0)
        return bool(bits or res)

    def shift(self, c: int) -> "IntSet":
        lo, t = self.lo + c if self.fin else 0, self.T + c if self.res else 0
        return IntSet(lo, self.fin, t, self.P, _rot(self.res, -c, self.P))

    def minkowski(self, other: "IntSet") -> "IntSet":
        """{x + y : x in self, y in other}, exactly.

        Beyond T_a + T_b + 2*lcm(P_a, P_b) the sumset is lcm-periodic, so
        the sums below that bound plus one period determine it completely.
        """
        a, b = self, other
        if a.is_empty() or b.is_empty():
            return _EMPTY
        la, lb = a.min(), b.min()
        L = lcm(a.P, b.P)
        t = _t_eff(a) + _t_eff(b) + 2 * L
        w = _sum_bits(_bits(a, la, t + L - lb), _bits(b, lb, t + L - la))
        tail = w >> (t - la - lb) & _ones(L)
        return _canon(la + lb, w, t, L, _rot(tail, -t, L))

    def star(self) -> "IntSet":
        """{0} u self u (self+self) u ...; requires min(self) >= 1.

        Apery trick: with m = min(self) the star is, per class mod m, a ray
        from the least reachable value; the least generator of each class
        in a slice of P*(m+1) beyond T suffices (P*m is a sum of m's).
        """
        if self.is_empty():
            return IntSet(0, 1, 0, 1, 0)
        m = self.min()
        if m < 1:
            raise ValueError("star needs a subset of [1, oo)")
        gens = {g % m: g for g in reversed(self.upto(_t_eff(self) + self.P * (m + 1)))}
        ap, heap = {0: 0}, [(0, 0)]  # Dijkstra over Z/m
        while heap:
            val, c = heappop(heap)
            if val > ap[c]:
                continue
            for g in gens.values():
                c2, v2 = (c + g) % m, val + g
                if c2 not in ap or v2 < ap[c2]:
                    ap[c2] = v2
                    heappush(heap, (v2, c2))
        t = max(ap.values()) + 1
        fin = sum(_periodic(1 << v % m, m, 0, t) >> v << v for v in ap.values())
        return _canon(0, fin, t, m, sum(1 << v % m for v in ap.values()))

    def __repr__(self):
        tail = f" + tail[{self.T}+, mod {self.P}: {_points(0, self.res)}]"
        return f"IntSet({_points(self.lo, self.fin)}{tail if self.res else ''})"


# slot setters: __init__ is the only writer, and it bypasses __setattr__
_set_lo, _set_fin, _set_T, _set_P, _set_res = (
    getattr(IntSet, k).__set__ for k in IntSet.__slots__
)
_EMPTY = IntSet(0, 0, 0, 1, 0)


def _ones(n: int) -> int:
    return (1 << n) - 1


def _low(x: int) -> int:
    """Index of the lowest set bit."""
    return (x & -x).bit_length() - 1


def _points(base: int, bits: int) -> list[int]:
    return [base + i for i in range(bits.bit_length()) if bits >> i & 1]


def _rot(res: int, c: int, p: int) -> int:
    """The p-bit pattern whose bit j is bit (j + c) mod p of res."""
    c %= p
    return (res >> c | res << (p - c)) & _ones(p)


def _periodic(res: int, p: int, start: int, n: int) -> int:
    """Bits over [start, start + n) of {x : bit x mod p of res}."""
    if n <= 0:
        return 0
    k = -(-n // p)
    return _rot(res, start, p) * (_ones(p * k) // _ones(p)) & _ones(n)


def _t_eff(s: IntSet) -> int:
    """A threshold beyond which membership is purely the tail pattern."""
    return s.T if s.res else s.lo + s.fin.bit_length()


def _bits(s: IntSet, a: int, b: int) -> int:
    """s intersected with [a, b): bit i stands for the point a + i."""
    if b <= a:
        return 0
    out = s.fin << (s.lo - a) if s.lo >= a else s.fin >> (a - s.lo)
    if s.res and s.T < b:
        t = max(s.T, a)
        out |= _periodic(s.res, s.P, t, b - t) << (t - a)
    return out & _ones(b - a)


def _sum_bits(x: int, y: int) -> int:
    """Bits of {i + j : bit i of x, bit j of y}: y is ORed, smeared by
    doubling, over each run of ones of the operand with fewer runs."""
    if (x ^ x >> 1).bit_count() > (y ^ y >> 1).bit_count():
        x, y = y, x
    out = 0
    while x:
        i = _low(x)
        carried = x + (1 << i)  # clears the run at i, sets the bit above it
        k, w, z = _low(carried) - i, 1, y
        while 2 * w <= k:
            z, w = z | z << w, 2 * w
        out |= (z | z << (k - w)) << i
        x &= carried
    return out


def _merged(a: IntSet, b: IntSet, op, lo: int):
    """(bits, t, p, res): op of a's and b's windows over [lo, t), t the
    larger threshold, and of their residue masks lifted to p = lcm(P)."""
    p, t = lcm(a.P, b.P), max(_t_eff(a), _t_eff(b))
    res = op(_periodic(a.res, a.P, 0, p), _periodic(b.res, b.P, 0, p))
    return op(_bits(a, lo, t), _bits(b, lo, t)), t, p, res


def _canon(a: int, bits: int, t: int, p: int, res: int) -> IntSet:
    """Canonical form of {a + i < t : bit i of bits} u {x >= t : bit x mod p
    of res}: least period, then the threshold retracted while the finite
    part agrees with the pattern."""
    for d in range(1, p):  # d = 1 also maps res = 0 to p = 1
        if not p % d and res == _periodic(res, d, 0, p):
            p, res = d, res & _ones(d)
            break
    bits = bits & _ones(t - a) if t > a else 0
    if res:
        diff = bits ^ _periodic(res, p, a, t - a)
        t = a + diff.bit_length() if diff else min(t, a)
        while not (diff or res >> (t - 1) % p & 1):
            t -= 1  # below a the finite part is empty
        bits &= _ones(t - a) if t > a else 0
    if not bits:
        return IntSet(0, 0, t if res else 0, p, res)
    return IntSet(a + _low(bits), bits >> _low(bits), t if res else 0, p, res)
