"""Independent references for checking answers outside the timed region.

The plane geometry here does not use ``afweak.closure`` or the RREF plane
keys of ``afweak.roots``: two roots span the same rank-2 plane iff their
integer Pluecker coordinates (the 2x2 minors, divided by their gcd and
made sign-canonical) agree, and the betweenness order inside a plane is
the angular order of a 2-coordinate projection on which the plane maps
injectively.  Only ``Root.vector`` and ``root_window`` are shared with
the program.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

from afweak import roots


def _pluecker(u, v):
    d = len(u)
    out = []
    g = 0
    for p in range(d):
        for q in range(p + 1, d):
            m = u[p] * v[q] - u[q] * v[p]
            out.append(m)
            g = gcd(g, m)
    if g == 0:
        return None
    lead = next(m for m in out if m)
    if lead < 0:
        g = -g
    return tuple(m // g for m in out)


class Planes:
    """Rank-2 planes meeting the height-h window, betweenness-ordered."""

    def __init__(self, typ, h):
        self.typ, self.h = typ, h
        self.roots = roots.root_window(typ, h)
        self.index = {r: k for k, r in enumerate(self.roots)}
        vecs = [r.vector() for r in self.roots]
        groups: dict[tuple, set[int]] = {}
        for p in range(len(vecs)):
            for q in range(p + 1, len(vecs)):
                key = _pluecker(vecs[p], vecs[q])
                if key is not None:
                    groups.setdefault(key, set()).update((p, q))
        d = len(vecs[0])
        pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
        self.planes = []
        for key, ids in groups.items():
            # project on the first coordinate pair with a nonzero minor
            p, q = pairs[next(k for k, m in enumerate(key) if m)]

            def cmp(a, b, p=p, q=q):
                c = vecs[a][p] * vecs[b][q] - vecs[a][q] * vecs[b][p]
                return -1 if c > 0 else (1 if c < 0 else 0)

            self.planes.append(tuple(sorted(ids, key=cmp_to_key(cmp))))
        self.through = [[] for _ in self.roots]
        for k, plane in enumerate(self.planes):
            for x in plane:
                self.through[x].append(k)

    def mask(self, members):
        inset = bytearray(len(self.roots))
        for r in members:
            inset[self.index[r]] = 1
        return inset

    def close(self, members) -> frozenset:
        """Fill every plane between its first and last member, to a fixpoint."""
        inset = self.mask(members)
        work = list(range(len(self.planes)))
        queued = bytearray([1]) * len(self.planes)
        while work:
            k = work.pop()
            queued[k] = 0
            plane = self.planes[k]
            hits = [pos for pos, x in enumerate(plane) if inset[x]]
            if len(hits) < 2:
                continue
            for pos in range(hits[0] + 1, hits[-1]):
                x = plane[pos]
                if not inset[x]:
                    inset[x] = 1
                    for k2 in self.through[x]:
                        if not queued[k2]:
                            queued[k2] = 1
                            work.append(k2)
        return frozenset(r for r, b in zip(self.roots, inset) if b)

    def interior(self, members) -> frozenset:
        full = frozenset(self.roots)
        return full - self.close(full - frozenset(members))

    def is_biclosed(self, members) -> bool:
        """Every plane trace is an initial or a final segment."""
        inset = self.mask(members)
        for plane in self.planes:
            trace = [inset[x] for x in plane]
            if trace != sorted(trace) and trace != sorted(trace, reverse=True):
                return False
        return True

    def strictly_between(self, a, c, b) -> bool:
        """Whether c lies strictly between a and b in a common plane."""
        ia, ib, ic = self.index[a], self.index[b], self.index[c]
        for k in self.through[ia]:
            plane = self.planes[k]
            if ib in plane and ic in plane:
                pa, pb, pc = plane.index(ia), plane.index(ib), plane.index(ic)
                return min(pa, pb) < pc < max(pa, pb)
        return False


class PlaneCache:
    """Reference plane tables, built on first use per (type, height)."""

    def __init__(self):
        self._tables = {}

    def __call__(self, typ, h) -> Planes:
        key = (typ, h)
        if key not in self._tables:
            self._tables[key] = Planes(typ, h)
        return self._tables[key]


def window_members(triples, typ, h, combine=any):
    return frozenset(
        r for r in roots.root_window(typ, h)
        if combine(t.member(r) for t in triples)
    )


def stable_closure(planes: PlaneCache, typ, h, members_2h):
    """The h/2h closure oracle: closure at 2h cut to h, or None when the
    closure at h disagrees with it (the window is too small)."""
    big = planes(typ, 2 * h).close(members_2h)
    small = planes(typ, h).close(r for r in members_2h if r.height <= h)
    cut = frozenset(r for r in big if r.height <= h)
    return cut if cut == small else None
