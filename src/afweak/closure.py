"""Windowed brute-force layer: closure, interior, biclosedness, B_infinity.

Everything here works on explicit finite sets of canonical roots of
delta-height at most H.  A window set is a Python-int bitmask over the
indices of root_window(type, H), whose order is (height, i, j); the
height-h window is the first window_size(type, h) indices of every
larger one, so cutting a set to height h is one AND.

Biclosedness is a rank-2 condition: a root strictly between two roots
of a rank-2 plane is forced in when both are in and out when both are
out.  A plane with only two window roots has no root between them and
imposes nothing, so _window_planes builds, from structure and not by a
scan of root pairs, only the planes with three or more window roots:
the delta-strings of +-Phi_0 classes (affine A~1) and the lifts of the
finite A2 and B2 spans of Phi_0, each lift keyed and ordered from its
span, with no root vector compared.  The plane tests read them as
_plane_table, in betweenness order.  A trace (a set cut to
one plane) is biclosed iff it is a prefix or a suffix, that is iff it
changes at most once along the plane.  _plane_slots holds the same
planes bit-sliced, one slot per (plane, position) and one int per root,
so one OR over a set's members and a few shifts per plane length decide
every trace at once.  The doubling criterion is the same test: three
vectors of D(S) = S u -(window\\S) in one plane have a vanishing
positive combination iff the trace shows in-out-in or out-in-out
(doubling_check proves it).  Closure sweeps the planes and fills the
interval between the first and last roots of every trace: a length-3
plane is held as its mask and its middle bit and fills iff the trace is
its two ends, a longer one by its prefix masks (pairwise root sums are
not enough: a B2 plane can force a half-sum and an affine A~1 plane
forces a whole delta-string).  Results are truncations; callers needing
exactness use stable_close, the one implementation of the h/2h
stability protocol: close on the 2h window and require its cut to
height h to equal the closure of the height-h window.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import UnstableCutoff, UnstableWindow
from .roots import (
    AffineType,
    Root,
    _Record,
    _finite_spans,
    _slot_setters,
    finite_class,
    guard_window,
    negate_class,
    root_window,
    window_size,
)


class WindowSet(_Record):
    """A finite set of canonical roots of height <= H, held as a bitmask
    over the indices of root_window(type, H); ``members`` builds the
    frozenset of roots on each access."""

    __slots__ = _fields = ("type", "H", "mask")

    def __init__(self, type: AffineType, H: int, members):
        guard_window(type, H)
        index = _window_index(type, H)[1]
        mask = 0
        bad = []
        for r in members:
            k = index.get(r)
            if k is None:
                bad.append(r)
            else:
                mask |= 1 << k
        if bad:
            raise ValueError(f"roots outside the height-{H} window: {bad}")
        _set_fields(self, type, H, mask)

    @classmethod
    def from_mask(cls, typ: AffineType, h: int, mask: int) -> WindowSet:
        """The set whose root_window(typ, h) indices are the bits of mask."""
        guard_window(typ, h)
        if mask < 0 or mask >> window_size(typ, h):
            raise ValueError(f"mask has bits outside the height-{h} window")
        s = object.__new__(cls)
        _set_fields(s, typ, h, mask)
        return s

    @property
    def members(self) -> frozenset[Root]:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> list[Root]:
        roots = root_window(self.type, self.H)
        return [roots[k] for k in _bits(self.mask)]

    def __contains__(self, r: Root) -> bool:
        k = _window_index(self.type, self.H)[1].get(r)
        return k is not None and self.mask >> k & 1 == 1

    def __repr__(self):
        return f"WindowSet(type={self.type!r}, H={self.H!r}, members={self.members!r})"


def _set_fields(s: WindowSet, typ: AffineType, h: int, mask: int) -> None:
    _set_type(s, typ)
    _set_H(s, h)
    _set_mask(s, mask)


_set_type, _set_H, _set_mask = _slot_setters(WindowSet)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [k for k, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _full_mask(typ: AffineType, h: int) -> int:
    return (1 << window_size(typ, h)) - 1


def window_set(typ: AffineType, h: int, roots) -> WindowSet:
    return WindowSet(typ, h, frozenset(roots))


@lru_cache(maxsize=64)
def _window_index(typ: AffineType, h: int):
    roots = root_window(typ, h)
    return roots, {r: k for k, r in enumerate(roots)}


@lru_cache(maxsize=64)
def _window_planes(typ: AffineType, h: int) -> tuple[tuple[int, ...], ...]:
    """The rank-2 planes with three or more window roots, as betweenness-
    ordered tuples of indices into root_window(typ, h), in plane-key
    order.  Cached: independent of the set.

    A two-root plane has no root between its roots and imposes nothing, so
    none is built, and no root pair is scanned: a plane holding delta holds
    the roots of one +-Phi_0 class f > -f, has the key rows f / gcd(f) and
    delta, and lists the roots of +f upward, then those of -f downward.
    Any other plane lifts a finite span, one root per class at most, and
    holds three or more roots only if its span is in roots._finite_spans
    and it holds both classes of a base, whose two lifts fix it.  Such a
    lift keeps the span's pivots, so its key is the span's key with each
    row lifted to its delta coordinate, and its betweenness order, read
    off the pivots, is the span's angular order of its roots' signed
    classes, which depends on their finite parts alone."""
    # lifts[f][d] is 2k if root k is (f, d) and 2k + 1 if it is -(f, d)
    lifts: dict[tuple, dict] = {}
    for k, r in enumerate(root_window(typ, h)):
        v = r.vector()
        lifts.setdefault(v[:-1], {})[v[-1]] = 2 * k
        lifts.setdefault(tuple(-x for x in v[:-1]), {})[-v[-1]] = 2 * k + 1
    planes = {}  # plane key -> plane
    delta = (0,) * (typ.dim - 1) + (1,)
    for f, deltas in lifts.items():
        if len(deltas) > 2 and f > negate_class(f):
            g = gcd(*f)
            order = sorted((s & 1, d, s >> 1) for d, s in deltas.items())
            planes[tuple(x // g for x in f) + (0,), delta] = tuple(k for *_, k in order)
    for (r1, r2), ws, bases, arcs in _finite_spans(typ):
        count = len(ws)  # signed class c + count is -ws[c]
        for i, j, coeffs, ((s1, t1, det), (s2, t2, _)) in bases:
            terms = [(lifts.get(w, {}), p, q, c)
                     for c, (w, (p, q)) in enumerate(zip(ws, coeffs))]
            for x in lifts.get(ws[i], ()):
                for y in lifts.get(ws[j], ()):
                    at, bits = {}, 0  # signed class -> root index
                    for deltas, p, q, c in terms:
                        got = deltas.get(p * x + q * y)
                        if got is not None:
                            c += count * (got & 1)
                            at[c] = got >> 1
                            bits |= 1 << c
                    if len(at) > 2:
                        key = (_lift_row(r1, s1 * x + t1 * y, det),
                               _lift_row(r2, s2 * x + t2 * y, det))
                        planes[key] = arcs[bits](at)
    return tuple(planes[key] for key in sorted(planes))


def _lift_row(row, num: int, det: int) -> tuple[int, ...]:
    """The primitive integer row through row + (num / det,), for a
    primitive row with a positive lead and det > 0."""
    g = gcd(num, det)
    if g == det:
        return row + (num // det,)
    return tuple(x * (det // g) for x in row) + (num // g,)


@lru_cache(maxsize=64)
def _plane_table(typ: AffineType, h: int):
    """The planes of _window_planes, in that order, each as (plane, mask,
    fill): a length-3 plane's fill is the bit of its middle root, a longer
    plane's the tuple of its prefix masks (fill[c] is the mask of its
    first c roots in betweenness order)."""
    bit = [1 << k for k in range(window_size(typ, h))]  # shared middle bits
    table = []
    for plane in _window_planes(typ, h):
        if len(plane) == 3:
            a, b, c = plane
            table.append((plane, bit[a] | bit[b] | bit[c], bit[b]))
        else:
            prefix = [0]
            for k in plane:
                prefix.append(prefix[-1] | bit[k])
            table.append((plane, prefix[-1], tuple(prefix)))
    return tuple(table)


@lru_cache(maxsize=64)
def _plane_slots(typ: AffineType, h: int):
    """The bit-sliced view of _plane_table, as (groups, slots).

    The planes are grouped by length.  A group (base, length, count,
    order) gives its planes the slots base + p * count + i, for position
    p of its i-th plane, which is _plane_table entry order[i]; slots[k] is
    the int with a bit at each slot that window root k holds.  The OR of
    the slots of a set's members marks every plane trace at once.
    """
    table = _plane_table(typ, h)
    by_length: dict[int, list[int]] = {}
    for e, (plane, *_) in enumerate(table):
        by_length.setdefault(len(plane), []).append(e)
    groups, base = [], 0
    for length, order in sorted(by_length.items()):
        groups.append((base, length, len(order), tuple(order)))
        base += length * len(order)
    # built as bytes: ORing each slot into an int would copy the int
    rows = [bytearray(base + 7 >> 3) for _ in range(window_size(typ, h))]
    for start, _, count, order in groups:
        for i, e in enumerate(order):
            for p, k in enumerate(table[e][0]):
                slot = start + p * count + i
                rows[k][slot >> 3] |= 1 << (slot & 7)
    return tuple(groups), tuple(int.from_bytes(row, "little") for row in rows)


def _bad_planes(typ: AffineType, h: int, mask: int):
    """Per group of _plane_slots, the group and the bits of its planes
    whose trace of mask is neither a prefix nor a suffix, that is changes
    twice or more along the plane (a set and its complement change at
    the same positions, so the sparser of the two is traced)."""
    groups, slots = _plane_slots(typ, h)
    if 2 * mask.bit_count() > len(slots):
        mask ^= (1 << len(slots)) - 1
    t = 0
    for k in _bits(mask):
        t |= slots[k]
    return _bad_groups(groups, t)


def _bad_groups(groups, t: int):
    """_bad_planes over the given groups, for the slot OR t of a set."""
    for group in groups:
        base, length, count, _ = group
        low = (1 << count) - 1
        g = t >> base
        prev = g & low
        one = two = 0
        for _ in range(1, length):
            g >>= count
            cur = g & low
            change = prev ^ cur
            two |= one & change
            one |= change
            prev = cur
        if two:
            yield group, two


def _first_bad_plane(typ: AffineType, h: int, mask: int):
    """The failing plane with the lowest _plane_table index, or None."""
    firsts = [order[(bad & -bad).bit_length() - 1]
              for (*_, order), bad in _bad_planes(typ, h, mask)]
    return _plane_table(typ, h)[min(firsts)][0] if firsts else None


def _close_mask(mask: int, table) -> int:
    """Fill the interval of every plane trace until nothing changes."""
    changed = True
    while changed:
        changed = False
        for _, plane_mask, fill in table:
            t = mask & plane_mask
            if not t or t == plane_mask:
                continue
            if fill.__class__ is int:  # a length-3 plane and its middle bit
                if t == plane_mask ^ fill:
                    mask |= fill
                    changed = True
                continue
            c = t.bit_count()
            n = len(fill) - 1
            if t == fill[c] or t == plane_mask ^ fill[n - c]:
                continue  # an interval at one end
            lo = 0
            while not fill[lo + 1] & t:
                lo += 1
            hi = n
            while fill[hi - 1] & t == t:
                hi -= 1
            span = fill[hi] ^ fill[lo]
            if span != t:
                mask |= span
                changed = True
    return mask


def close(s: WindowSet) -> WindowSet:
    """Smallest window superset interval-closed in every rank-2 plane.

    Idempotent, extensive and monotone; equals the true closure cut to
    the window whenever the closure stabilizes below the cutoff.
    """
    return WindowSet.from_mask(
        s.type, s.H, _close_mask(s.mask, _plane_table(s.type, s.H)))


def stable_close(typ: AffineType, union: int, h: int) -> WindowSet:
    """The closure of the set with height-2h window mask union, certified
    by agreeing, cut to height h, with the closure of its height-h cut;
    UnstableWindow otherwise.  The 2h window is guarded before anything
    is enumerated."""
    guard_window(typ, 2 * h)
    big = _close_mask(union, _plane_table(typ, 2 * h))
    low = _full_mask(typ, h)
    if big & low != _close_mask(union & low, _plane_table(typ, h)):
        raise UnstableWindow("closure did not stabilize below the cutoff")
    return WindowSet.from_mask(typ, 2 * h, big)


def interior(s: WindowSet) -> WindowSet:
    """Largest window-coclosed subset, via the complement duality."""
    full = _full_mask(s.type, s.H)
    closed = _close_mask(full ^ s.mask, _plane_table(s.type, s.H))
    return WindowSet.from_mask(s.type, s.H, full ^ closed)


class FiniteBiclosedCertificate(_Record):
    """Pass, or a rank-2 witness (alpha, gamma, beta) with gamma strictly
    between alpha and beta; ``violated`` says which half failed."""

    __slots__ = _fields = ("ok", "witness", "violated")

    def __init__(self, ok: bool, witness: tuple[Root, Root, Root] | None = None,
                 violated: str | None = None):
        _set_ok(self, ok)
        _set_witness(self, witness)
        _set_violated(self, violated)  # "closed" | "coclosed"

    def __bool__(self):
        return self.ok


_set_ok, _set_witness, _set_violated = _slot_setters(FiniteBiclosedCertificate)
_PASS = FiniteBiclosedCertificate(True)  # one shared pass certificate


def is_biclosed(s: WindowSet) -> FiniteBiclosedCertificate:
    """Check that every plane trace is a down-set or an up-set.

    The witness comes from the failing plane listed first in
    _window_planes: the first and last roots of the trace with its first
    gap between them ("closed"), or, for a trace without gaps, the first
    and last roots outside it with the trace's first root between them
    ("coclosed").
    """
    plane = _first_bad_plane(s.type, s.H, s.mask)
    if plane is None:
        return _PASS
    roots = root_window(s.type, s.H)
    trace = [s.mask >> k & 1 for k in plane]
    ones = [p for p, t in enumerate(trace) if t]
    gap = next((p for p in range(ones[0] + 1, ones[-1]) if not trace[p]), None)
    if gap is not None:
        ends, mid, violated = ones, gap, "closed"
    else:
        ends = [p for p, t in enumerate(trace) if not t]
        mid = next(p for p in range(ends[0] + 1, ends[-1]) if trace[p])
        violated = "coclosed"
    witness = (roots[plane[ends[0]]], roots[plane[mid]], roots[plane[ends[-1]]])
    return FiniteBiclosedCertificate(False, witness, violated)


def doubling_check(s: WindowSet) -> bool:
    """True iff no three vectors of D(S) = S u -(window\\S) have a
    vanishing positive combination, decided by the bit-sliced plane-trace
    test of is_biclosed through this lemma.

    D(S) holds one of v, -v per window root v, and no two roots are
    parallel, so three vectors of D(S) with a vanishing positive
    combination are pairwise non-parallel and span a rank-2 plane P with
    three or more window roots, a plane of _plane_table.  The window
    roots of P lie in an open half-plane (the sum of simple-root
    coefficients is positive on every positive root), no two are
    parallel (the root system is reduced), and _plane_table lists them
    as v_1, ..., v_m in betweenness order, which is their angular order.
    Three pairwise non-parallel plane vectors have a vanishing positive
    combination iff the negative of one lies strictly between the other
    two.  Let e_k be +1 if v_k is in S and -1 if not, and a < c < b.  If
    e_a = e_b = -e_c, then -e_c v_c = e_a v_c lies strictly between e_a v_a
    and e_b v_b: a vanishing triple.  If the three signs agree, the
    vectors lie in an open half-plane.  If e_a alone differs, the vectors
    e_b (-v_a, v_c, v_b) lie in the arc from v_c to -v_a, shorter than
    pi, and the case e_b alone is the mirror image.  So D(S) has a
    vanishing triple in P iff the trace of S on P shows in-out-in or
    out-in-out, that is iff it is neither a prefix nor a suffix: iff it
    changes twice or more along P.
    """
    return next(_bad_planes(s.type, s.H, s.mask), None) is None


def finite_biclosed_bfs(typ: AffineType, h: int, max_size: int):
    """All finite biclosed window sets of size <= max_size, found from the
    empty set by single-root steps (covers in the weak order), each step
    decided by the bit-sliced plane-trace test of ``is_biclosed``.

    Each frontier set keeps the OR of its members' slots.  It is
    biclosed, so adding root k can break only a plane through k, and
    only the length groups where k has a slot are read.

    Returns a dict frozenset-of-roots -> size.
    """
    roots = root_window(typ, h)
    groups, slots = _plane_slots(typ, h)
    touched = [tuple(g for g in groups if slot >> g[0] & (1 << g[1] * g[2]) - 1)
               for slot in slots]
    found = {0: 0}
    frontier = [(0, 0)]  # (mask, OR of its members' slots)
    for size in range(1, max_size + 1):
        nxt = []
        for mask, t in frontier:
            for k in range(len(roots)):
                cand = mask | 1 << k
                if cand == mask or cand in found:
                    continue
                grown = t | slots[k]
                if next(_bad_groups(touched[k], grown), None) is None:
                    found[cand] = size
                    nxt.append((cand, grown))
        frontier = nxt
    return {frozenset(roots[k] for k in _bits(m)): size for m, size in found.items()}


@lru_cache(maxsize=64)
def _class_tops(typ: AffineType, h: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per Phi_0-class key, the mask of the top half of its window chain:
    its roots above height h // 2, or else its highest root."""
    chains: dict[tuple, list[Root]] = {}
    for r in root_window(typ, h):
        chains.setdefault(finite_class(r), []).append(r)
    _, index = _window_index(typ, h)
    tops = []
    for key, chain in chains.items():
        top = [r for r in chain if r.height > h // 2] or chain[-1:]
        tops.append((key, sum(1 << index[r] for r in top)))
    return tuple(tops)


def b_infinity(s: WindowSet):
    """Estimate B_infinity: for each Phi_0-class, membership if the top
    half of its window chain is constant.

    Returns (frozenset of class keys, stable flag).  Class keys are the
    primitive finite direction vectors from roots.finite_class.
    """
    keys = set()
    stable = True
    for key, top in _class_tops(s.type, s.H):
        t = s.mask & top
        if t == top:
            keys.add(key)
        elif t:
            stable = False
    return frozenset(keys), stable


def commensurable(s: WindowSet, t: WindowSet) -> bool:
    """True iff the two sets have equal stable B_infinity estimates."""
    if s.type != t.type or s.H != t.H:
        raise ValueError("commensurable needs matching type and cutoff")
    bs, stable_s = b_infinity(s)
    bt, stable_t = b_infinity(t)
    if not (stable_s and stable_t):
        raise UnstableCutoff("b_infinity unstable at this cutoff; enlarge H")
    return bs == bt
