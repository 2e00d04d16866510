"""Windowed brute-force layer: closure, interior, biclosedness, B_infinity.

Everything here works on explicit finite sets of canonical roots of
delta-height at most H.  A window set is a Python-int bitmask over the
indices of root_window(type, H), whose order is (height, i, j); the
height-h window is the first window_size(type, h) indices of every
larger one, so cutting a set to height h is one AND.

Biclosedness is a rank-2 condition: a root strictly between two roots
of a rank-2 plane is forced in when both are in and out when both are
out.  A plane with only two window roots has no root between them and
imposes nothing, so the plane tests read _plane_table, the planes with
three or more window roots, each with the masks of its prefixes and
suffixes in betweenness order.  A trace (a set cut to one plane) is
biclosed iff it is a prefix or a suffix.  The doubling criterion is the
same test: three vectors of D(S) = S u -(window\\S) in one plane have a
vanishing positive combination iff the trace shows in-out-in or
out-in-out (doubling_check proves it).  Closure fills the interval
between the first and last roots of every trace (pairwise root sums are
not enough: a B2 plane can force a half-sum and an affine A~1 plane
forces a whole delta-string).  Results are truncations; callers needing
exactness use stable_close, the one implementation of the h/2h
stability protocol: close on the 2h window and require its cut to
height h to equal the closure of the height-h window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import UnstableCutoff, UnstableWindow
from .roots import (
    AffineType,
    Root,
    _angular_sort,
    _rref_plane_key,
    finite_class,
    guard_window,
    root_window,
    window_size,
)


@dataclass(frozen=True, init=False, repr=False, slots=True)
class WindowSet:
    """A finite set of canonical roots of height <= H, held as a bitmask
    over the indices of root_window(type, H); ``members`` builds the
    frozenset of roots on each access."""

    type: AffineType
    H: int
    mask: int

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
    object.__setattr__(s, "type", typ)
    object.__setattr__(s, "H", h)
    object.__setattr__(s, "mask", mask)


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
    """All rank-2 planes meeting the window, as betweenness-ordered tuples
    of indices into root_window(typ, h).  Cached: independent of the set."""
    roots = root_window(typ, h)
    vecs = [r.vector() for r in roots]
    by_plane: dict[tuple, set[int]] = {}
    n = len(roots)
    for p in range(n):
        for q in range(p + 1, n):
            key = _rref_plane_key(vecs[p], vecs[q])
            if key is None:
                continue
            by_plane.setdefault(key, set()).update((p, q))
    return tuple(tuple(_angular_sort(key, sorted(ids), vecs.__getitem__))
                 for key, ids in sorted(by_plane.items()))


@lru_cache(maxsize=64)
def _plane_table(typ: AffineType, h: int):
    """The planes of _window_planes with three or more window roots, each
    as (plane, mask, prefix, suffix): prefix[c] and suffix[c] are the
    masks of the plane's first and last c roots in betweenness order."""
    table = []
    for plane in _window_planes(typ, h):
        if len(plane) < 3:
            continue
        prefix, suffix = [0], [0]
        for k, j in zip(plane, reversed(plane)):
            prefix.append(prefix[-1] | 1 << k)
            suffix.append(suffix[-1] | 1 << j)
        table.append((plane, prefix[-1], tuple(prefix), tuple(suffix)))
    return tuple(table)


def _bad_plane(mask: int, entries):
    """The first plane entry whose trace of mask is neither a prefix nor a
    suffix (the empty and full traces are both), or None."""
    for entry in entries:
        t = mask & entry[1]
        c = t.bit_count()
        if t != entry[2][c] and t != entry[3][c]:
            return entry
    return None


def _close_mask(mask: int, table) -> int:
    """Fill the interval of every plane trace until nothing changes."""
    changed = True
    while changed:
        changed = False
        for _, plane_mask, prefix, suffix in table:
            t = mask & plane_mask
            c = t.bit_count()
            if t == prefix[c] or t == suffix[c]:
                continue  # empty, full, or an interval at one end
            lo = 0
            while not prefix[lo + 1] & t:
                lo += 1
            hi = len(prefix) - 1
            while prefix[hi - 1] & t == t:
                hi -= 1
            fill = prefix[hi] ^ prefix[lo]
            if fill != t:
                mask |= fill
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


@dataclass(frozen=True, slots=True)
class FiniteBiclosedCertificate:
    """Pass, or a rank-2 witness (alpha, gamma, beta) with gamma strictly
    between alpha and beta; ``violated`` says which half failed."""

    ok: bool
    witness: tuple[Root, Root, Root] | None = None
    violated: str | None = None  # "closed" | "coclosed"

    def __bool__(self):
        return self.ok


_PASS = FiniteBiclosedCertificate(True)  # one shared pass certificate


def is_biclosed(s: WindowSet) -> FiniteBiclosedCertificate:
    """Check that every plane trace is a down-set or an up-set.

    The witness comes from the first plane that fails: the first and
    last roots of the trace with its first gap between them ("closed"),
    or, for a trace without gaps, the first and last roots outside it
    with the trace's first root between them ("coclosed").
    """
    entry = _bad_plane(s.mask, _plane_table(s.type, s.H))
    if entry is None:
        return _PASS
    roots, plane = root_window(s.type, s.H), entry[0]
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
    vanishing positive combination, decided by the plane-trace test of
    is_biclosed through this lemma.

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
    out-in-out, that is iff it is neither a prefix nor a suffix.
    """
    return _bad_plane(s.mask, _plane_table(s.type, s.H)) is None


@lru_cache(maxsize=64)
def _planes_through(typ: AffineType, h: int):
    """For each window root index, the _plane_table entries containing it."""
    through: list[list[tuple]] = [[] for _ in root_window(typ, h)]
    for entry in _plane_table(typ, h):
        for k in entry[0]:
            through[k].append(entry)
    return tuple(tuple(es) for es in through)


def _still_biclosed(typ, h, mask: int, new_idx: int) -> bool:
    """Whether a biclosed window set stays biclosed after adding one root.

    Any new rank-2 violation must involve the added root, so only its
    planes need rechecking.
    """
    return _bad_plane(mask | 1 << new_idx, _planes_through(typ, h)[new_idx]) is None


def finite_biclosed_bfs(typ: AffineType, h: int, max_size: int):
    """All finite biclosed window sets of size <= max_size, found from the
    empty set by single-root steps (covers in the weak order).

    Returns a dict frozenset-of-roots -> size.
    """
    roots = root_window(typ, h)
    found = {0: 0}
    frontier = [0]
    for size in range(1, max_size + 1):
        nxt = []
        for mask in frontier:
            for k in range(len(roots)):
                cand = mask | 1 << k
                if cand == mask or cand in found:
                    continue
                if _still_biclosed(typ, h, mask, k):
                    found[cand] = size
                    nxt.append(cand)
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
