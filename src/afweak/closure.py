"""Windowed brute-force layer: closure, interior, biclosedness, B_infinity.

Everything here works on explicit finite sets of canonical roots of
delta-height at most H.  Closure is computed by interval filling inside
every rank-2 plane meeting the window (pairwise root sums are not enough:
a B2 plane can force a half-sum and an affine A~1 plane forces a whole
delta-string).  Results are truncations; callers needing exactness use
stable_close, the one implementation of the h/2h stability protocol:
close on the 2h window and require its cut to height h to equal the
closure of the height-h window.
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
)


@dataclass(frozen=True)
class WindowSet:
    """A finite set of canonical roots of height <= H."""

    type: AffineType
    H: int
    members: frozenset[Root]

    def __post_init__(self):
        guard_window(self.type, self.H)
        window = set(root_window(self.type, self.H))
        bad = [r for r in self.members if r not in window]
        if bad:
            raise ValueError(f"roots outside the height-{self.H} window: {bad}")

    def sorted_members(self) -> list[Root]:
        return sorted(self.members, key=Root.sort_key)

    def __contains__(self, r: Root) -> bool:
        return r in self.members


def window_set(typ: AffineType, h: int, roots) -> WindowSet:
    return WindowSet(typ, h, frozenset(roots))


def full_window(typ: AffineType, h: int) -> WindowSet:
    return WindowSet(typ, h, frozenset(root_window(typ, h)))


@lru_cache(maxsize=64)
def _window_index(typ: AffineType, h: int):
    roots = root_window(typ, h)
    return roots, {r: k for k, r in enumerate(roots)}


@lru_cache(maxsize=64)
def _window_vectors(typ: AffineType, h: int) -> tuple[tuple[int, ...], ...]:
    """Integer vectors of root_window(typ, h), in the same order."""
    return tuple(r.vector() for r in root_window(typ, h))


@lru_cache(maxsize=64)
def _window_planes(typ: AffineType, h: int) -> tuple[tuple[int, ...], ...]:
    """All rank-2 planes meeting the window, as betweenness-ordered tuples
    of indices into root_window(typ, h).  Cached: independent of the set."""
    roots, index = _window_index(typ, h)
    vecs = _window_vectors(typ, h)
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


def close(s: WindowSet) -> WindowSet:
    """Smallest window superset interval-closed in every rank-2 plane.

    Idempotent, extensive and monotone; equals the true closure cut to
    the window whenever the closure stabilizes below the cutoff.
    """
    typ, h = s.type, s.H
    roots, index = _window_index(typ, h)
    planes = _window_planes(typ, h)
    inset = bytearray(len(roots))
    for r in s.members:
        inset[index[r]] = 1
    changed = True
    while changed:
        changed = False
        for plane in planes:
            first = last = -1
            for pos, k in enumerate(plane):
                if inset[k]:
                    if first < 0:
                        first = pos
                    last = pos
            if first < 0:
                continue
            for pos in range(first + 1, last):
                k = plane[pos]
                if not inset[k]:
                    inset[k] = 1
                    changed = True
    return WindowSet(typ, h, frozenset(r for k, r in enumerate(roots) if inset[k]))


def stable_close(typ: AffineType, inside, h: int) -> WindowSet:
    """The closure of {r : inside(r)} on the height-2h window, certified
    by agreeing, cut to height h, with the closure of the height-h window;
    UnstableWindow otherwise.  The 2h window is guarded before anything
    is enumerated."""
    guard_window(typ, 2 * h)
    union = frozenset(r for r in root_window(typ, 2 * h) if inside(r))
    big = close(WindowSet(typ, 2 * h, union))
    small = close(WindowSet(typ, h, frozenset(r for r in union if r.height <= h)))
    if frozenset(r for r in big.members if r.height <= h) != small.members:
        raise UnstableWindow("closure did not stabilize below the cutoff")
    return big


def interior(s: WindowSet) -> WindowSet:
    """Largest window-coclosed subset, via the complement duality."""
    typ, h = s.type, s.H
    complement = frozenset(root_window(typ, h)) - s.members
    closed = close(WindowSet(typ, h, complement))
    return WindowSet(typ, h, frozenset(root_window(typ, h)) - closed.members)


@dataclass(frozen=True)
class FiniteBiclosedCertificate:
    """Pass, or a rank-2 witness (alpha, gamma, beta) with gamma strictly
    between alpha and beta; ``violated`` says which half failed."""

    ok: bool
    witness: tuple[Root, Root, Root] | None = None
    violated: str | None = None  # "closed" | "coclosed"

    def __bool__(self):
        return self.ok


def is_biclosed(s: WindowSet) -> FiniteBiclosedCertificate:
    """Check that every plane trace is a down-set or an up-set."""
    typ, h = s.type, s.H
    roots, index = _window_index(typ, h)
    planes = _window_planes(typ, h)
    inset = bytearray(len(roots))
    for r in s.members:
        inset[index[r]] = 1
    for plane in planes:
        trace = [inset[k] for k in plane]
        ones = [p for p, t in enumerate(trace) if t]
        if not ones:
            continue
        gap = next(
            (p for p in range(ones[0] + 1, ones[-1]) if not trace[p]), None
        )
        if gap is not None:
            return FiniteBiclosedCertificate(
                False,
                (roots[plane[ones[0]]], roots[plane[gap]], roots[plane[ones[-1]]]),
                "closed",
            )
        zeros = [p for p, t in enumerate(trace) if not t]
        if zeros:
            mid = next(
                (p for p in range(zeros[0] + 1, zeros[-1]) if trace[p]), None
            )
            if mid is not None:
                return FiniteBiclosedCertificate(
                    False,
                    (roots[plane[zeros[0]]], roots[plane[mid]], roots[plane[zeros[-1]]]),
                    "coclosed",
                )
    return FiniteBiclosedCertificate(True)


def _pivots(u, v) -> tuple[int, int]:
    """Two coordinates onto which the span of independent u, v projects
    isomorphically: the first non-zero column, then the first later one
    with a non-zero 2x2 minor."""
    p = 0
    while not (u[p] or v[p]):
        p += 1
    q = p + 1
    while u[p] * v[q] == u[q] * v[p]:
        q += 1
    return p, q


def doubling_check(s: WindowSet) -> bool:
    """True iff no triple of D(S) = S u -(window\\S) has a vanishing
    positive combination, searching each rank-2 plane of the window.

    Exact in integers: each plane is projected onto two pivot
    coordinates, a linear isomorphism onto Z^2, so the sign tests on
    the projected vectors decide the plane's cone geometry.
    """
    typ, h = s.type, s.H
    roots, index = _window_index(typ, h)
    vecs = _window_vectors(typ, h)
    inset = bytearray(len(roots))
    for r in s.members:
        inset[index[r]] = 1
    for plane in _window_planes(typ, h):
        if len(plane) < 3:
            continue  # a vanishing combination needs three vectors
        p, q = _pivots(vecs[plane[0]], vecs[plane[-1]])
        dvecs = [
            (vecs[k][p], vecs[k][q]) if inset[k] else (-vecs[k][p], -vecs[k][q])
            for k in plane
        ]
        m = len(dvecs)
        for a in range(m):
            xa, ya = dvecs[a]
            for b in range(a + 1, m):
                xb, yb = dvecs[b]
                det = xa * yb - ya * xb
                if det == 0:
                    continue
                sgn = 1 if det > 0 else -1
                for c in range(b + 1, m):
                    xc, yc = dvecs[c]
                    # -(c) = x*(a) + y*(b) with x, y > 0: both Cramer
                    # numerators have the sign of det
                    if (sgn * (yc * xb - xc * yb) > 0
                            and sgn * (xc * ya - yc * xa) > 0):
                        return False
    return True


@lru_cache(maxsize=64)
def _planes_through(typ: AffineType, h: int):
    """For each window root index, the planes containing it."""
    roots, _ = _window_index(typ, h)
    planes = _window_planes(typ, h)
    through: list[list[tuple[int, ...]]] = [[] for _ in roots]
    for plane in planes:
        for k in plane:
            through[k].append(plane)
    return tuple(tuple(ps) for ps in through)


def _still_biclosed(typ, h, inset, new_idx) -> bool:
    """Whether a biclosed window set stays biclosed after adding one root.

    Any new rank-2 violation must involve the added root, so only its
    planes need rechecking.
    """
    for plane in _planes_through(typ, h)[new_idx]:
        trace = [inset[k] or k == new_idx for k in plane]
        ones = [p for p, t in enumerate(trace) if t]
        if any(not trace[p] for p in range(ones[0] + 1, ones[-1])):
            return False
        zeros = [p for p, t in enumerate(trace) if not t]
        if zeros and any(trace[p] for p in range(zeros[0] + 1, zeros[-1])):
            return False
    return True


def finite_biclosed_bfs(typ: AffineType, h: int, max_size: int):
    """All finite biclosed window sets of size <= max_size, found from the
    empty set by single-root steps (covers in the weak order).

    Returns a dict frozenset-of-roots -> size.
    """
    roots, _ = _window_index(typ, h)
    found: dict[frozenset[Root], int] = {frozenset(): 0}
    frontier: list[tuple[frozenset[Root], bytearray]] = [
        (frozenset(), bytearray(len(roots)))
    ]
    for size in range(1, max_size + 1):
        nxt = []
        for s, inset in frontier:
            for k, r in enumerate(roots):
                if inset[k]:
                    continue
                cand = s | {r}
                if cand in found:
                    continue
                if _still_biclosed(typ, h, inset, k):
                    found[cand] = size
                    mask = bytearray(inset)
                    mask[k] = 1
                    nxt.append((cand, mask))
        frontier = nxt
    return found


def b_infinity(s: WindowSet):
    """Estimate B_infinity: for each Phi_0-class, membership if the top
    half of its window chain is constant.

    Returns (frozenset of class keys, stable flag).  Class keys are the
    primitive finite direction vectors from roots.finite_class.
    """
    chains: dict[tuple, list[Root]] = {}
    for r in root_window(s.type, s.H):
        chains.setdefault(finite_class(r), []).append(r)
    half = s.H // 2
    keys = set()
    stable = True
    for key, chain in sorted(chains.items()):
        top = [r for r in chain if r.height > half] or chain[-1:]
        bits = {r in s.members for r in top}
        if len(bits) > 1:
            stable = False
        elif bits == {True}:
            keys.add(key)
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
