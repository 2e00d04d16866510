"""The windowed oracle layer: closure, interior, certificates, B_infinity."""

import dataclasses
import functools
import itertools
import os
import random
import re
from fractions import Fraction

import pytest

from afweak.closure import (
    FiniteBiclosedCertificate,
    WindowSet,
    b_infinity,
    close,
    commensurable,
    doubling_check,
    finite_biclosed_bfs,
    interior,
    is_biclosed,
    stable_close,
    window_set,
    _plane_table,
    _still_biclosed,
    _window_index,
    _window_planes,
)
from afweak.errors import TooLarge, UnstableCutoff, UnstableWindow
from afweak.perms import (
    elements_up_to_length,
    inversions,
    multiply,
    simple_reflections,
)
from afweak.roots import (
    MAX_WINDOW_ROOTS,
    AffineType,
    _rref_plane_key,
    _solve_in_plane,
    canonical_root,
    root_window,
    window_size,
)
from afweak.verify import random_triple

A2 = AffineType("A", 2)
A3 = AffineType("A", 3)
A4 = AffineType("A", 4)
FAMILIES = (
    AffineType("A", 3),
    AffineType("C", 2),
    AffineType("B", 2),
    AffineType("D", 2),
)


def test_close_empty_and_worked_example():
    assert close(window_set(A4, 5, [])).members == frozenset()
    seed = [
        canonical_root(A4, 0, 1),
        canonical_root(A4, 0, 2),
        canonical_root(A4, 2, 3),
        canonical_root(A4, 2, 4),
    ]
    got = close(window_set(A4, 5, seed)).members
    expect = frozenset(
        r
        for r in root_window(A4, 5)
        if (r.i == 0 and r.j % 4 != 0) or (r.i == 2 and r.j % 4 != 2)
    )
    assert got == expect


def test_close_fills_affine_strings():
    got = close(
        window_set(A4, 5, [canonical_root(A4, 0, 2), canonical_root(A4, 2, 4)])
    ).members
    for k in range(6):
        assert canonical_root(A4, 0, 2 + 4 * k) in got
        assert canonical_root(A4, 2, 4 + 4 * k) in got


def test_closure_operator_laws():
    rng = random.Random(0)
    for typ in FAMILIES:
        window = root_window(typ, 4)
        for _ in range(12):
            s = window_set(typ, 4, rng.sample(window, rng.randrange(len(window) // 2)))
            t = window_set(typ, 4, s.members | frozenset(rng.sample(window, 3)))
            cs, ct = close(s), close(t)
            assert s.members <= cs.members
            assert close(cs).members == cs.members
            assert cs.members <= ct.members
            i = interior(s)
            assert i.members <= s.members
            assert interior(i).members == i.members
            assert interior(t).members >= i.members
            # exact duality
            comp = window_set(typ, 4, frozenset(window) - s.members)
            assert i.members == frozenset(window) - close(comp).members
            assert interior(close(s)).members >= interior(s).members


def test_close_is_order_independent():
    # recompute the closure by a randomized single-plane fixpoint
    rng = random.Random(1)
    for typ in FAMILIES:
        roots, index = _window_index(typ, 4)
        planes = list(_window_planes(typ, 4))
        window = root_window(typ, 4)
        for _ in range(6):
            s = window_set(typ, 4, rng.sample(window, rng.randrange(10)))
            want = close(s).members
            got = set(s.members)
            changed = True
            while changed:
                changed = False
                rng.shuffle(planes)
                for plane in planes:
                    hits = [p for p, k in enumerate(plane) if roots[k] in got]
                    if not hits:
                        continue
                    for p in range(hits[0] + 1, hits[-1]):
                        if roots[plane[p]] not in got:
                            got.add(roots[plane[p]])
                            changed = True
            assert got == want


def test_interior_examples():
    w = window_set(A2, 3, root_window(A2, 3))
    assert interior(w).members == w.members
    lone = window_set(A2, 3, [canonical_root(A2, 0, 3)])
    assert interior(lone).members == frozenset()


def test_is_biclosed_examples():
    a0 = canonical_root(A2, 0, 1)
    assert is_biclosed(window_set(A2, 3, [a0])).ok
    blue = [canonical_root(A2, 0, 1 + 2 * k) for k in range(4)]
    assert is_biclosed(window_set(A2, 3, blue)).ok
    cert = is_biclosed(window_set(A2, 3, [canonical_root(A2, 0, 3)]))
    assert not cert.ok and cert.violated == "coclosed"
    a, g, b = cert.witness
    assert g == canonical_root(A2, 0, 3)
    # the witness is strictly between its ends in some plane order
    from afweak.roots import rank2_subsystem

    sub = rank2_subsystem(a, b)
    win = sub.ordered_window(4)
    assert win.index(a) < win.index(g) < win.index(b) or (
        win.index(b) < win.index(g) < win.index(a)
    )


def test_a_pass_certificate_is_shared_and_a_failure_is_fresh():
    from afweak.errors import NotBiclosed
    from afweak.fan import classify
    from afweak.lattice import TryJoinResult

    d4 = AffineType("D", 4)
    ok = [is_biclosed(window_set(A2, 3, [])),
          is_biclosed(window_set(d4, 2, root_window(d4, 2)))]
    assert ok[0] is ok[1] == FiniteBiclosedCertificate(True)
    bad = window_set(A2, 3, [canonical_root(A2, 0, 3)])
    first, again = is_biclosed(bad), is_biclosed(bad)
    assert first is not again and first == again and hash(first) == hash(again)
    assert first.witness is not None and first.violated == "coclosed"
    with pytest.raises(NotBiclosed) as err:
        classify(bad)
    assert err.value.witness == first and err.value.witness is not first
    # slotted: no per-instance dict, and the repr of the plain dataclass
    res = TryJoinResult(False, None, first)
    for obj in (first, res):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.ok = True
    assert repr(ok[0]) == (
        "FiniteBiclosedCertificate(ok=True, witness=None, violated=None)")
    assert repr(res) == f"TryJoinResult(ok=False, triple=None, witness={first!r})"


def test_figure_two_other_examples():
    # the finite up-set {a1, a1+d} and the cofinite set missing only a0
    a1 = [canonical_root(A2, 1, 2), canonical_root(A2, 1, 4)]
    assert is_biclosed(window_set(A2, 4, a1)).ok
    cofinite = frozenset(root_window(A2, 4)) - {canonical_root(A2, 0, 1)}
    assert is_biclosed(window_set(A2, 4, cofinite)).ok


def test_doubling_examples():
    assert doubling_check(window_set(A2, 3, []))
    assert not doubling_check(window_set(A2, 3, [canonical_root(A2, 0, 3)]))
    s = simple_reflections(A4)
    w = multiply(s[0], s[1])
    assert doubling_check(window_set(A4, 3, inversions(w)))


def test_doubling_agrees_with_the_cone_search_on_stable_sets():
    # truncations of genuinely biclosed sets pass the doubling criterion;
    # on them and on small finite candidates the bitmask plane-trace test
    # answers as the rational cone search below does
    rng = random.Random(2)
    for typ in FAMILIES:
        for w, l in elements_up_to_length(typ, 4).items():
            s = window_set(typ, 4, inversions(w))
            assert doubling_check(s) and _reference_doubling(s), s
        window = root_window(typ, 4)
        low = [r for r in window if r.height <= 1]
        for _ in range(20):
            s = window_set(typ, 4, rng.sample(low, rng.randrange(1, 5)))
            assert doubling_check(s) == _reference_doubling(s), s


@functools.lru_cache(maxsize=None)
def _reference_planes(typ, h):
    """The planes of _window_planes with three or more window roots (a
    vanishing combination needs three vectors), each with the rational
    coordinates of its roots in the plane's RREF basis."""
    roots, _ = _window_index(typ, h)
    planes = []
    for plane in _window_planes(typ, h):
        if len(plane) >= 3:
            basis = _rref_plane_key(roots[plane[0]].vector(), roots[plane[-1]].vector())
            planes.append((plane, [_solve_in_plane(basis, roots[k].vector())
                                   for k in plane]))
    return planes


def _reference_doubling(s):
    """The doubling criterion by a cone search over the rationals: in
    plane coordinates, does some triple of D(S) have a vanishing positive
    combination (Fraction Cramer quotients)?"""
    roots, members = root_window(s.type, s.H), s.members
    for plane, coords in _reference_planes(s.type, s.H):
        dvecs = [(x, y) if roots[k] in members else (-x, -y)
                 for k, (x, y) in zip(plane, coords)]
        for (xa, ya), (xb, yb), (xc, yc) in itertools.combinations(dvecs, 3):
            det = xa * yb - ya * xb
            if (det and Fraction(yc * xb - xc * yb, det) > 0
                    and Fraction(xc * ya - yc * xa, det) > 0):
                return False
    return True


def test_doubling_matches_rational_reference():
    # windows of random triples, one-root flips, unions and intersections
    # of two windows and random subsets, at small heights and at the
    # window-oracle sizes D4 h=6 and A5 h=5; every type gives both answers
    rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")))
    for typ, heights in (
        (A3, (4, 5, 6)), (AffineType("B", 3), (4, 5, 6)),
        (AffineType("C", 2), (4, 5, 6)), (AffineType("D", 3), (4, 5, 6)),
        (AffineType("D", 4), (6,)), (AffineType("A", 5), (5,)),
    ):
        answers = set()
        for h in heights:
            window = root_window(typ, h)
            w1, w2 = (random_triple(typ, rng).window(h).members for _ in range(2))
            for members in (
                w1, w2, w1 ^ {rng.choice(window)}, w2 ^ {rng.choice(window)},
                w1 | w2, w1 & w2,
                frozenset(rng.sample(window, rng.randrange(len(window) + 1))),
            ):
                s = WindowSet(typ, h, members)
                got = doubling_check(s)
                assert got == _reference_doubling(s), (typ, h, s.sorted_members())
                answers.add(got)
        assert answers == {True, False}, typ


def test_plane_table_is_strictly_angular():
    # the precondition of doubling_check's lemma: projected onto two
    # coordinates with a non-zero 2x2 minor (an isomorphism of the plane
    # onto Q^2), every pair a < b of a plane's roots in table order has a
    # non-zero determinant of one fixed sign, so the roots are pairwise
    # non-parallel, lie in an open half-plane and come in angular order
    for typ, h in (
        (AffineType("A", 5), 5), (AffineType("B", 3), 6),
        (AffineType("C", 3), 5), (AffineType("D", 4), 6),
        (A2, 4), (A3, 5), (AffineType("B", 2), 5), (AffineType("C", 2), 5),
        (AffineType("D", 3), 4),
    ):
        vecs = [r.vector() for r in root_window(typ, h)]
        for plane, *_ in _plane_table(typ, h):
            u, v = vecs[plane[0]], vecs[plane[-1]]
            p, q = next((p, q) for p, q in itertools.combinations(range(len(u)), 2)
                        if u[p] * v[q] != u[q] * v[p])
            xy = [(vecs[k][p], vecs[k][q]) for k in plane]
            signs = {(xa * yb > ya * xb) - (xa * yb < ya * xb)
                     for (xa, ya), (xb, yb) in itertools.combinations(xy, 2)}
            assert signs in ({1}, {-1}), (typ, h, plane)


def test_b_infinity_examples():
    blue = window_set(A2, 6, [canonical_root(A2, 0, 1 + 2 * k) for k in range(7)])
    keys, stable = b_infinity(blue)
    assert stable and keys == frozenset({(-1, 1)})
    s = simple_reflections(A4)
    w = multiply(s[0], s[1])
    nw = window_set(A4, 6, inversions(w))
    assert b_infinity(nw) == (frozenset(), True)
    co = window_set(A4, 6, frozenset(root_window(A4, 6)) - inversions(w))
    keys, stable = b_infinity(co)
    assert stable and len(keys) == 12  # every finite class, both signs


def test_b_infinity_alternation_unstable():
    # alternate inside one delta-string near the cutoff
    picks = [canonical_root(A2, 0, 1 + 2 * k) for k in range(0, 7, 2)]
    keys, stable = b_infinity(window_set(A2, 6, picks))
    assert not stable


def test_commensurable():
    s = simple_reflections(A4)
    nu = window_set(A4, 6, inversions(s[0]))
    nw = window_set(A4, 6, inversions(multiply(s[0], s[1])))
    assert commensurable(nu, nw)
    blue = window_set(A2, 6, [canonical_root(A2, 0, 1 + 2 * k) for k in range(7)])
    empty = window_set(A2, 6, [])
    assert not commensurable(blue, empty)
    picks = [canonical_root(A2, 0, 1 + 2 * k) for k in range(0, 7, 2)]
    with pytest.raises(UnstableCutoff):
        commensurable(window_set(A2, 6, picks), empty)


def test_stable_close_certificate(monkeypatch):
    # found by a seeded search over random two-root sets: (2, 6) lies
    # between (2, 3) and (2, 9) in an affine A~1 string, so the 2h closure
    # puts it below the cutoff while the h window's own closure does not
    seed = frozenset([canonical_root(A3, 2, 3), canonical_root(A3, 2, 9)])
    with pytest.raises(UnstableWindow, match="did not stabilize"):
        stable_close(A3, window_set(A3, 2, seed).mask, 1)
    big = stable_close(A3, window_set(A3, 4, seed).mask, 2)
    assert big.H == 4 and big.members == close(window_set(A3, 4, seed)).members

    def enumerate_window(typ, h):
        raise AssertionError("enumerated before the guard")

    for name in ("root_window", "_window_index", "_plane_table"):
        monkeypatch.setattr(f"afweak.closure.{name}", enumerate_window)
    A5 = AffineType("A", 5)
    with pytest.raises(TooLarge):
        stable_close(A5, 0, 7)  # the height-14 window, not the height-7 one
    with pytest.raises(ValueError, match=">= 0"):
        stable_close(A5, 0, -1)


def test_window_validation():
    outside, inside = canonical_root(A2, 0, 5), canonical_root(A2, 0, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"roots outside the height-1 window: [{outside!r}]")):
        WindowSet(A2, 1, frozenset([outside]))
    # the offending roots are listed as the input gives them
    with pytest.raises(ValueError, match=re.escape(
            f"roots outside the height-1 window: [{outside!r}, {outside!r}]")):
        WindowSet(A2, 1, [outside, inside, outside])
    with pytest.raises(ValueError, match=">= 0"):
        WindowSet(A2, -1, [])
    big = AffineType("A", 6)
    assert window_size(big, 8) > MAX_WINDOW_ROOTS
    with pytest.raises(TooLarge):
        WindowSet(big, 8, [])
    with pytest.raises(TooLarge):
        WindowSet.from_mask(big, 8, 0)
    with pytest.raises(ValueError, match="outside the height-1 window"):
        WindowSet.from_mask(A2, 1, 1 << window_size(A2, 1))
    with pytest.raises(ValueError, match="outside the height-1 window"):
        WindowSet.from_mask(A2, 1, -1)


def test_window_set_contract():
    typ, h = AffineType("B", 2), 3
    window = root_window(typ, h)
    members = frozenset(random.Random(3).sample(window, 7))
    a = WindowSet(typ, h, members)
    b = WindowSet(typ, h, list(members))
    c = WindowSet(typ, h, (r for r in window if r in members))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c, window_set(typ, h, members)}) == 1
    assert a.members == members and WindowSet(typ, h, a.members) == a
    assert a.sorted_members() == sorted(members, key=lambda r: r.sort_key())
    assert a != WindowSet(typ, h, members - {a.sorted_members()[0]})
    # the same roots under another cutoff make another window set
    assert WindowSet(typ, h + 1, members) != a
    assert WindowSet(typ, h, []) != WindowSet(typ, h + 1, [])
    assert all((r in a) == (r in members) for r in window)
    above = next(r for r in root_window(typ, h + 1) if r.height > h)
    full = window_set(typ, h, window)
    assert above not in a and above not in full
    assert canonical_root(A2, 0, 1) not in full
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.mask = 0
    # the repr of the frozen dataclass over (type, H, members)
    assert repr(WindowSet(A2, 3, [])) == (
        "WindowSet(type=AffineType('A', 2), H=3, members=frozenset())")
    assert repr(window_set(A2, 3, [canonical_root(A2, 0, 3)])) == (
        "WindowSet(type=AffineType('A', 2), H=3, members=frozenset({Root(A2:0,3)}))")
    # the height-h window leads every larger one, so a cut to height h
    # (stable_close) keeps the low bits of a mask
    for t in FAMILIES + (typ,):
        for k in range(4):
            assert root_window(t, 2 * k)[:window_size(t, k)] == root_window(t, k)


def test_finite_bfs_small():
    # the sizes the finite-enumeration suite of verify uses
    for typ in (A2, A3, AffineType("B", 2), AffineType("C", 2)):
        target = {
            inversions(w): l for w, l in elements_up_to_length(typ, 4).items()
        }
        assert finite_biclosed_bfs(typ, 6, 4) == target


# The list-walking plane scans that the bitmask layer replaced, kept as
# the reference: each walks every plane of _window_planes, two-root planes
# included, as a list of 0/1 flags in betweenness order.


def _reference_inset(s):
    roots, index = _window_index(s.type, s.H)
    inset = bytearray(len(roots))
    for r in s.members:
        inset[index[r]] = 1
    return roots, inset


def _reference_close(s):
    roots, inset = _reference_inset(s)
    changed = True
    while changed:
        changed = False
        for plane in _window_planes(s.type, s.H):
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
    return frozenset(r for k, r in enumerate(roots) if inset[k])


def _reference_interior(s):
    window = frozenset(root_window(s.type, s.H))
    return window - _reference_close(WindowSet(s.type, s.H, window - s.members))


def _reference_is_biclosed(s):
    roots, inset = _reference_inset(s)
    for plane in _window_planes(s.type, s.H):
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


def _reference_still_biclosed(typ, h, inset, new_idx):
    for plane in _window_planes(typ, h):
        if new_idx not in plane:
            continue
        trace = [inset[k] or k == new_idx for k in plane]
        ones = [p for p, t in enumerate(trace) if t]
        if any(not trace[p] for p in range(ones[0] + 1, ones[-1])):
            return False
        zeros = [p for p, t in enumerate(trace) if not t]
        if zeros and any(trace[p] for p in range(zeros[0] + 1, zeros[-1])):
            return False
    return True


def _sample_sets(typ, h, rng):
    """Windows of random triples, their one-root flips, unions of two of
    them, random subsets, and the complements of all of these."""
    window = root_window(typ, h)
    wins = [random_triple(typ, rng).window(h).members for _ in range(3)]
    sets = wins + [w ^ {rng.choice(window)} for w in wins]
    sets += [wins[0] | wins[1], wins[1] | wins[2]]
    sets += [frozenset(rng.sample(window, rng.randrange(len(window) + 1)))
             for _ in range(2)]
    return sets + [frozenset(window) - s for s in sets]


def test_bitmask_layer_matches_the_list_reference():
    rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")))
    violated, still = set(), set()
    for typ, h in (
        (AffineType("A", 5), 5), (AffineType("B", 3), 6),
        (AffineType("C", 3), 5), (AffineType("D", 4), 6),
        (A2, 4), (AffineType("B", 2), 5), (AffineType("C", 2), 5),
        (AffineType("D", 3), 4),
    ):
        for members in _sample_sets(typ, h, rng):
            s = WindowSet(typ, h, members)
            where = (typ, h, s.sorted_members())
            assert close(s).members == _reference_close(s), where
            assert interior(s).members == _reference_interior(s), where
            cert = is_biclosed(s)
            assert cert == _reference_is_biclosed(s), where
            violated.add(cert.violated)
            _, inset = _reference_inset(s)
            for k in rng.sample(range(len(inset)), 8):
                got = _still_biclosed(typ, h, s.mask, k)
                assert got == _reference_still_biclosed(typ, h, inset, k), (where, k)
                still.add(got)
    assert violated == {None, "closed", "coclosed"} and still == {True, False}
