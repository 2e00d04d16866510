"""The windowed oracle layer: closure, interior, certificates, B_infinity."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from afweak.closure import (
    WindowSet,
    b_infinity,
    close,
    commensurable,
    doubling_check,
    finite_biclosed_bfs,
    full_window,
    interior,
    is_biclosed,
    stable_close,
    window_set,
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
    AffineType,
    _rref_plane_key,
    _solve_in_plane,
    canonical_root,
    root_window,
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
    w = full_window(A2, 3)
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


def test_doubling_agrees_with_biclosed_on_stable_sets():
    # truncations of genuinely biclosed sets pass both checks; finite sets
    # that fail one check fail the other
    rng = random.Random(2)
    for typ in FAMILIES:
        for w, l in elements_up_to_length(typ, 4).items():
            s = window_set(typ, 4, inversions(w))
            assert is_biclosed(s).ok and doubling_check(s)
        window = root_window(typ, 4)
        low = [r for r in window if r.height <= 1]
        for _ in range(20):
            s = window_set(typ, 4, rng.sample(low, rng.randrange(1, 5)))
            # low sets are finite candidates: their witnesses, if any, fit
            # well inside the window, so the two checks must agree
            assert is_biclosed(s).ok == doubling_check(s)


def _reference_doubling(s):
    """The doubling criterion in plane coordinates over the rationals:
    an RREF basis per plane and Fraction Cramer quotients."""
    roots, _ = _window_index(s.type, s.H)
    for plane in _window_planes(s.type, s.H):
        basis = _rref_plane_key(roots[plane[0]].vector(), roots[plane[-1]].vector())
        dvecs = []
        for k in plane:
            x, y = _solve_in_plane(basis, roots[k].vector())
            dvecs.append((x, y) if roots[k] in s.members else (-x, -y))
        for (xa, ya), (xb, yb), (xc, yc) in itertools.combinations(dvecs, 3):
            det = xa * yb - ya * xb
            if (det and Fraction(yc * xb - xc * yb, det) > 0
                    and Fraction(xc * ya - yc * xa, det) > 0):
                return False
    return True


def test_doubling_matches_rational_reference():
    # windows of random triples, one-root flips of them and random subsets
    rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")))
    answers = set()
    for typ in (A3, AffineType("B", 3), AffineType("C", 2), AffineType("D", 3)):
        for h in (4, 5, 6):
            window = root_window(typ, h)
            for _ in range(2):
                w = random_triple(typ, rng).window(h)
                for s in (
                    w,
                    window_set(typ, h, w.members ^ {rng.choice(window)}),
                    window_set(typ, h, rng.sample(window, rng.randrange(len(window) + 1))),
                ):
                    got = doubling_check(s)
                    assert got == _reference_doubling(s), (typ, h, s.sorted_members())
                    answers.add(got)
    assert answers == {True, False}


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


def test_stable_close_certificate():
    # found by a seeded search over random two-root sets: (2, 6) lies
    # between (2, 3) and (2, 9) in an affine A~1 string, so the 2h closure
    # puts it below the cutoff while the h window's own closure does not
    seed = frozenset([canonical_root(A3, 2, 3), canonical_root(A3, 2, 9)])
    with pytest.raises(UnstableWindow, match="did not stabilize"):
        stable_close(A3, seed.__contains__, 1)
    big = stable_close(A3, seed.__contains__, 2)
    assert big.H == 4 and big.members == close(window_set(A3, 4, seed)).members

    def inside(r):
        raise AssertionError("enumerated before the guard")

    A5 = AffineType("A", 5)
    with pytest.raises(TooLarge):
        stable_close(A5, inside, 7)  # the height-14 window, not the height-7 one
    with pytest.raises(ValueError, match=">= 0"):
        stable_close(A5, inside, -1)


def test_window_validation():
    with pytest.raises(ValueError):
        WindowSet(A2, 1, frozenset([canonical_root(A2, 0, 5)]))


def test_finite_bfs_small():
    for typ in FAMILIES[:2]:
        target = {
            inversions(w): l for w, l in elements_up_to_length(typ, 3).items()
        }
        assert finite_biclosed_bfs(typ, 5, 3) == target
