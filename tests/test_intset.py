"""Brute-force cross-checks of the eventually-periodic set algebra."""

import os
import random
from math import lcm

import pytest

from afweak.intset import IntSet
from references import EMPTY, cofinal_from, is_finite, max_finite, points, tail

HI = 200
LO = -60  # below every point of the sets model() draws
SEED = int(os.environ.get("AFWEAK_SEED", "0"))


def brute(s, hi=HI):
    return set(s.upto(hi))


def random_set(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return points(rng.sample(range(0, 15), rng.randrange(5)))
    if kind == 1:
        lo = rng.randrange(0, 8)
        if rng.random() < 0.5:
            return IntSet.from_range(lo, lo + rng.randrange(6))
        return IntSet.from_range(lo)
    if kind == 2:
        p = rng.randrange(1, 5)
        return tail(
            rng.randrange(0, 9), p, rng.sample(range(p), rng.randrange(1, p + 1))
        )
    return points(rng.sample(range(0, 12), rng.randrange(4))).union(
        tail(rng.randrange(0, 9), rng.randrange(1, 5), [rng.randrange(4)])
    )


def test_constructors_and_membership():
    assert EMPTY.is_empty()
    s = points([3, 5])
    assert 3 in s and 4 not in s and is_finite(s) and max_finite(s) == 5
    r = IntSet.from_range(2)
    assert 2 in r and 1 not in r and not is_finite(r)
    assert cofinal_from(r) == 2
    t = tail(4, 3, [1])
    assert brute(t, 20) == {4, 7, 10, 13, 16, 19}


def test_algebra_against_brute_force():
    rng = random.Random(SEED + 7)
    for _ in range(500):
        a, b = random_set(rng), random_set(rng)
        ba, bb = brute(a), brute(b)
        assert brute(a.union(b)) == ba | bb
        assert brute(a.intersection(b)) == ba & bb
        assert a.issubset(b) == (brute(a, 3 * HI) <= brute(b, 3 * HI))
        assert a.intersects(b) == bool(brute(a, 3 * HI) & brute(b, 3 * HI))
        if not a.is_empty() and not b.is_empty():
            mk = a.minkowski(b)
            assert brute(mk) == {
                x + y for x in ba for y in bb if x + y <= HI
            }
        lo = rng.randrange(0, 4)
        assert brute(a.complement_in(lo)) == set(range(lo, HI + 1)) - ba
        assert brute(a.shift(3)) == {x + 3 for x in ba if x + 3 <= HI}


def test_canonical_equality():
    assert tail(5, 2, [0, 1]) == IntSet.from_range(5)
    assert tail(6, 4, [0, 2]) == tail(6, 2, [0])
    assert points([3, 6]).union(tail(9, 3, [0])) == tail(3, 3, [0])
    rng = random.Random(SEED + 8)
    for _ in range(200):
        a = random_set(rng)
        assert a.union(a) == a
        assert a.union(EMPTY) == a


def test_no_tuple_behaviour():
    # set-like misuse must fail loudly, not act on the representation
    s = points([-2, 0]).union(tail(3, 4, [1, 2]))
    for misuse in (lambda: s + s, lambda: s * 2, lambda: len(s), lambda: list(s),
                   lambda: s < s):
        with pytest.raises(TypeError):
            misuse()
    with pytest.raises(AttributeError):
        s.T = 0
    assert EMPTY != (0, 0, 0, 1, 0)


def star_brute(s, hi):
    gens = s.upto(hi)
    reach = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = x + g
            if y <= hi and y not in reach:
                reach.add(y)
                stack.append(y)
    return reach


def test_star_against_reachability():
    rng = random.Random(SEED + 9)
    for _ in range(250):
        a = random_set(rng).union(points([rng.randrange(1, 9)]))
        if a.min() < 1:
            a = a.intersection(IntSet.from_range(1))
        if a.is_empty():
            continue
        assert brute(a.star(), 160) == star_brute(a, 160)
    assert brute(points([2]).star(), 20) == set(range(0, 21, 2))
    assert EMPTY.star() == points([0])
    with pytest.raises(ValueError):
        points([0, 2]).star()


def test_minkowski_of_rays():
    # composing two up-set shifts adds their thresholds
    for a in range(0, 4):
        for b in range(0, 4):
            assert IntSet.from_range(a).minkowski(IntSet.from_range(b)) == (
                IntSet.from_range(a + b)
            )


def model(rng):
    """A random set with points down to -55 and periods up to 12, shifted
    by a possibly negative amount, with an independent membership test
    and its eventual period."""
    kind = rng.randrange(4)
    c = rng.randrange(-25, 26)
    if kind == 0:
        pts = set(rng.sample(range(-30, 30), rng.randrange(6)))
        s, p, pred = points(pts), 1, pts.__contains__
    elif kind == 1:
        lo = rng.randrange(-30, 30)
        s, p, pred = IntSet.from_range(lo), 1, lambda x: x >= lo
    else:
        p = rng.randrange(1, 13)
        start = rng.randrange(-30, 30)
        res = set(rng.sample(range(p), rng.randrange(1, p + 1)))
        pts = set(rng.sample(range(-30, 30), rng.randrange(1, 6) if kind == 3 else 0))
        s = points(pts).union(tail(start, p, res))
        pred = lambda x: x in pts or (x >= start and x % p in res)  # noqa: E731
    return s.shift(c), p, lambda x: pred(x - c)


def shaped(rng):
    """An empty set, a ray, a run or a run plus a ray, with its name and
    an independent membership test."""
    kind = rng.choice(("empty", "ray", "run", "run+ray"))
    p = rng.randrange(-30, 30)
    q, t = p + rng.randrange(6), p + rng.randrange(8, 14)
    if kind == "empty":
        return kind, EMPTY, lambda x: False
    if kind == "ray":
        return kind, IntSet.from_range(p), lambda x: x >= p
    if kind == "run":
        return kind, IntSet.from_range(p, q), lambda x: p <= x <= q
    s = IntSet.from_range(p, q).union(IntSet.from_range(t))
    return kind, s, lambda x: p <= x <= q or x >= t


def members(pred, lo=LO, hi=HI):
    return {x for x in range(lo, hi + 1) if pred(x)}


def window(s, lo=LO, hi=HI):
    return {x for x in range(lo, hi + 1) if x in s}


def test_bitmask_algebra_against_predicates():
    rng = random.Random(SEED + 10)
    sums = {"finite+tail": 0, "tail+tail": 0}
    for _ in range(400):
        (a, _, pa), (b, _, pb) = model(rng), model(rng)
        ma, mb = members(pa), members(pb)
        assert window(a) == ma and set(a.upto(HI)) == ma
        assert window(a.union(b)) == ma | mb
        assert window(a.intersection(b)) == ma & mb
        far = 3 * HI
        wa, wb = members(pa, LO, far), members(pb, LO, far)
        assert a.issubset(b) == (wa <= wb)
        assert a.intersects(b) == bool(wa & wb)
        c = rng.randrange(-40, 40)
        assert window(a.shift(c)) == {x + c for x in members(pa, LO - c, HI - c)}
        # complement_in, often from below the least point
        lo = (a.min() if not a.is_empty() else 0) - rng.randrange(0, 12)
        assert window(a.complement_in(lo), lo) == set(range(lo, HI + 1)) - ma
        if a.is_empty() or b.is_empty():
            continue
        tails = (not is_finite(a)) + (not is_finite(b))
        if tails:
            sums["tail+tail" if tails == 2 else "finite+tail"] += 1
        # a summand above HI pairs with a negative one, so widen the summands
        xa, xb = members(pa, LO, HI - LO), members(pb, LO, HI - LO)
        assert window(a.minkowski(b), 2 * LO) == {
            x + y for x in xa for y in xb if x + y <= HI
        }
    assert min(sums.values()) > 20
    # empty sets, rays, runs and runs plus a ray, complemented from lo
    # below, at and above the least point; a ray with sets that have a
    # finite part
    kinds = set()
    for _ in range(300):
        kind, a, pa = shaped(rng)
        kinds.add(kind)
        ma = members(pa)
        least = min(ma, default=0)
        for lo in (least - rng.randrange(1, 9), least, least + rng.randrange(1, 9)):
            assert window(a.complement_in(lo)) == set(range(lo, HI + 1)) - ma
        b, _, pb = model(rng)
        for c, pc in ((a, pa), (b, pb)):
            mc = members(pc)
            if not c.fin:
                continue
            t = rng.randrange(-40, 40)
            ray = IntSet.from_range(t)
            united = mc | set(range(t, HI + 1))
            assert window(ray.union(c)) == window(c.union(ray)) == united
            added = set(range(t + min(mc), HI + 1))
            assert window(c.minkowski(ray), 2 * LO) == added
            assert window(ray.minkowski(c), 2 * LO) == added
    assert kinds == {"empty", "ray", "run", "run+ray"}


def test_canonical_form_is_route_independent():
    rng = random.Random(SEED + 11)
    for _ in range(300):
        (a, p, pa), (b, _, _) = model(rng), model(rng)
        ab = a.union(b)
        assert ab == b.union(a) and hash(ab) == hash(b.union(a))
        assert a.intersection(ab) == a and hash(a.intersection(ab)) == hash(a)
        c = rng.randrange(-40, 40)
        assert a.shift(c).shift(-c) == a
        lo = rng.randrange(-70, 20)
        twice = a.complement_in(lo).complement_in(lo)
        assert twice == a.intersection(IntSet.from_range(lo))
        # rebuilt from a window of points and a tail far out, with a
        # multiple of the period: the threshold and period come back
        k, q = 100, p * rng.randrange(1, 4)
        rebuilt = points(x for x in range(LO, k) if pa(x)).union(
            tail(k, q, {x % q for x in range(k, k + q) if pa(x)})
        )
        assert rebuilt == a and hash(rebuilt) == hash(a)
    for p in range(1, 13):
        for q in range(1, 4):
            lifted = tail(-7, p * q, [r for r in range(p * q) if r % p == 3 % p])
            assert lifted == tail(-7, p, [3]) and lifted.P == p
    assert lcm(4, 6) == tail(0, 4, [1]).union(tail(0, 6, [2])).P


def test_star_of_long_periods_against_reachability():
    rng = random.Random(SEED + 12)
    for _ in range(150):
        a = model(rng)[0].intersection(IntSet.from_range(1))
        if a.is_empty():
            continue
        assert window(a.star(), 0, 160) == star_brute(a, 160)
