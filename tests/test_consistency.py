"""Cross-engine agreement and less-traveled type combinations."""

import itertools
import random

from afweak.closure import WindowSet, stable_close
from afweak.errors import UnstableWindow
from afweak.fan import (
    act,
    classify,
    enumerate_faces,
    parahoric,
    triple_of_element,
)
from afweak.lattice import iota, join_A, try_join
from afweak.orders import (
    DRepresentationRequired,
    inversion_set,
    order_from_triple,
    precedes,
)
from afweak.perms import (
    identity,
    inversions,
    invert,
    multiply,
    root_action,
    simple_reflections,
)
from afweak.roots import AffineType, root_window
from afweak.verify import all_triples, random_triple
from references import _reference_inv_global

A4 = AffineType("A", 4)
SMALL_RANKS = (AffineType("C", 1), AffineType("B", 1))
HEAVY = (AffineType("B", 2), AffineType("D", 3))


def test_all_triples_are_distinct():
    triples = [t for typ in (AffineType("A", 3), AffineType("C", 2),
                             AffineType("D", 2)) for t in all_triples(typ, 3)]
    assert len(set(triples)) == len(triples) == 538


def test_classify_round_trip_b2_and_d3():
    counts = {}
    for typ in HEAVY:
        n = 0
        for t in all_triples(typ, 2):
            assert classify(t.window(6)) == t
            n += 1
        counts[typ] = n
    assert counts[HEAVY[0]] == 106
    assert counts[HEAVY[1]] == 1174


def test_small_rank_groups_full_loop():
    # C~1 and B~1 are infinite dihedral; everything round-trips.  B~1
    # inversion sets climb two heights per step, so size the window to
    # the inversion data.
    for typ in SMALL_RANKS:
        for t in all_triples(typ, 3):
            h = 2 * max([r.height for r in _reference_inv_global(t)], default=1) + 4
            assert classify(t.window(h)) == t
            o = order_from_triple(t)
            assert inversion_set(o) == t


def test_triple_order_threshold_three_way_agreement():
    # membership, order comparison and threshold relation must agree
    rng = random.Random(20)
    triples = [t for t in all_triples(A4, 2)]
    for _ in range(40):
        t = triples[rng.randrange(len(triples))]
        o = order_from_triple(t)
        rel = iota(t)
        for r in root_window(A4, 4):
            assert t.member(r) == precedes(o, r.j, r.i)
        for _ in range(60):
            x, y = rng.randrange(-15, 15), rng.randrange(-15, 15)
            if x == y:
                continue
            assert rel.succeeds(x, y) == precedes(o, y, x)


def test_orders_round_trip_d3():
    for t in all_triples(AffineType("D", 3), 1):
        try:
            o = order_from_triple(t)
        except DRepresentationRequired:
            continue
        assert inversion_set(o) == t


def test_act_against_windowed_symmetric_difference():
    # w.B = {|w gamma|} xor N(w), checked window-wise against act()
    rng = random.Random(21)
    for typ in (AffineType("A", 3), AffineType("C", 2), AffineType("D", 2),
                AffineType("B", 2), AffineType("B", 3), AffineType("D", 4)):
        triples = [t for t in all_triples(typ, 1)]
        gens = simple_reflections(typ)
        for _ in range(15):
            t = triples[rng.randrange(len(triples))]
            v = identity(typ)
            for _ in range(rng.randrange(4)):
                v = multiply(v, gens[rng.randrange(len(gens))])
            acted = act(v, t)
            vinv = invert(v)
            for r in root_window(typ, 5):
                sign, img = root_action(vinv, r)
                want = t.member(img) if sign == 1 else not t.member(img)
                assert acted.member(r) == want


def test_try_join_below_sampled_upper_bounds():
    # the closure of the union is below any biclosed superset
    rng = random.Random(22)
    B2 = AffineType("B", 2)
    triples = [t for t in all_triples(B2, 1)]
    for _ in range(10):
        x, y = rng.sample(triples, 2)
        res = try_join([x, y], 5)
        if not res.ok:
            continue
        for _ in range(5):
            z = triples[rng.randrange(len(triples))]
            zres = try_join([x, y, z], 5)
            if zres.ok:
                for r in root_window(B2, 4):
                    if res.triple.member(r):
                        assert zres.triple.member(r)


def test_join_closure_equals_oracle_closure_on_window():
    # the exact A-join truncates to the windowed closure of the union
    rng = random.Random(23)
    triples = [t for t in all_triples(A4, 2)]
    for _ in range(15):
        x, y = rng.sample(triples, 2)
        j = join_A([x, y])
        h = 4
        try:
            big = stable_close(A4, WindowSet(A4, 2 * h, filter(
                lambda r: x.member(r) or y.member(r), root_window(A4, 2 * h))).mask, h)
        except UnstableWindow:
            continue
        assert frozenset(r for r in big.members if r.height <= h) == frozenset(
            r for r in root_window(A4, h) if j.member(r)
        )


def test_larger_ranks_spot_checks():
    rng = random.Random(24)

    B3 = AffineType("B", 3)
    kinds = {
        (c.kind, c.ctype.family, c.ctype.n)
        for face in enumerate_faces(B3)
        for c in parahoric(face).components
    }
    assert ("central", "B", 2) in kinds  # rank-2 central B factors occur
    for _ in range(15):
        t = random_triple(B3, rng, 2)
        h = max(6, 2 * max([r.height for r in _reference_inv_global(t)], default=1) + 2)
        assert classify(t.window(h)) == t
        assert inversion_set(order_from_triple(t)) == t

    D4 = AffineType("D", 4)
    kinds = {
        (c.kind, c.ctype.family, c.ctype.n)
        for face in enumerate_faces(D4)
        for c in parahoric(face).components
    }
    assert ("splitA1", "A", 2) in kinds and ("central", "D", 3) in kinds
    for _ in range(8):
        t = random_triple(D4, rng, 2)
        h = max(6, 2 * max([r.height for r in _reference_inv_global(t)], default=1) + 2)
        assert classify(t.window(h)) == t

    C3 = AffineType("C", 3)
    from afweak.lattice import join_C

    for _ in range(5):
        x, y = random_triple(C3, rng, 2), random_triple(C3, rng, 2)
        j = join_C([x, y])
        for r in root_window(C3, 4):
            if x.member(r) or y.member(r):
                assert j.member(r)


def test_try_join_matches_exhaustive_parabolic_join():
    # derived oracle: scan the 24-element finite parabolic of the rank-3
    # D group by affine inversion containment
    D3 = AffineType("D", 3)
    from afweak.perms import from_window

    parab = []
    for img in itertools.permutations((1, 2, 3)):
        for signs in itertools.product((1, -1), repeat=3):
            if signs.count(-1) % 2:
                continue
            parab.append(from_window(D3, [s * v for s, v in zip(signs, img)]))
    assert len(parab) == 24
    invs = {g: inversions(g) for g in parab}
    rng = random.Random(123)
    for _ in range(15):
        u, w = rng.sample(parab, 2)
        res = try_join([triple_of_element(u), triple_of_element(w)], 6)
        assert res.ok
        ups = [g for g in parab if invs[g] >= invs[u] and invs[g] >= invs[w]]
        ups.sort(key=lambda g: (len(invs[g]), g.window))
        best = ups[0]
        assert all(invs[best] <= invs[g] for g in ups)
        assert res.triple == triple_of_element(best)


def test_classify_never_returns_a_wrong_triple():
    # random window sets either classify to something agreeing on the
    # window or raise a domain error; no silent wrong answers
    from afweak.errors import NotBiclosed
    from afweak.roots import root_window as _rw

    rng = random.Random(25)
    for typ in (AffineType("A", 3), AffineType("C", 2), AffineType("D", 2)):
        window = _rw(typ, 4)
        for _ in range(60):
            members = frozenset(rng.sample(window, rng.randrange(len(window))))
            s = WindowSet(typ, 4, members)
            try:
                t = classify(s)
            except (NotBiclosed, UnstableWindow):
                continue
            for r in window:
                assert t.member(r) == (r in members)


def test_signed_groups_fix_modulus_multiples():
    rng = random.Random(26)
    for typ in (AffineType("C", 2), AffineType("B", 2), AffineType("D", 3)):
        gens = simple_reflections(typ)
        m = typ.modulus
        for _ in range(10):
            w = identity(typ)
            for _ in range(rng.randrange(5)):
                w = multiply(w, gens[rng.randrange(len(gens))])
            for k in range(-3, 4):
                assert w(k * m) == k * m


def test_exhaustive_small_join_meet_oracles():
    # every pair from a thinned exhaustive family, against the windowed
    # closure-of-union and interior-of-intersection oracles
    from afweak.closure import interior
    from afweak.lattice import meet_A
    from afweak.roots import root_window as _rw

    A3 = AffineType("A", 3)
    triples = list(all_triples(A3, 2))[::3]
    h = 4
    window_2h = _rw(A3, 2 * h)
    for i, x in enumerate(triples):
        for y in triples[i:]:
            j = join_A([x, y])
            m = meet_A([x, y])
            try:
                big = stable_close(A3, WindowSet(A3, 2 * h, filter(
                    lambda r: x.member(r) or y.member(r), window_2h)).mask, h)
            except UnstableWindow:
                pass
            else:
                assert classify(big) == j
            inter = frozenset(r for r in window_2h if x.member(r) and y.member(r))
            big_i = interior(WindowSet(A3, 2 * h, inter))
            small_i = interior(
                WindowSet(A3, h, frozenset(r for r in inter if r.height <= h))
            )
            if (
                frozenset(r for r in big_i.members if r.height <= h)
                == small_i.members
            ):
                assert big_i.members == frozenset(
                    r for r in window_2h if m.member(r)
                )
