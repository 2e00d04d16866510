"""The acceptance gate: one test per criterion, exact checks throughout.

Each test prints a PASS line on success (run with -s for the table); the
stated time budgets are asserted as hard ceilings.
"""

import os
import random
import time

from afweak.closure import finite_biclosed_bfs, stable_close, window_set
from afweak.errors import UnstableWindow
from afweak.fan import (
    act,
    build_biclosed,
    classify,
    dominant_chamber,
    enumerate_faces,
    face_from_blocks,
    global_element,
    parahoric,
    phi_prime_from_blocks,
    triple_of_element,
)
from afweak.lattice import (
    iota,
    join_A,
    join_C,
    join_finite,
    meet_A,
    meet_C,
    pi,
    sigma,
    threshold_closure,
    try_join,
    embed_c,
    restrict_c,
)
from afweak.orders import inversion_set, normalize, periodic_order
from afweak.perms import (
    elements_up_to_length,
    identity,
    inversions,
    multiply,
    reflection,
    simple_reflections,
)
from afweak.roots import (
    AffineType,
    canonical_root,
    finite_class,
    negate_class,
    root_window,
)
from afweak.verify import all_triples, random_triple

SEED = int(os.environ.get("AFWEAK_SEED", "0"))

A2 = AffineType("A", 2)
A3 = AffineType("A", 3)
A4 = AffineType("A", 4)
C2 = AffineType("C", 2)
B2 = AffineType("B", 2)
D2 = AffineType("D", 2)
D3 = AffineType("D", 3)


def _report(k, label, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {k} exceeded its {budget}s budget ({dt:.1f}s)"
    print(f"[acceptance] criterion {k:2d} PASS  ({dt:.2f}s)  {label}")


def test_criterion_1_worked_join():
    t0 = time.time()
    s = simple_reflections(A4)
    j = join_A(
        [
            triple_of_element(multiply(s[0], s[1])),
            triple_of_element(multiply(s[2], s[3])),
        ]
    )
    face = face_from_blocks(A4, [{1, 3}, {0, 2}])
    assert j.face == face
    assert j.face.one_indexed_blocks() == ((1, 3), (2, 4))
    assert j.phi_prime == phi_prime_from_blocks(face, [1])
    assert j.w == ()  # the component elements are the identity
    window = root_window(A4, 6)
    assert len(window) >= 72
    for r in window:
        displayed = (r.i == 0 and r.j % 4 != 0) or (r.i == 2 and r.j % 4 != 2)
        assert j.member(r) == displayed
    _report(1, "worked join equals the displayed set", t0, 1.0)


def test_criterion_2_dominant_chamber_string():
    t0 = time.time()
    t = build_biclosed(dominant_chamber(A2), frozenset(), {})
    blue = frozenset(canonical_root(A2, 0, 1 + 2 * k) for k in range(7))
    assert t.window(6).members == blue
    assert classify(t.window(6)) == t
    _report(2, "dominant-chamber string and round-trip", t0, 1.0)


def test_criterion_3_order_collision():
    t0 = time.time()
    dom = dominant_chamber(A2)
    o1 = periodic_order(dom)
    o2 = periodic_order(dom, reversed_blocks=[1])
    t1, t2 = inversion_set(o1), inversion_set(o2)
    assert t1 == t2
    expect = frozenset(
        r for r in root_window(A2, 6) if r.i % 2 == 0 and r.j % 2 == 1
    )
    assert t1.window(6).members == expect
    assert normalize(o2) == o1
    _report(3, "colliding orders and normalization", t0, 1.0)


def test_criterion_4_finite_joins():
    t0 = time.time()
    u, w = (6, 2, 4, 3, 5, 1), (3, 6, 5, 2, 1, 4)
    assert join_finite("B", 3, u, w) == (6, 5, 4, 3, 2, 1)
    assert join_finite("D", 3, u, w) == (6, 5, 3, 4, 2, 1)
    _report(4, "B3/D3 joins from the remark", t0, 1.0)


def test_criterion_5_split_central_join():
    t0 = time.time()
    tu = triple_of_element(reflection(D2, 1, 2))
    tv = triple_of_element(reflection(D2, 2, 6))
    res = try_join([tu, tv], 6)
    assert res.ok
    win = res.triple.window(6).members
    g12 = finite_class(canonical_root(D2, 1, 2))
    keep = {g12, negate_class(g12)}
    for r in root_window(D2, 6):
        assert (r in win) == (finite_class(r) in keep)
    _report(5, "split-central join in the D2 group", t0, 5.0)


def test_criterion_6_finite_biclosed_enumeration():
    t0 = time.time()
    for typ in (A3, C2, B2, D3):
        target = {
            inversions(w): l for w, l in elements_up_to_length(typ, 5).items()
        }
        got = finite_biclosed_bfs(typ, 6, 5)
        assert got == target
        by_size = {}
        for s, k in got.items():
            by_size[k] = by_size.get(k, 0) + 1
        by_len = {}
        for w, l in elements_up_to_length(typ, 5).items():
            by_len[l] = by_len.get(l, 0) + 1
        assert by_size == by_len
    _report(6, "biclosed BFS equals inversion sets (4 groups)", t0, 60.0)


def test_criterion_7_classification_round_trip():
    t0 = time.time()
    count = 0
    for typ in (A3, C2, D2):
        for t in all_triples(typ, 3):
            assert classify(t.window(6)) == t
            count += 1
    # the stated domain (all faces, all Phi', component lengths <= 3)
    # comes to exactly 538 triples
    assert count == 538
    _report(7, f"classification round-trip on {count} triples", t0, 120.0)


def test_criterion_8_action_formula():
    t0 = time.time()
    rng = random.Random(SEED)
    for case in range(100):
        typ = (A3, C2, D2)[case % 3]
        faces = enumerate_faces(typ)
        face = faces[rng.randrange(len(faces))]
        decomp = parahoric(face)
        phi = frozenset(i for i in decomp.ids() if rng.random() < 0.5)
        wmap = {}
        for c in decomp.components:
            gens = simple_reflections(c.ctype)
            u = identity(c.ctype)
            for _ in range(rng.randrange(4)):
                u = multiply(u, gens[rng.randrange(len(gens))])
            wmap[c.id] = u
        base = build_biclosed(face, phi, {})
        target = build_biclosed(face, phi, wmap)
        g = global_element(face, wmap)
        assert act(g, base) == target
        for r in root_window(typ, 6):
            assert target.member(r) == (
                base.member(r) != (r in target.inv_global)
            )
    _report(8, "action formula on 100 random triples", t0, 120.0)


def test_criterion_9_lattice_property_suites():
    t0 = time.time()
    rng = random.Random(SEED)
    instances = (
        (A3, join_A, meet_A),
        (A4, join_A, meet_A),
        (C2, join_C, meet_C),
    )
    for typ, join, meet in instances:
        oracle_checked = 0
        for pair in range(200):
            x, y = random_triple(typ, rng, 4), random_triple(typ, rng, 4)
            j = join([x, y])
            m = meet([x, y])
            for r in root_window(typ, 5):
                if x.member(r) or y.member(r):
                    assert j.member(r)
                if m.member(r):
                    assert x.member(r) and y.member(r)
            if pair < 20:
                # the join sits below sampled common upper bounds, the
                # meet above sampled lower bounds
                for _ in range(20):
                    z = join([x, y, random_triple(typ, rng, 2)])
                    for r in root_window(typ, 4):
                        if j.member(r):
                            assert z.member(r)
                    zz = meet([x, y, random_triple(typ, rng, 2)])
                    for r in root_window(typ, 4):
                        if zz.member(r):
                            assert m.member(r)
            if pair < 40:
                # windowed closure-of-union oracle with the h/2h certificate
                try:
                    big = stable_close(typ, window_set(typ, 8, filter(
                        lambda r: x.member(r) or y.member(r), root_window(typ, 8)
                    )).mask, 4)
                except UnstableWindow:
                    continue
                assert classify(big) == j
                oracle_checked += 1
        assert oracle_checked >= 30
    # pi / iota and the idempotent p on samples
    for _ in range(50):
        t = random_triple(A4, rng, 4)
        assert pi(iota(t), A4) == t
    for _ in range(20):
        x, y = random_triple(A4, rng, 2), random_triple(A4, rng, 2)
        z = threshold_closure(iota(x).union(iota(y)))
        p1 = iota(pi(z, A4))
        assert iota(pi(p1, A4)).V == p1.V  # p idempotent
        # p monotone: the fixed point stays under any closed refinement
        w = threshold_closure(p1.union(iota(random_triple(A4, rng, 1))))
        assert all(
            p1.entry(a, b).issubset(w.entry(a, b))
            for a in range(4)
            for b in range(4)
        )
    _report(9, "lattice axioms, oracle equivalence, p = iota.pi", t0, 300.0)


def test_criterion_10_sigma_suite():
    t0 = time.time()
    rng = random.Random(SEED)
    A5 = AffineType("A", 5)
    for _ in range(100):
        x, y = random_triple(A5, rng, 2), random_triple(A5, rng, 2)
        sx, sy = sigma(x), sigma(y)
        assert sigma(sx) == x
        assert sigma(join_A([x, y])) == join_A([sx, sy])
        # order preservation: x <= y iff join is y
        if join_A([x, y]) == y:
            assert join_A([sx, sy]) == sy
    # sigma-fixed triples of bounded length are exactly the embedded
    # C-family triples
    fixed = [t for t in all_triples(A5, 1) if sigma(t) == t]
    embedded = {embed_c(t) for t in all_triples(C2, 2)}
    for t in fixed:
        assert t in embedded, t
        assert embed_c(restrict_c(t, C2)) == t
    assert len(fixed) > 40
    _report(10, f"sigma suite ({len(fixed)} fixed points matched)", t0, 300.0)
