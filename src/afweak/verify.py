"""Named verification suites behind `afweak verify`.

Each suite yields (case-name, passed) pairs.  The randomized suites draw
from the Random instance handed in by the CLI, which seeds it from
AFWEAK_SEED for reproducibility.
"""

from __future__ import annotations

import itertools

from . import closure as _closure
from . import fan as _fan
from . import lattice as _lattice
from . import orders as _orders
from . import perms as _perms
from . import roots as _roots
from .errors import UnstableWindow

A = _roots.AffineType


def _rand_element(typ, rng, max_len=4):
    count = len(_perms.simple_reflections(typ))
    return _perms.word(typ, [rng.randrange(count)
                             for _ in range(rng.randrange(max_len + 1))])


def random_triple(typ, rng, max_len=3):
    """A random triple: a face, each component in Phi' with probability
    0.4, and component elements of random words of length <= max_len."""
    faces = _fan.enumerate_faces(typ)
    face = faces[rng.randrange(len(faces))]
    decomp = _fan.parahoric(face)
    phi = frozenset(i for i in decomp.ids() if rng.random() < 0.4)
    wmap = {c.id: _rand_element(c.ctype, rng, max_len) for c in decomp.components}
    return _fan.build_biclosed(face, phi, wmap)


def all_triples(typ, max_len):
    """Every triple whose component elements have length <= max_len:
    faces in enumerate_faces order, Phi' by itertools.combinations of the
    component ids in increasing size, each component's elements sorted by
    window."""
    for face in _fan.enumerate_faces(typ):
        decomp = _fan.parahoric(face)
        ids = decomp.ids()
        per = {
            c.id: sorted(
                _perms.elements_up_to_length(c.ctype, max_len),
                key=lambda u: u.window,
            )
            for c in decomp.components
        }
        for k in range(len(ids) + 1):
            for phi in itertools.combinations(ids, k):
                for ws in itertools.product(*(per[i] for i in ids)):
                    yield _fan.build_biclosed(face, frozenset(phi), dict(zip(ids, ws)))


def suite_paper_examples(rng):
    """Worked values pinned exactly; the cases other suites build on."""
    a2, a4 = A("A", 2), A("A", 4)
    c2, b2, d2 = A("C", 2), A("B", 2), A("D", 2)

    yield "figure-2 window labels", (
        [r.pair() for r in _roots.root_window(a2, 2)]
        == [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)]
    )

    r2 = _roots.rank2_subsystem(
        _roots.canonical_root(a4, 0, 1), _roots.canonical_root(a4, 1, 2)
    )
    yield "A2-plane betweenness order", (
        [x.pair() for x in r2.positive_roots] == [(0, 1), (0, 2), (1, 2)]
    )
    r2 = _roots.rank2_subsystem(
        _roots.canonical_root(a4, 0, 2), _roots.canonical_root(a4, 2, 4)
    )
    yield "affine A1-plane base pair", (
        r2.kind == "Atilde1"
        and [x.pair() for x in r2.positive_roots] == [(0, 2), (2, 4)]
    )

    s0 = _perms.reflection(A("A", 3), 0, 1)
    yield "s0 window in the rank-3 group", s0.window == (0, 2, 4)

    w = _perms.word(a4, (0, 1))
    yield "inversions of s0*s1", (
        sorted(r.pair() for r in _perms.inversions(w)) == [(0, 1), (0, 2)]
    )

    v = _perms.reflection(d2, 2, 6)
    yield "the split-group reflection t(2,6)", (
        v.window == (-3, 6)
        and sorted(r.pair() for r in _perms.inversions(v)) == [(2, 6)]
    )

    t23 = _perms.reflection(c2, 2, 3)
    try:
        _perms.from_window(b2, t23.window)
        ok = False
    except _perms.ParityViolation:
        ok = True
    yield "t(2,3) violates the B-parity", ok

    seed = [
        _roots.canonical_root(a4, 0, 1),
        _roots.canonical_root(a4, 0, 2),
        _roots.canonical_root(a4, 2, 3),
        _roots.canonical_root(a4, 2, 4),
    ]
    closed = _closure.close(_closure.window_set(a4, 5, seed))
    expect = frozenset(
        r
        for r in _roots.root_window(a4, 5)
        if (r.i == 0 and r.j % 4 != 0) or (r.i == 2 and r.j % 4 != 2)
    )
    yield "worked closure equals the displayed set", closed.members == expect

    blue = [_roots.canonical_root(a2, 0, 1 + 2 * k) for k in range(7)]
    yield "figure-2 set is biclosed", bool(
        _closure.is_biclosed(_closure.window_set(a2, 6, blue))
    )

    dom = _fan.dominant_chamber(a2)
    t = _fan.build_biclosed(dom, frozenset(), {})
    yield "figure-2 set built from the dominant chamber", (
        t.window(6).members == frozenset(blue)
        and _fan.classify(t.window(6)) == t
    )

    yield "13 fan faces in the rank-3 group", len(_fan.enumerate_faces(A("A", 3))) == 13
    yield "3 fan faces for C with n=1", len(_fan.enumerate_faces(A("C", 1))) == 3

    f = _fan.face_from_blocks(a4, [{1, 3}, {0, 2}])
    d = _fan.parahoric(f)
    yield "parahoric of ({1,3},{2,4})", (
        [c.ctype for c in d.components] == [A("A", 2), A("A", 2)]
    )
    dd2 = _fan.parahoric(_fan.origin_face(d2))
    yield "split central D2 parahoric", (
        sorted(c.id for c in dd2.components) == ["ctrA1:1,-2", "ctrA1:1,2"]
    )

    phi = _fan.phi_prime_from_blocks(f, [1])
    tb = _fan.build_biclosed(f, phi, {})
    member_ok = all(
        tb.member(r) == ((r.i == 0 and r.j % 4 != 0) or (r.i == 2 and r.j % 4 != 2))
        for r in _roots.root_window(a4, 6)
    )
    yield "worked-join membership table", member_ok
    yield "worked-join classification round-trip", _fan.classify(tb.window(6)) == tb

    w1, w2 = _perms.word(a4, (0, 1)), _perms.word(a4, (2, 3))
    j = _lattice.join_A([_fan.triple_of_element(w1), _fan.triple_of_element(w2)])
    yield "exact join of the worked example", j == tb
    yield "worked-join one-indexed labels", j.face.one_indexed_blocks() == ((1, 3), (2, 4))

    o = _orders.order_from_triple(tb)
    yield "worked-join order rendering", (
        _orders.render(o, 0, 8) == [1, 3, 5, 7, 8, 6, 4, 2, 0]
    )

    dom = _fan.dominant_chamber(a2)
    o1 = _orders.periodic_order(dom)
    o2 = _orders.periodic_order(dom, reversed_blocks=[1])
    t1, t2 = _orders.inversion_set(o1), _orders.inversion_set(o2)
    yield "the two displayed orders collide", (
        t1 == t2 and _orders.normalize(o2) == o1
    )
    yield "collision set is the even-odd set", t1.window(5).members == frozenset(
        _roots.canonical_root(a2, 0, 1 + 2 * k) for k in range(6)
    )

    yield "B3 join from the remark", _lattice.join_finite(
        "B", 3, (6, 2, 4, 3, 5, 1), (3, 6, 5, 2, 1, 4)
    ) == (6, 5, 4, 3, 2, 1)
    yield "D3 join from the remark", _lattice.join_finite(
        "D", 3, (6, 2, 4, 3, 5, 1), (3, 6, 5, 2, 1, 4)
    ) == (6, 5, 3, 4, 2, 1)

    tu = _fan.triple_of_element(_perms.reflection(d2, 1, 2))
    tv = _fan.triple_of_element(_perms.reflection(d2, 2, 6))
    res = _lattice.try_join([tu, tv], 6)
    ok = res.ok
    if ok:
        g12 = _roots.finite_class(_roots.canonical_root(d2, 1, 2))
        keep = {g12, _roots.negate_class(g12)}
        win = res.triple.window(6).members
        ok = all(
            (r in win) == (_roots.finite_class(r) in keep)
            for r in _roots.root_window(d2, 6)
        )
    yield "split-central join of the two reflections", ok

    e = _perms.identity(a4)
    u = _rand_element(a4, rng, 3)
    tw = _fan.triple_of_element(_perms.word(a4, (1, 2)))
    yield "action identity and composition", (
        _fan.act(e, tw) == tw
        and _fan.act(u, tw)
        == _fan.triple_of_element(_perms.multiply(u, _perms.word(a4, (1, 2))))
    )


def suite_roundtrip(rng):
    """classify(build(...)) and the order conversions, exhaustively small."""
    for typ in (A("A", 3), A("C", 2), A("D", 2)):
        ok = True
        checked = 0
        for t in all_triples(typ, 2):
            if _fan.classify(t.window(6)) != t:
                ok = False
            checked += 1
        yield f"classify-build round-trip {typ.family}{typ.n} ({checked} triples)", ok
    ok = True
    for _ in range(40):
        t = random_triple(A("A", 4), rng)
        if _lattice.pi(_lattice.iota(t), t.type) != t:
            ok = False
    yield "pi after iota is the identity", ok
    ok = True
    for typ in (A("A", 3), A("C", 2), A("B", 2)):
        for _ in range(20):
            t = random_triple(typ, rng)
            try:
                o = _orders.order_from_triple(t)
            except _orders.DRepresentationRequired:
                continue
            if _orders.inversion_set(o) != t:
                ok = False
    yield "inversion_set after order_from_triple", ok


def suite_lattice_axioms(rng):
    """Join/meet bounds on random pairs plus idempotence and monotony."""
    for typ in (A("A", 3), A("A", 4)):
        ok_ub = ok_lub = True
        for _ in range(25):
            x, y = random_triple(typ, rng), random_triple(typ, rng)
            j = _lattice.join_A([x, y])
            m = _lattice.meet_A([x, y])
            xm, ym, jm, mm = (t.window(6).mask for t in (x, y, j, m))
            if (xm | ym) & ~jm or mm & ~(xm & ym):
                ok_ub = False
            z = _lattice.join_A([j, random_triple(typ, rng)])
            if jm & ~z.window(6).mask:
                ok_lub = False
        yield f"join/meet are bounds in A-{typ.n}", ok_ub
        yield f"join stays below larger bounds in A-{typ.n}", ok_lub
    ok = True
    for _ in range(15):
        x = random_triple(A("A", 4), rng)
        if _lattice.join_A([x, x]) != x or _lattice.meet_A([x, x]) != x:
            ok = False
    yield "idempotence", ok
    ok = True
    for _ in range(20):
        x, y = random_triple(A("A", 5), rng, 2), random_triple(A("A", 5), rng, 2)
        if _lattice.sigma(_lattice.join_A([x, y])) != _lattice.join_A(
            [_lattice.sigma(x), _lattice.sigma(y)]
        ):
            ok = False
        if _lattice.sigma(_lattice.sigma(x)) != x:
            ok = False
    yield "sigma is an involution commuting with joins", ok


def suite_oracle_equivalence(rng):
    """Exact joins match the windowed closure-of-union oracle on at least
    10 of 15 draws whose closure is certified stable."""
    for typ, joiner in ((A("A", 3), _lattice.join_A), (A("C", 2), _lattice.join_C)):
        ok = True
        certified = 0
        for _ in range(15):
            x, y = random_triple(typ, rng, 2), random_triple(typ, rng, 2)
            j = joiner([x, y])
            try:
                big = _closure.stable_close(
                    typ, x.window(10).mask | y.window(10).mask, 5
                )
            except UnstableWindow:
                continue  # unstable window; skip rather than mis-assert
            certified += 1
            if _fan.classify(big) != j:
                ok = False
        yield f"join vs windowed oracle in {typ.family}{typ.n}", ok and certified >= 10


def suite_finite_enumeration(rng):
    """Finite biclosed window sets of size <= 4 equal {N(w) : l(w) <= 4}."""
    for typ in (A("A", 3), A("C", 2), A("B", 2)):
        target = {
            _perms.inversions(w): l
            for w, l in _perms.elements_up_to_length(typ, 4).items()
        }
        found = _closure.finite_biclosed_bfs(typ, 6, 4)
        ok = found == target
        yield f"BFS enumeration equals inversion sets in {typ.family}{typ.n}", ok


SUITES = {
    "paper-examples": suite_paper_examples,
    "roundtrip": suite_roundtrip,
    "lattice-axioms": suite_lattice_axioms,
    "oracle-equivalence": suite_oracle_equivalence,
    "finite-enumeration": suite_finite_enumeration,
}
