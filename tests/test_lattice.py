"""Joins and meets: windows, threshold relations, families A and C."""

import os
import random
from functools import reduce

import pytest

from afweak import lattice
from afweak.closure import is_biclosed, stable_close, window_set
from afweak.errors import (
    AfweakError,
    NotAnOrder,
    NotARoot,
    NotBiclosed,
    SigmaFixednessViolated,
    TooLarge,
    TypeMismatch,
    UnstableWindow,
)
from afweak.fan import (
    BiclosedTriple,
    FanFace,
    _recover_w,
    build_biclosed,
    classify,
    face_from_blocks,
    parahoric,
    phi_prime_from_blocks,
    triple_of_element,
)
from afweak.intset import IntSet
from afweak.lattice import (
    ThresholdRelation,
    _eps,
    TryJoinResult,
    a_ambient,
    check_order,
    embed_c,
    finite_group,
    finite_inversions,
    iota,
    join_A,
    join_C,
    join_finite,
    meet_A,
    meet_C,
    pi,
    restrict_c,
    sigma,
    sigma_relation,
    threshold_closure,
    try_join,
)
from afweak.orders import order_from_triple, periodic_order, precedes
from afweak.perms import (
    from_window,
    multiply,
    reflection,
    simple_reflections,
    word,
)
from afweak.roots import AffineType, canonical_root, finite_class, negate_class, root_window
from afweak.verify import random_triple

A2 = AffineType("A", 2)
A3 = AffineType("A", 3)
A4 = AffineType("A", 4)
A5 = AffineType("A", 5)
C1 = AffineType("C", 1)
C2 = AffineType("C", 2)
C3 = AffineType("C", 3)
C4 = AffineType("C", 4)
D2 = AffineType("D", 2)
B3 = AffineType("B", 3)
D3 = AffineType("D", 3)
D4 = AffineType("D", 4)

SEED = int(os.environ.get("AFWEAK_SEED", "0"))


# ------------------------------------------------------- threshold algebra


def test_relation_shapes_of_a_genuine_order():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    t = build_biclosed(f, phi_prime_from_blocks(f, [1]), {})
    rel = iota(t)
    shapes = {rel.full_shape(a, b) for a in range(4) for b in range(4) if a != b}
    assert shapes <= {"Empty", "All", "AtMost", "AtLeast"}
    # complementarity: exactly one of (a,b,d), (b,a,-d) holds
    rng = random.Random(0)
    for _ in range(300):
        x, y = rng.randrange(-20, 20), rng.randrange(-20, 20)
        if x == y:
            continue
        assert rel.succeeds(x, y) != rel.succeeds(y, x)
    # diagonal never contains zero: succeeds(x, x) is undefined but the
    # encoded order never relates x to itself through translation
    assert not rel.succeeds(0, 4) or rel.succeeds(0, 4) in (True, False)


def test_threshold_closure_reproduces_the_join_order():
    s = simple_reflections(A4)
    t1 = triple_of_element(multiply(s[0], s[1]))
    t2 = triple_of_element(multiply(s[2], s[3]))
    closed = threshold_closure(iota(t1).union(iota(t2)))
    check_order(closed)
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    o = periodic_order(f, reversed_blocks=[1])
    rng = random.Random(1)
    for _ in range(400):
        x, y = rng.randrange(-15, 15), rng.randrange(-15, 15)
        if x == y:
            continue
        assert closed.succeeds(x, y) == precedes(o, y, x)


def test_threshold_closure_is_transitive_and_idempotent():
    rng = random.Random(2)
    for _ in range(10):
        t1, t2 = random_triple(A4, rng, 2), random_triple(A4, rng, 2)
        u = iota(t1).union(iota(t2))
        c = threshold_closure(u)
        assert threshold_closure(c).V == c.V
        check_order(c)


def test_check_order_flags_non_orders():
    # the one inversion (0, 3) factors through two non-inversions
    e = IntSet.empty()
    bad = ThresholdRelation(2, ((e, IntSet.points([1])), (e, e)))
    with pytest.raises(NotAnOrder):
        check_order(bad)


def _perturbed_relations(rng, count):
    """(type, relation) pairs: iota of a random triple with one in-block
    cell perturbed, by an added shift or by losing its least shift."""
    for _ in range(count):
        typ = rng.choice((A3, A4, A5))
        t = random_triple(typ, rng, 6)
        r = iota(t)
        blocks = [b for b in t.face.blocks if len(b) > 1]
        if not blocks:
            continue
        blk = sorted(rng.choice(blocks))
        a, b = rng.sample(blk, 2)
        v = [list(row) for row in r.V]
        e, eps = v[a][b], int(a > b)  # entries hold shifts d >= eps
        if e.is_empty() or rng.random() < 0.5:
            v[a][b] = e.union(IntSet.points([eps + rng.randrange(4)]))
        else:
            v[a][b] = e.intersection(IntSet.from_range(e.min() + 1))
        yield typ, ThresholdRelation(r.M, tuple(tuple(row) for row in v))


def test_pi_rejects_or_round_trips_perturbed_blocks():
    # pi counts the in-block inversions straight from the cells; a
    # perturbed cell either fails the order check or the certificate
    # that the relation is that of the order read, so it raises
    # NotAnOrder, or the relation is a genuine order again
    rng = random.Random(SEED + 43)
    seen = set()
    for typ, r2 in _perturbed_relations(rng, 150):
        try:
            out = pi(r2, typ)
        except (NotAnOrder, NotBiclosed, NotARoot) as err:
            seen.add(type(err))
            continue
        assert iota(out).V == r2.V
    assert seen == {NotAnOrder}


def _reference_check_order(r):
    """check_order on the general IntSet operations alone."""
    m = r.M
    comp = r.complement()
    for a in range(m):
        for b in range(m):
            for c in range(m):
                left, right = comp.entry(a, b), comp.entry(b, c)
                if left.is_empty() or right.is_empty():
                    continue
                if left.minkowski(right).intersects(r.entry(a, c)):
                    raise NotAnOrder(
                        f"inversion ({a},{c}) factors through non-inversions via {b}"
                    )
    for a in range(m):
        if r.entry(a, a) not in (IntSet.empty(), IntSet.from_range(1)):
            raise NotAnOrder(f"diagonal class {a} is partially reversed")


def _outcome(f, r):
    try:
        out = f(r)
    except (NotAnOrder, ValueError) as err:  # ValueError: a star through 0
        return f"{type(err).__name__}: {err}"
    return out and out.V


def _hand_built(rng, m):
    """A relation over entries outside the ray shapes too: a diagonal {2}
    (a period-2 star), {0} u [2, 5], finite parts plus tails."""
    diag = (IntSet.empty(), IntSet.points([2]), IntSet.from_range(1),
            IntSet.points([2]).union(IntSet.from_range(5)))
    cells = (IntSet.empty(), IntSet.from_range(0), IntSet.from_range(1),
             IntSet.from_range(0, 2), IntSet.points([0]).union(IntSet.from_range(2, 5)),
             IntSet.points([1, 3]).union(IntSet.from_range(6)), IntSet.tail(3, 2, [1]))
    return ThresholdRelation(m, tuple(
        tuple(rng.choice(diag if a == b else cells) for b in range(m)) for a in range(m)
    ))


def test_check_order_matches_the_general_operations():
    rng = random.Random(SEED + 44)
    rels = []
    for typ in (A3, A4, A5, AffineType("A", 6), C2, C3, C4):
        for _ in range(6):
            x, y = random_triple(typ, rng, 3), random_triple(typ, rng, 3)
            rels.append(iota(x).union(iota(y)))
            rels.append(iota(x).complement().union(iota(y).complement()))
    rels += [_hand_built(rng, m) for m in (1, 2, 2, 3, 3, 3) for _ in range(20)]
    rels += [r for _, r in _perturbed_relations(rng, 60)]
    messages = set()
    for r in rels:
        closed = _outcome(threshold_closure, r)
        tests = [r] if isinstance(closed, str) else [r, ThresholdRelation(r.M, closed)]
        for s in tests + [t.complement() for t in tests]:
            msg = _outcome(check_order, s)
            assert msg == _outcome(_reference_check_order, s)
            messages.add(msg and msg.split(" ")[1])
    assert {None, "inversion", "diagonal"} <= messages


# pi before it read the periodic order, kept as the reference: a union-find
# and closure face reader, shape and orientation checks, in-block roots
# built from the cells and handed to the component read-off.


def _reference_ordered_blocks(ground, equal, after, error):
    parent = {v: v for v in ground}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in equal:
        parent[find(a)] = find(b)
    blocks = {}
    for v in ground:
        blocks.setdefault(find(v), set()).add(v)
    fsets = {rep: frozenset(b) for rep, b in blocks.items()}
    below = {x: set() for x in fsets.values()}
    for a, b in after:
        fa, fb = fsets[find(a)], fsets[find(b)]
        if fa == fb:
            raise error("strict comparison inside a block")
        below[fa].add(fb)
    changed = True
    while changed:
        changed = False
        for x in below.values():
            grow = set().union(*(below[y] for y in x))
            if not grow <= x:
                x |= grow
                changed = True
    blist = sorted(below, key=lambda x: (len(below[x]), sorted(x)))
    for i, x in enumerate(blist):
        if any(y in below[x] for y in blist[i + 1:]):
            raise error("block order is not total")
    return blist


def _reference_pi(r, typ):
    m = r.M
    check_order(r)
    equal, after = [], []
    for a in range(m):
        for b in range(a + 1, m):
            va, vb = r.entry(a, b), r.entry(b, a)
            fa, fb = va.is_finite(), vb.is_finite()
            if fa and fb:
                equal.append((a, b))
            elif not fa and not fb:
                if va.is_cofinal_from() is None or vb.is_cofinal_from() is None:
                    raise NotAnOrder(f"entry ({a},{b}) has a patterned tail")
                equal.append((a, b))
            elif fa:
                if not va.is_empty() or vb != IntSet.from_range(_eps(b, a)):
                    raise NotAnOrder(f"pair ({a},{b}) mixes block shapes")
                after.append((b, a))
            else:
                if not vb.is_empty() or va != IntSet.from_range(_eps(a, b)):
                    raise NotAnOrder(f"pair ({a},{b}) mixes block shapes")
                after.append((a, b))
    face = FanFace(typ, tuple(_reference_ordered_blocks(range(m), equal, after,
                                                        NotAnOrder)))
    decomp = parahoric(face)
    phi, x_roots = set(), set()
    for k, blk in enumerate(face.blocks):
        if len(blk) == 1:
            continue
        reversed_ = not r.entry(next(iter(blk)), next(iter(blk))).is_empty()
        if any((not r.entry(a, a).is_empty()) != reversed_ for a in blk):
            raise NotAnOrder("mixed orientations inside a block")
        if reversed_:
            phi.add(decomp.by_block[k][0].id)
        for a in blk:
            for b in blk:
                if a == b:
                    continue
                data = r.entry(a, b)
                if reversed_:
                    data = data.complement_in(_eps(a, b))
                if not data.is_finite():
                    raise NotAnOrder(f"in-block entry ({a},{b}) is infinite")
                for d in data.upto(data.max_finite() or 0):
                    x_roots.add(canonical_root(typ, a, b + d * m))
    return build_biclosed(face, frozenset(phi), _recover_w(decomp, x_roots))


def _pi_or_rejected(f, r, typ):
    try:
        return f(r, typ)
    except (NotAnOrder, NotBiclosed, NotARoot):
        return "rejected"


def test_pi_matches_the_reference_projection():
    rng = random.Random(SEED + 46)
    cases = []
    for typ in (A3, A4, A5, AffineType("A", 6)):
        for _ in range(130):
            xs = [random_triple(typ, rng, 3) for _ in range(rng.choice((2, 3)))]
            rels = [iota(x) for x in xs]
            cases.append((typ, rels[0]))
            cases.append((typ, threshold_closure(reduce(ThresholdRelation.union, rels))))
            dual = reduce(ThresholdRelation.union, (x.complement() for x in rels))
            cases.append((typ, threshold_closure(dual).complement()))
    cases += list(_perturbed_relations(rng, 400))
    for _ in range(200):
        m = rng.randrange(3, 7)
        cases.append((AffineType("A", m), _hand_built(rng, m)))
    outcomes = set()
    for typ, r in cases:
        got = _pi_or_rejected(pi, r, typ)
        assert got == _pi_or_rejected(_reference_pi, r, typ), r
        outcomes.add(got == "rejected")
    assert len(cases) >= 2000 and outcomes == {True, False}


def test_pi_iota_identity():
    rng = random.Random(3)
    for typ in (A3, A4):
        for _ in range(50):
            t = random_triple(typ, rng)
            assert pi(iota(t), typ) == t
    # p = iota(pi(.)) is idempotent and monotone on closures
    for _ in range(20):
        t1, t2 = random_triple(A4, rng, 2), random_triple(A4, rng, 2)
        c = threshold_closure(iota(t1).union(iota(t2)))
        p1 = iota(pi(c, A4))
        assert iota(pi(p1, A4)).V == p1.V


def test_join_A_worked_example():
    s = simple_reflections(A4)
    t1 = triple_of_element(multiply(s[0], s[1]))
    t2 = triple_of_element(multiply(s[2], s[3]))
    j = join_A([t1, t2])
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    assert j == build_biclosed(f, phi_prime_from_blocks(f, [1]), {})
    assert j.face.one_indexed_blocks() == ((1, 3), (2, 4))


def test_equal_triples_are_shared():
    rng = random.Random(SEED + 45)
    for typ in (A4, A5):
        for _ in range(10):
            t = random_triple(typ, rng, 3)
            inv = t.inv_global
            # every component given, identities too: normalized, then shared
            w = {c: t.component_w(c) for c in parahoric(t.face).ids()}
            assert build_biclosed(t.face, list(t.phi_prime), w) is t
            x, y = random_triple(typ, rng), random_triple(typ, rng)
            j = join_A([x, y])
            assert join_A([x, y]) is j and join_A([y, x]) is j
            assert meet_A([j, x]) is x
            for s in (t, j):
                fresh = BiclosedTriple(s.face, s.phi_prime, s.w)  # not shared
                assert fresh == s and fresh is not s
                assert s.inv_global == fresh.inv_global
                for r in root_window(typ, 3):
                    assert s.member(r) == fresh.member(r)
            assert t.inv_global is inv


def test_join_A_small_identities():
    rng = random.Random(4)
    bot = join_A([], A4)
    top = meet_A([], A4)
    for _ in range(15):
        x = random_triple(A4, rng)
        assert join_A([x, x]) == x
        assert meet_A([x, x]) == x
        assert join_A([x, bot]) == x
        assert meet_A([x, top]) == x
    g = simple_reflections(A2)
    jj = join_A([triple_of_element(g[0]), triple_of_element(g[1])])
    assert jj.window(6).members == frozenset(root_window(A2, 6))


def test_join_meet_are_lattice_operations():
    rng = random.Random(5)
    for typ in (A3, A4):
        for _ in range(20):
            x, y = random_triple(typ, rng), random_triple(typ, rng)
            j = join_A([x, y])
            m = meet_A([x, y])
            for r in root_window(typ, 6):
                assert j.member(r) >= max(x.member(r), y.member(r)) or (
                    not (x.member(r) or y.member(r))
                )
                if x.member(r) or y.member(r):
                    assert j.member(r)
                if m.member(r):
                    assert x.member(r) and y.member(r)
            # absorption
            assert meet_A([j, x]) == x
            assert join_A([m, x]) == x


def test_sigma_involution_and_fixed_points():
    rng = random.Random(6)
    for _ in range(30):
        t = random_triple(A5, rng, 2)
        assert sigma(sigma(t)) == t
    # sigma at the threshold level agrees with negation of the order
    for _ in range(10):
        t = random_triple(A5, rng, 2)
        rel = iota(t)
        srel = sigma_relation(rel)
        for _ in range(100):
            x, y = rng.randrange(-12, 12), rng.randrange(-12, 12)
            if x == y:
                continue
            assert srel.succeeds(x, y) == rel.succeeds(-y, -x)


def test_sigma_commutes_with_join_and_meet():
    rng = random.Random(7)
    for _ in range(20):
        x, y = random_triple(A5, rng, 2), random_triple(A5, rng, 2)
        assert sigma(join_A([x, y])) == join_A([sigma(x), sigma(y)])
        assert sigma(meet_A([x, y])) == meet_A([sigma(x), sigma(y)])


def test_embed_restrict_c():
    # reference: the embedded set is {(i, j) : j precedes i} of the C-order
    rng = random.Random(SEED)
    for typ, count in ((C1, 10), (C2, 25), (C3, 15), (C4, 10)):
        amb = a_ambient(typ)
        m = amb.modulus
        for _ in range(count):
            t = random_triple(typ, rng, 2)
            o = order_from_triple(t)
            e = embed_c(t)
            for r in root_window(amb, 4):
                if r.i % m and r.j % m:
                    assert e.member(r) == precedes(o, r.j, r.i), (t, r)
            assert sigma(e) == e
            assert restrict_c(e, typ) == t


def test_join_C_basics():
    g = simple_reflections(C1)
    j = join_C([triple_of_element(g[0]), triple_of_element(g[1])])
    assert j.window(6).members == frozenset(root_window(C1, 6))
    rng = random.Random(9)
    for _ in range(10):
        x = random_triple(C2, rng, 2)
        assert join_C([x, x]) == x
        assert join_C([x, join_C([], C2)]) == x


def test_join_C_matches_windowed_oracle():
    rng = random.Random(SEED + 10)
    checked = 0
    for _ in range(30):
        x, y = random_triple(C2, rng, 2), random_triple(C2, rng, 2)
        j = join_C([x, y])
        try:
            big = stable_close(C2, window_set(C2, 10, filter(
                lambda r: x.member(r) or y.member(r), root_window(C2, 10))).mask, 5)
        except UnstableWindow:
            continue
        assert classify(big) == j
        checked += 1
    assert checked >= 25


def test_meets_and_joins_match_the_windowed_interior_and_closure():
    # a meet's complement, cut to height h, is the stable closure of the
    # union of the operands' complements; a join's window is the stable
    # closure of their union
    rng = random.Random(SEED + 46)
    checked = 0
    cases = [(C2, 2, 5, meet_C)] * 12 + [(C3, 2, 3, meet_C)] * 4
    cases += [(A5, 3, 3, join_A), (A5, 3, 3, meet_A)] * 6
    for typ, count, h, op in cases:
        xs = [random_triple(typ, rng, 2) for _ in range(count)]
        if op is join_A:
            inside = lambda r: any(x.member(r) for x in xs)
        else:
            inside = lambda r: not all(x.member(r) for x in xs)
        try:
            big = stable_close(typ, window_set(
                typ, 2 * h, filter(inside, root_window(typ, 2 * h))).mask, h)
        except UnstableWindow:
            continue
        cut = frozenset(r for r in big.members if r.height <= h)
        expect = cut if op is join_A else frozenset(root_window(typ, h)) - cut
        assert op(xs).window(h).members == expect, (op.__name__, xs)
        checked += 1
    assert checked >= len(cases) - 4


def test_meet_C():
    rng = random.Random(SEED + 11)
    for typ, pairs in ((C2, 10), (C4, 3)):
        for _ in range(pairs):
            x, y = random_triple(typ, rng, 2), random_triple(typ, rng, 2)
            j, m = join_C([x, y]), meet_C([x, y])
            for r in root_window(typ, 5):
                if m.member(r):
                    assert x.member(r) and y.member(r)
                if x.member(r) or y.member(r):
                    assert j.member(r)
            assert join_C([y, x]) == j and meet_C([y, x]) == m
            assert join_C([x, x]) == x and meet_C([x, x]) == x
            assert join_C([m, x]) == x and meet_C([j, x]) == x


def _pull_back_reference(t, typ, what):
    """lattice._pull_back with both checks decided by projecting through
    pi again: sigma(t) == t, and embed_c of the pull-back is t."""
    if sigma(t) != t:
        raise SigmaFixednessViolated(f"{what} of sigma-fixed points moved")
    out = restrict_c(t, typ)
    if embed_c(out) != t:
        raise SigmaFixednessViolated("pull-back does not embed correctly")
    return out


def _result(f, *args):
    """f(*args), or the type and message of the domain error it raises."""
    try:
        return f(*args)
    except AfweakError as err:
        return f"{type(err).__name__}: {err}"


def _drawn_triple(typ, rng):
    """A random family-A triple on a random ordered set partition of the
    residues, with words of two letters, so the rank limit of
    enumerate_faces does not apply."""
    k = rng.randint(1, typ.modulus)
    blocks = [set() for _ in range(k)]
    for a in range(typ.modulus):
        blocks[rng.randrange(k)].add(a)
    face = FanFace(typ, tuple(frozenset(b) for b in blocks if b))
    decomp = parahoric(face)
    phi = frozenset(i for i in decomp.ids() if rng.random() < 0.4)
    w = {}
    for c in decomp.components:
        gens = len(simple_reflections(c.ctype))
        w[c.id] = word(c.ctype, [rng.randrange(gens) for _ in range(2)])
    return build_biclosed(face, phi, w)


def test_pull_back_checks_match_the_projected_reference():
    # the relation-level checks of _pull_back decide what the pi-based
    # reference decides, on ambient triples that are sigma-fixed or not,
    # on the join and meet results of C triples and on embed_c images
    rng = random.Random(SEED + 47)
    raised = set()
    for n in (1, 2, 3, 4):
        typ = AffineType("C", n)
        for _ in range(60):
            t = _drawn_triple(a_ambient(typ), rng)
            out = _result(lattice._pull_back, t, typ, "join")
            assert out == _result(_pull_back_reference, t, typ, "join"), t
            raised.add(isinstance(out, str))
    assert raised == {True, False}
    # the meet of this pair splits two reversed blocks into singletons
    # that its closed relation still holds decreasing
    pairs = [tuple(build_biclosed(face_from_blocks(C2, blocks), ["blk2"], {})
                   for blocks in ([[-2, 1], [0], [-1, 2]], [[1, 2], [0], [-2, -1]]))]
    for typ, count in ((C1, 10), (C2, 20), (C3, 12), (C4, 6)):
        pairs += [(random_triple(typ, rng, 2), random_triple(typ, rng, 2))
                  for _ in range(count)]
    embedded = []
    for x, y in pairs:
        for op, amb_op, what in ((join_C, join_A, "join"), (meet_C, meet_A, "meet")):
            ambient = amb_op([embed_c(x), embed_c(y)])
            expect = _result(_pull_back_reference, ambient, x.type, what)
            assert _result(op, [x, y]) == expect, (op.__name__, x, y)
            assert _result(lattice._pull_back, ambient, x.type, what) == expect
        embedded.append((x, embed_c(x)))
    # the embedding predicate on matching and on mismatched pairs
    agree = set()
    for (x, e), (y, _) in zip(embedded, embedded[1:] + embedded[:1]):
        assert lattice._pull_back(e, x.type, "meet") == x
        for z in (x, y) if x.type == y.type else (x,):
            same = embed_c(z) == e
            assert same == (iota(z) == iota(e))
            agree.add(same)
    assert agree == {True, False}


def test_pull_back_raises_when_the_ambient_result_moves(monkeypatch):
    # join_A and meet_A of sigma-fixed points are sigma-fixed, so a moved
    # ambient result is faked by replacing the projection
    rng = random.Random(SEED + 49)
    x, y = random_triple(C2, rng, 2), random_triple(C2, rng, 2)
    draws = (random_triple(a_ambient(C2), rng, 2) for _ in range(100))
    moved = next(t for t in draws if sigma(t) != t)
    monkeypatch.setattr(lattice, "pi", lambda r, typ: moved)
    for op, what in ((join_C, "join"), (meet_C, "meet")):
        with pytest.raises(SigmaFixednessViolated,
                           match=f"^{what} of sigma-fixed points moved$"):
            op([x, y])


def test_pull_back_raises_when_the_restriction_does_not_embed(monkeypatch):
    rng = random.Random(SEED + 50)
    x, y = random_triple(C3, rng, 2), random_triple(C3, rng, 2)
    bottom, top = join_C([], C3), meet_C([], C3)
    for op in (join_C, meet_C):
        right = op([x, y])
        other = bottom if right != bottom else top
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "restrict_c", lambda t, typ: other)
            with pytest.raises(SigmaFixednessViolated,
                               match="^pull-back does not embed correctly$"):
                op([x, y])


# ------------------------------------------------------------ finite joins


def test_finite_group_sizes():
    assert len(finite_group("B", 3)) == 48
    assert len(finite_group("D", 3)) == 24
    assert len(finite_group("A", 2)) == 6
    with pytest.raises(TooLarge):
        finite_group("B", 5)


def test_join_finite_displayed_values():
    u, w = (6, 2, 4, 3, 5, 1), (3, 6, 5, 2, 1, 4)
    assert join_finite("B", 3, u, w) == (6, 5, 4, 3, 2, 1)
    assert join_finite("D", 3, u, w) == (6, 5, 3, 4, 2, 1)
    e = (1, 2, 3, 4, 5, 6)
    assert join_finite("B", 3, u, e) == u
    assert join_finite("D", 3, u, e) == u


def test_finite_remark_non_comparability():
    # 653421 is not above 624351 in the B order, but is in the D order
    u, v = (6, 2, 4, 3, 5, 1), (6, 5, 3, 4, 2, 1)
    assert not finite_inversions("B", 3, u) <= finite_inversions("B", 3, v)
    assert finite_inversions("D", 3, u) <= finite_inversions("D", 3, v)


def test_join_finite_is_least_upper_bound():
    rng = random.Random(12)
    for fam in ("B", "D"):
        group = finite_group(fam, 2)
        for _ in range(15):
            u, w = rng.choice(group), rng.choice(group)
            j = join_finite(fam, 2, u, w)
            nj = finite_inversions(fam, 2, j)
            assert nj >= finite_inversions(fam, 2, u)
            assert nj >= finite_inversions(fam, 2, w)
            for g in group:
                ng = finite_inversions(fam, 2, g)
                if ng >= finite_inversions(fam, 2, u) and ng >= finite_inversions(
                    fam, 2, w
                ):
                    assert nj <= ng


# ----------------------------------------------------------------- try_join


def test_try_join_d2_example():
    tu = triple_of_element(reflection(D2, 1, 2))
    tv = triple_of_element(reflection(D2, 2, 6))
    res = try_join([tu, tv], 6)
    assert res.ok
    win = res.triple.window(6).members
    g12 = finite_class(canonical_root(D2, 1, 2))
    keep = {g12, negate_class(g12)}
    for r in root_window(D2, 6):
        assert (r in win) == (finite_class(r) in keep)


def test_try_join_identities_and_bounds():
    rng = random.Random(13)
    tu = triple_of_element(reflection(D2, 1, 2))
    assert try_join([tu, tu], 5).triple == tu
    B2 = AffineType("B", 2)
    for _ in range(8):
        x = random_triple(B2, rng, 2)
        y = random_triple(B2, rng, 2)
        res = try_join([x, y], 5)
        if res.ok:
            for r in root_window(B2, 5):
                if x.member(r) or y.member(r):
                    assert res.triple.member(r)


def test_try_join_agrees_with_finite_parabolic():
    # inside the finite D2 = A1 x A1 parabolic both engines agree
    tu = triple_of_element(reflection(D2, 1, 2))
    tv = triple_of_element(reflection(D2, 1, 3))
    res = try_join([tu, tv], 5)
    assert res.ok
    # the two reflections live in orthogonal factors: the join is the
    # union, which is N of their product
    both = triple_of_element(
        multiply(reflection(D2, 1, 2), reflection(D2, 1, 3))
    )
    assert res.triple == both


def test_try_join_cutoff_dependent_face_is_unstable():
    # the closure of the union is stable at h/2h = 3/6, but the height-6
    # window's asymptotic data is inconsistent; from h = 5 on it is certified
    B3 = AffineType("B", 3)
    x = build_biclosed(
        face_from_blocks(B3, [[-3, -1, 2], [0], [-2, 1, 3]]),
        [],
        {"blk2": from_window(A3, [0, 4, 2])},
    )
    y = build_biclosed(
        face_from_blocks(B3, [[1, 2], [-3, 0, 3], [-2, -1]]),
        ["blk2"],
        {"blk2": from_window(A2, [-1, 4])},
    )
    with pytest.raises(UnstableWindow):
        try_join([x, y], 3)
    res = try_join([x, y], 5)
    assert res.ok
    for r in root_window(B3, 5):
        if x.member(r) or y.member(r):
            assert res.triple.member(r)


def _try_join_outcome(xs, h, join=try_join):
    """join(xs, h), or the message of the UnstableWindow it raises."""
    try:
        return join(xs, h)
    except UnstableWindow as e:
        return str(e)


def test_try_join_lattice_laws_for_b_and_d():
    rng = random.Random(SEED + 51)
    certified = 0
    for typ, pairs in ((B3, 6), (D3, 6), (D4, 3)):
        for _ in range(pairs):
            x, y = random_triple(typ, rng, 3), random_triple(typ, rng, 3)
            j = _try_join_outcome([x, y], 2)
            assert _try_join_outcome([y, x], 2) == j
            assert try_join([x, x], 2).triple == x
            if isinstance(j, TryJoinResult) and j.ok:
                assert try_join([x, j.triple], 2).triple == j.triple
                certified += 1
    assert certified >= 12


def test_try_join_returns_the_certificate_of_a_non_biclosed_closure(monkeypatch):
    # the closure of a union of biclosed sets is closed, so only a
    # replaced stable_close reaches the failure branch
    bad = window_set(D2, 4, [canonical_root(D2, 1, 7)])
    assert not is_biclosed(bad).ok
    monkeypatch.setattr(lattice._closure, "stable_close", lambda typ, inside, h: bad)
    tu = triple_of_element(reflection(D2, 1, 2))
    res = try_join([tu, tu], 2)
    assert res == TryJoinResult(False, None, is_biclosed(bad))
    assert res.witness.witness is not None and res.witness.violated == "coclosed"


def _try_join_reference(xs, h):
    """try_join certifying twice: is_biclosed on the 2h closure, then
    classify, which runs is_biclosed on it again."""
    xs = list(xs)
    typ = xs[0].type
    big = stable_close(typ, window_set(typ, 2 * h, filter(
        lambda r: any(x.member(r) for x in xs), root_window(typ, 2 * h))).mask, h)
    cert = is_biclosed(big)
    if not cert.ok:
        return TryJoinResult(False, None, cert)
    return TryJoinResult(True, classify(big), None)


def test_try_join_matches_the_two_step_reference():
    rng = random.Random(SEED + 52)
    for typ in (B3, D3, D4):
        for h in (2, 3):
            for _ in range(5):
                xs = [random_triple(typ, rng, 3), random_triple(typ, rng, 3)]
                assert _try_join_outcome(xs, h) == _try_join_outcome(
                    xs, h, _try_join_reference
                ), xs


def test_try_join_needs_a_positive_cutoff():
    # at h = 0 the h/2h certificate compares a window with itself, and a
    # negative h read every window as empty and certified the origin face
    d = build_biclosed(face_from_blocks(D3, [[-3], [-2, -1, 1, 2], [3]]), [], {})
    assert try_join([d, d], 1).triple == d
    for h in (0, -1):
        with pytest.raises(ValueError, match="h >= 1"):
            try_join([d, d], h)
    with pytest.raises(ValueError, match=">= 0"):
        d.window(-1)


def test_try_join_type_guard():
    tu = triple_of_element(reflection(D2, 1, 2))
    tv = triple_of_element(reflection(C2, 1, 2))
    with pytest.raises(TypeMismatch):
        try_join([tu, tv], 4)
