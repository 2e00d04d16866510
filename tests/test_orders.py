"""Periodic orders: comparison semantics, moves, triple conversions."""

import functools
import itertools
import os
import random

import pytest

from afweak.errors import (
    DRepresentationRequired,
    InvalidTwist,
    OutOfDomain,
)
from afweak.fan import (
    _rho,
    _rho_inv,
    build_biclosed,
    classify,
    dominant_chamber,
    enumerate_faces,
    face_from_blocks,
    origin_face,
    parahoric,
    phi_prime_from_blocks,
)
from afweak.orders import (
    DTwist,
    _central_elements,
    _central_order_perm,
    _key,
    _positions,
    compare,
    d_twist_set,
    inversion_set,
    normalize,
    order_from_triple,
    periodic_order,
    precedes,
    render,
    standard_order,
)
from afweak.perms import (
    from_window,
    identity,
    inversions,
    multiply,
    reflection,
    simple_reflections,
    word,
)
from afweak.roots import AffineType, canonical_root, finite_class, negate_class, root_window
from afweak.verify import all_triples
from references import (
    _block_position_fn,
    _reference_central_inversion_roots,
    _reference_inv_global,
    _reference_inversion_set,
    _reference_precedes,
    _reference_render,
    global_element,
)

A2 = AffineType("A", 2)
A4 = AffineType("A", 4)
C2 = AffineType("C", 2)
B2 = AffineType("B", 2)
D2 = AffineType("D", 2)
D3 = AffineType("D", 3)


def test_standard_order_is_integer_order():
    for typ in (A4, C2, B2, D2, D3):
        o = standard_order(typ)
        m = typ.modulus
        pts = [x for x in range(-9, 10) if typ.family == "A" or x % m != 0]
        for a, b in itertools.combinations(pts, 2):
            assert precedes(o, a, b)
        t = inversion_set(o)
        assert _reference_inv_global(t) == frozenset() and not t.phi_prime


def test_display_orders():
    # odds before evens, both classes increasing; then evens reversed
    dom = dominant_chamber(A2)
    o1 = periodic_order(dom)
    o2 = periodic_order(dom, reversed_blocks=[1])
    assert render(o1, -4, 5) == [-3, -1, 1, 3, 5, -4, -2, 0, 2, 4]
    assert render(o2, -4, 5) == [-3, -1, 1, 3, 5, 4, 2, 0, -2, -4]
    assert precedes(o1, 3, 4) and precedes(o1, 2, 4)
    assert precedes(o2, 4, 2)
    t1, t2 = inversion_set(o1), inversion_set(o2)
    assert t1 == t2
    assert t1.window(5).members == frozenset(
        canonical_root(A2, 0, 1 + 2 * k) for k in range(6)
    )
    assert normalize(o2) == o1
    assert normalize(o1) == o1


def test_worked_join_order():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    o = periodic_order(f, reversed_blocks=[1])
    assert render(o, 0, 8) == [1, 3, 5, 7, 8, 6, 4, 2, 0]
    assert precedes(o, 1, 3)
    assert compare(o, 2, 4) == "succeeds"
    t = build_biclosed(f, phi_prime_from_blocks(f, [1]), {})
    assert inversion_set(o) == t
    assert order_from_triple(t) == o


def test_compare_axioms():
    rng = random.Random(8)
    for typ in (A4, C2, B2, D3):
        m = typ.modulus
        faces = enumerate_faces(typ)
        for _ in range(8):
            face = faces[rng.randrange(len(faces))]
            perms = {}
            rev = []
            for k in range(len(face.blocks)):
                if typ.family != "A" and k < len(face.blocks) // 2:
                    continue
                if rng.random() < 0.4:
                    rev.append(k)
            o = periodic_order(face, rev, perms)
            pts = [x for x in range(-2 * m, 2 * m + 1)
                   if typ.family == "A" or x % m != 0]
            for _ in range(120):
                a, b, c = rng.sample(pts, 3)
                assert precedes(o, a, b) != precedes(o, b, a)
                assert precedes(o, a + m, b + m) == precedes(o, a, b)
                if typ.family != "A":
                    assert precedes(o, a, b) == precedes(o, -b, -a)
                if precedes(o, a, b) and precedes(o, b, c):
                    assert precedes(o, a, c)
    with pytest.raises(OutOfDomain):
        precedes(standard_order(C2), 5, 1)
    with pytest.raises(OutOfDomain):
        precedes(standard_order(A4), 3, 3)


def test_precedes_and_render_match_the_reference():
    # every face of A3, A4, B2, C2, C3, D2 and D3 three times, with random
    # block permutations and orientations: blocks below a signed centre, the
    # empty D centre and the split D2 centre {+-1, +-2} among them
    rng = random.Random(12)
    seen = {"perm": 0, "below": 0, "empty": 0, "split": 0}
    for typ in (AffineType("A", 3), A4, B2, C2, AffineType("C", 3), D2, D3):
        m = typ.modulus
        pts = [x for x in range(-2 * m, 2 * m + 1) if typ.family == "A" or x % m]
        for face in enumerate_faces(typ) * 3:
            mid = len(face.blocks) // 2
            first = 0 if typ.family == "A" else mid
            rev, perms = [], {}
            for k in range(first, len(face.blocks)):
                if rng.random() < 0.5:
                    rev.append(k)
                ptype = face.block_types[k]
                if ptype is not None:
                    u = word(ptype, [rng.randrange(len(simple_reflections(ptype)))
                                     for _ in range(rng.randrange(6))])
                    perms[k] = None if u.is_identity() else u
            o = periodic_order(face, rev, perms)
            seen["perm"] += any(perms.values())
            seen["below"] += first > 0 and any(perms.get(k) for k in range(mid + 1, len(face.blocks)))
            seen["empty"] += typ.family == "D" and not face.blocks[mid]
            seen["split"] += typ == D2 and len(face.blocks[mid]) == 4 and perms.get(mid) is not None
            for _ in range(40):
                a, b = rng.sample(pts, 2)
                assert precedes(o, a, b) == _reference_precedes(o, a, b), (o, a, b)
            assert render(o, -2 * m, 2 * m) == _reference_render(o, -2 * m, 2 * m), o
    assert min(seen.values()) > 0, seen


def test_inversion_set_round_trip_exhaustive():
    for typ in (AffineType("A", 3), C2, B2, D2):
        for t in all_triples(typ, 2):
            try:
                o = order_from_triple(t)
            except DRepresentationRequired:
                splits = {c.id for c in parahoric(t.face).components
                          if c.kind == "splitA1"}
                assert len(t.phi_prime & splits) == 1
                continue
            assert inversion_set(o) == t


def test_c_centre_element_is_its_block_permutation():
    # a family-C centre is one component relabeled by rho, so its block
    # permutation is its element: inversion_set takes it where the
    # reference peels the roots that the permutation inverts
    rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")) + 9)
    for n, count in ((1, 100), (2, 500), (3, 600), (4, 400)):
        typ = AffineType("C", n)
        faces = enumerate_faces(typ)
        for _ in range(count):
            face = rng.choice(faces)
            mid = len(face.blocks) // 2
            perms = {}
            for k, ptype in enumerate(face.block_types[mid:], mid):
                if ptype is not None:
                    gens = len(simple_reflections(ptype))
                    perms[k] = word(ptype, [rng.randrange(gens) for _ in range(rng.randrange(7))])
            reversed_ = [k for k in range(mid, len(face.blocks)) if rng.random() < 0.3]
            o = periodic_order(face, reversed_, perms)
            assert inversion_set(o) == _reference_inversion_set(o), o


def test_block_relabeling_numbers_each_block_onto_z():
    # every block's relabeling is an increasing bijection of its ground
    # integers onto Z that advances by len(reps) per period; the central
    # block of a signed family owns the multiples of M, in family D too
    # (including the split D~2 centre that _central_order_perm relabels).
    # The order of a face places each block's integers in rho's order,
    # a block below a signed centre shifted by one through its mirror.
    for fam, ns in (("A", (2, 3, 4)), ("B", (2, 3)), ("C", (1, 2, 3)),
                    ("D", (2, 3, 4))):
        for n in ns:
            typ = AffineType(fam, n)
            m = typ.modulus
            for face in enumerate_faces(typ):
                mid = len(face.blocks) // 2
                o = periodic_order(face)
                key = functools.partial(_key, *_positions(o))
                comps = {c.id: c for c in parahoric(face).components}
                for k, blk in enumerate(face.blocks):
                    central = fam != "A" and k == mid
                    reps = face.relabeling.reps[k]
                    zero = {0} if central else set()
                    assert reps == tuple(sorted({v % m for v in blk} | zero))
                    ground = [x for x in range(-3 * m, 3 * m)
                              if face.block_of.get(face.residue(x), mid) == k]
                    images = [_rho(face, x) for x in ground]
                    assert images == list(range(images[0], images[0] + len(ground)))
                    for x in ground:
                        assert _rho(face, x + m) == _rho(face, x) + len(reps)
                        assert _rho_inv(face, k, _rho(face, x)) == x
                    shift = 1 if fam != "A" and k < mid else 0
                    assert [key(x) for x in ground] == [(k, y + shift) for y in images]
                    if shift:
                        continue
                    assert list(map(_block_position_fn(o, k), ground)) == images
                    comp = comps.get("ctr" if central else f"blk{k}")
                    if comp is not None:
                        assert comp.block == k and comp.ctype.modulus == len(reps)


def test_central_order_perm_of_one_component():
    # a lone central component is relabeled by rho, so the block
    # permutation is its element; compare with the global realization
    rng = random.Random(5)
    for fam, n, central in (("C", 2, [[0, 1, -1]]), ("C", 3, [[0, 2, -2, 3, -3]]),
                            ("B", 3, [[0, 1, -1, 3, -3]]), ("C", 3, [[0, 1, -1]])):
        typ = AffineType(fam, n)
        m = typ.modulus
        rest = [v for v in range(1, n + 1) if v not in central[0]]
        f = face_from_blocks(typ, [[-v] for v in reversed(rest)] + central
                             + [[v] for v in rest])
        comp = next(c for c in parahoric(f).components if c.kind == "central")
        gens = simple_reflections(comp.ctype)
        reps = sorted(v % m for v in central[0] if v % m)
        for _ in range(15):
            u = identity(comp.ctype)
            for _ in range(rng.randrange(8)):
                u = multiply(u, gens[rng.randrange(len(gens))])
            g = global_element(f, {comp.id: u})
            c = len(reps) // 2
            want = from_window(AffineType("C", c), [
                _rho(f, g(_rho_inv(f, comp.block, k))) for k in range(1, c + 1)])
            assert _central_order_perm(f, {comp.id: u}) == want


def test_central_order_perm_of_a_split_centre():
    # a split D~2 centre's block permutation comes from its two A~1
    # factors' inversion counts; compare with the global realization
    # through reduced words, and read the factors back off it
    rng = random.Random(6)
    checked = 0
    for typ in (D2, D3, AffineType("D", 4)):
        for f in enumerate_faces(typ):
            mid = len(f.blocks) // 2
            comps = parahoric(f).by_block[mid]
            if len(comps) != 2:
                continue
            for _ in range(4):
                wmap = {c.id: word(c.ctype, [rng.randrange(2) for _ in range(rng.randrange(7))])
                        for c in comps if rng.random() < 0.8}
                wmap = {cid: u for cid, u in wmap.items() if not u.is_identity()}
                got = _central_order_perm(f, wmap)
                if not wmap:
                    assert got is None
                    continue
                g = global_element(f, wmap)
                assert got == from_window(AffineType("C", 2), [
                    _rho(f, g(_rho_inv(f, mid, k))) for k in (1, 2)]), (f, wmap)
                back = {cid: u for cid, u in _central_elements(f, comps, got).items()
                        if not u.is_identity()}
                assert back == wmap, (f, wmap)
                checked += 1
    assert checked >= 100


def test_normalize_central_moves():
    # a central swap move: orders by u and by u*t give one biclosed set
    for typ, c in ((B2, 2), (D3, 3)):
        face = origin_face(typ)
        ptype = AffineType("C", typ.n)
        t_move = reflection(ptype, typ.n, typ.n + 1)
        gens = simple_reflections(ptype)
        rng = random.Random(9)
        for _ in range(8):
            u = identity(ptype)
            for _ in range(rng.randrange(4)):
                u = multiply(u, gens[rng.randrange(len(gens))])
            o1 = periodic_order(face, [], {len(face.blocks) // 2: u})
            o2 = periodic_order(
                face, [], {len(face.blocks) // 2: multiply(u, t_move)}
            )
            assert inversion_set(o1) == inversion_set(o2)
            assert normalize(o1) == normalize(o2)
    # type D also swaps over the negation wall
    face = origin_face(D3)
    ptype = AffineType("C", 3)
    t0 = reflection(ptype, -1, 1)
    o1 = periodic_order(face, [], {len(face.blocks) // 2: identity(ptype)})
    o2 = periodic_order(face, [], {len(face.blocks) // 2: t0})
    assert inversion_set(o1) == inversion_set(o2)
    assert normalize(o1) == normalize(o2)


def test_normalize_idempotent():
    rng = random.Random(10)
    for typ in (A4, C2, B2, D3):
        faces = enumerate_faces(typ)
        for _ in range(10):
            face = faces[rng.randrange(len(faces))]
            rev = [
                k
                for k in range(len(face.blocks))
                if (typ.family == "A" or k >= len(face.blocks) // 2)
                and rng.random() < 0.5
            ]
            o = periodic_order(face, rev)
            assert normalize(normalize(o)) == normalize(o)
            assert inversion_set(normalize(o)) == inversion_set(o)


def test_d_twist():
    base = standard_order(D2)
    d = DTwist(base, (1, 2))
    t = d_twist_set(d)
    assert t.phi_prime == frozenset({"ctrA1:1,2"})
    win = t.window(6).members
    g12 = finite_class(canonical_root(D2, 1, 2))
    keep = {g12, negate_class(g12)}
    for r in root_window(D2, 6):
        assert (r in win) == (finite_class(r) in keep)
    # twisting twice restores the untwisted classification
    tt = build_biclosed(t.face, t.phi_prime ^ {"ctrA1:1,2"}, t.w_map())
    assert tt == inversion_set(base)
    # the twisted set has no total-order model
    with pytest.raises(DRepresentationRequired):
        order_from_triple(t)
    # classification round-trips through the window oracle
    assert classify(t.window(4)) == t


def test_d_twist_validation():
    with pytest.raises(InvalidTwist):
        d_twist_set(DTwist(standard_order(C2), (1, 2)))
    with pytest.raises(InvalidTwist):
        d_twist_set(DTwist(standard_order(D3), (1, 2)))  # central is too big
    face = face_from_blocks(D3, [{-3}, {-1, 1, -2, 2}, {3}])
    base = periodic_order(face)
    t = d_twist_set(DTwist(base, (1, 2)))
    assert t.phi_prime == frozenset({"ctrA1:1,2"})
    with pytest.raises(InvalidTwist):
        d_twist_set(DTwist(base, (1, 3)))


def test_d_twist_in_bigger_rank():
    # a twisted central {+-1, +-2} inside the rank-3 group
    face = face_from_blocks(D3, [{-3}, {-1, 1, -2, 2}, {3}])
    base = periodic_order(face)
    t = d_twist_set(DTwist(base, (1, 2)))
    assert classify(t.window(4)) == t


def test_central_inversion_roots_match_the_height_scan():
    # every face of B2-B4, C2-C4 and D2-D4 with a central block
    # permutation, six random words of length 0-6 each, forward or
    # reversed: the central elements that inversion_set reads off the
    # block permutation invert exactly the roots the forward order does
    rng = random.Random(7)
    orders = nonempty = 0
    for fam in "BCD":
        for n in (2, 3, 4):
            for face in enumerate_faces(AffineType(fam, n)):
                mid = len(face.blocks) // 2
                ptype = face.block_types[mid]
                if ptype is None:
                    continue
                central = parahoric(face).by_block[mid]
                gens = simple_reflections(ptype)
                for _ in range(6):
                    u = word(ptype, [rng.randrange(len(gens))
                                     for _ in range(rng.randrange(7))])
                    o = periodic_order(face, [mid] if rng.random() < 0.5 else [],
                                       {mid: None if u.is_identity() else u})
                    w = inversion_set(o).w_map()
                    got = {c.to_global(r) for c in central if c.id in w
                           for r in inversions(w[c.id])}
                    assert got == _reference_central_inversion_roots(o, mid), o
                    orders += 1
                    nonempty += bool(got)
    assert orders == 9810 and nonempty > 3000
