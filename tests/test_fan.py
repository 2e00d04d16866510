"""Fan faces, parahoric decompositions, triples, classification, action."""

import itertools
import os
import random

import pytest

from afweak.closure import (
    WindowSet,
    b_infinity,
    is_biclosed,
    stable_close,
    window_set,
)
from afweak.errors import (
    AfweakError,
    ComponentMismatch,
    NotBiclosed,
    TooLarge,
    UnpairedPhiPrime,
    UnstableWindow,
)
from afweak.fan import (
    BiclosedTriple,
    FanFace,
    _classify_from_bits,
    _face_from_bits,
    _peel,
    _phi_from_bits,
    _recover_w,
    _window_mask,
    act,
    build_biclosed,
    classify,
    dominant_chamber,
    enumerate_faces,
    face_from_blocks,
    face_poset,
    global_element,
    membership,
    origin_face,
    parahoric,
    path_component_poset,
    phi_prime_from_blocks,
    triple_of_element,
)
from afweak.lattice import TryJoinResult, try_join
from afweak.orders import order_from_triple, precedes, relabel
from afweak.perms import (
    elements_up_to_length,
    identity,
    inversions,
    invert,
    max_displacement,
    multiply,
    reflection,
    root_action,
    simple_reflections,
    word,
)
from afweak.roots import (
    MAX_WINDOW_ROOTS,
    AffineType,
    all_class_keys,
    canonical_root,
    finite_class,
    negate_class,
    pair_class_keys,
    primitive_direction,
    root_window,
    window_size,
)
from afweak.verify import all_triples, random_triple

A2 = AffineType("A", 2)
A3 = AffineType("A", 3)
A4 = AffineType("A", 4)
C1 = AffineType("C", 1)
C2 = AffineType("C", 2)
B2 = AffineType("B", 2)
B3 = AffineType("B", 3)
D2 = AffineType("D", 2)
D3 = AffineType("D", 3)
D4 = AffineType("D", 4)

SEED = int(os.environ.get("AFWEAK_SEED", "0"))


# the windowed reference for act: classify the membership oracle of v.B


def classify_oracle(typ, member, settle):
    """Classify an exact membership oracle whose asymptotic class
    behavior has settled by the given height."""
    h = settle + 4
    bits = {}
    for key in all_class_keys(typ):
        vals = {member(r) for r in root_window(typ, h)
                if r.height >= settle and finite_class(r) == key}
        if len(vals) != 1:
            raise UnstableWindow("asymptotic membership did not settle")
        bits[key] = vals.pop()
    for _ in range(4):
        try:
            mask = sum(1 << k for k, r in enumerate(root_window(typ, h))
                       if member(r))
            out = _classify_from_bits(typ, bits, mask, h)
        except UnstableWindow:
            h *= 2
            continue
        if all(out.member(r) == member(r) for r in root_window(typ, h)):
            return out
        h *= 2
    raise UnstableWindow("oracle classification did not stabilize")


def act_oracle(v, t):
    """v.B by its definition (r in v.B iff v^-1 r in B, a negative image
    counting as absent), classified at a settle height guessed from the
    inversion heights of B and the displacement of v."""
    vinv = invert(v)

    def member(r):
        sign, img = root_action(vinv, r)
        return t.member(img) if sign == 1 else not t.member(img)

    inv_heights = [r.height for r in t.inv_global] or [0]
    settle = max(inv_heights) + 2 * max_displacement(v) + 4
    return classify_oracle(t.type, member, settle)


def test_face_counts():
    assert len(enumerate_faces(A3)) == 13
    assert len(enumerate_faces(A2)) == 3
    assert len(enumerate_faces(C1)) == 3
    assert len(enumerate_faces(D2)) == 9
    assert len(enumerate_faces(C2)) == len(enumerate_faces(B2)) == 17
    with pytest.raises(TooLarge):
        enumerate_faces(AffineType("A", 7))


def test_face_validation():
    with pytest.raises(ValueError):
        face_from_blocks(A3, [{0, 1}])  # not a partition
    with pytest.raises(ValueError):
        face_from_blocks(C2, [{-1, -2}, {0}, {1, 2}, {-2, 2}])  # even count
    with pytest.raises(ValueError):
        face_from_blocks(C2, [{-1}, {-2}, {0}, {1}, {2}])  # not symmetric
    face_from_blocks(C2, [{1, 2}, {0}, {-1, -2}])  # x1 = x2 < 0 is fine
    face_from_blocks(C2, [{-1, 2}, {0}, {1, -2}])  # mixed signs are fine
    with pytest.raises(ValueError):
        face_from_blocks(D2, [{-1}, set(), {1}, {-2}, {2}])  # misplaced empty
    # the empty-central ray of D needs a doubleton adjacent block
    face_from_blocks(D2, [{-1, -2}, set(), {1, 2}])
    with pytest.raises(ValueError):
        face_from_blocks(D2, [{-2}, {-1}, set(), {1}, {2}])


def test_one_indexed_blocks_relabeling():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    assert f.one_indexed_blocks() == ((1, 3), (2, 4))


def test_parahoric_decompositions():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    d = parahoric(f)
    assert [(c.id, c.ctype) for c in d.components] == [
        ("blk0", A2),
        ("blk1", A2),
    ]
    assert [c.ctype for c in parahoric(origin_face(C2)).components] == [C2]
    assert sorted(c.id for c in parahoric(origin_face(D2)).components) == [
        "ctrA1:1,-2",
        "ctrA1:1,2",
    ]
    assert [c.ctype for c in parahoric(origin_face(D3)).components] == [D3]
    # chambers have trivial parahorics
    assert parahoric(dominant_chamber(A3)).components == ()
    # a singleton-central D face contributes no central factor
    f = face_from_blocks(D2, [{-2}, {-1, 1}, {2}])
    assert [c.id for c in parahoric(f).components] == []


def test_split_component_rejects_a_negative_image(monkeypatch):
    # the sign check survives python -O: it is a raise, not an assert
    comp = parahoric(origin_face(D2)).components[0]
    local = canonical_root(comp.ctype, 0, 1)
    want = comp.to_global(local)
    monkeypatch.setattr("afweak.fan.vector_to_root", lambda typ, vec: (-1, want))
    with pytest.raises(ComponentMismatch):
        comp.to_global(local)


def test_build_rejects_a_bad_split_image(monkeypatch):
    # inv_global is derived on first use; a bad splitA1 image still fails
    # the build itself
    face = origin_face(D2)
    comp = parahoric(face).components[0]
    u = simple_reflections(comp.ctype)[0]
    monkeypatch.setattr("afweak.fan.vector_to_root", lambda typ, vec: None)
    with pytest.raises(ComponentMismatch):
        build_biclosed(face, frozenset(), {comp.id: u})


def test_phi_prime_from_blocks_pairing():
    f = face_from_blocks(C2, [{-2}, {-1}, {0}, {1}, {2}])
    assert phi_prime_from_blocks(f, []) == frozenset()
    # a middle without a component is refused like any other position:
    # the B2 chamber's {0}, a D3 empty centre and a D3 centre {+-v}
    for typ, blocks, pos in (
        (B2, [{-2}, {-1}, {0}, {1}, {2}], [2]),
        (D3, [{-3}, {-1, -2}, set(), {1, 2}, {3}], [2]),
        (D3, [{-3}, {-2}, {-1, 1}, {2}, {3}], [2]),
    ):
        with pytest.raises(ComponentMismatch, match=r"blocks \[2\] hold no"):
            phi_prime_from_blocks(face_from_blocks(typ, blocks), pos)
    with pytest.raises(ComponentMismatch, match=r"blocks \[1, 3\] hold no"):
        phi_prime_from_blocks(f, [1, 3])
    f = face_from_blocks(C2, [{-1, -2}, {0}, {1, 2}])
    assert phi_prime_from_blocks(f, [0, 2]) == frozenset({"blk2"})
    with pytest.raises(UnpairedPhiPrime):
        phi_prime_from_blocks(f, [2])
    with pytest.raises(ComponentMismatch):
        build_biclosed(f, frozenset({"nope"}), {})


def test_figure_two_triple():
    dom = dominant_chamber(A2)
    t = build_biclosed(dom, frozenset(), {})
    blue = frozenset(canonical_root(A2, 0, 1 + 2 * k) for k in range(7))
    assert t.window(6).members == blue
    assert classify(t.window(6)) == t


def test_worked_join_membership():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    t = build_biclosed(f, phi_prime_from_blocks(f, [1]), {})
    for r in root_window(A4, 6):
        expected = (r.i == 0 and r.j % 4 != 0) or (r.i == 2 and r.j % 4 != 2)
        assert t.member(r) == expected
    # alpha_0 + alpha_1 in, alpha_1 + alpha_2 out
    assert t.member(canonical_root(A4, 0, 2))
    assert not t.member(canonical_root(A4, 1, 3))
    assert t.member(canonical_root(A4, 0, 1))
    assert not t.member(canonical_root(A4, 3, 5))


def test_membership_zero_part_xor():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    phi = phi_prime_from_blocks(f, [1])
    decomp = parahoric(f)
    u = reflection(A2, 0, 1)
    t = build_biclosed(f, phi, {"blk1": u})
    base = build_biclosed(f, phi, {})
    for r in root_window(A4, 6):
        assert t.member(r) == (base.member(r) != (r in t.inv_global))
    e_triple = build_biclosed(f, frozenset(), {})
    for r in root_window(A4, 6):
        if f.pairing_sign(r) == 0:
            comp = decomp.component_of_root(r)
            assert e_triple.member(r) == (comp.id in e_triple.phi_prime)


def test_triple_of_element():
    w = word(A4, [0, 1])
    t = triple_of_element(w)
    assert t.face == origin_face(A4)
    assert not t.phi_prime
    assert t.window(6).members == inversions(w)
    e = triple_of_element(identity(D2))
    assert e.window(4).members == frozenset()


def test_classify_errors():
    # NotBiclosed carries is_biclosed's certificate, for either failed half
    for pairs, kind in (([(0, 3)], "coclosed"), ([(0, 1), (0, 5)], "closed")):
        bad = window_set(A2, 4, [canonical_root(A2, i, j) for i, j in pairs])
        with pytest.raises(NotBiclosed) as err:
            classify(bad)
        assert err.value.witness == is_biclosed(bad)
        assert err.value.witness.violated == kind


def test_classify_oracle_unsettled_membership():
    # membership alternating with the height never settles asymptotically
    with pytest.raises(UnstableWindow):
        classify_oracle(A2, lambda r: r.height % 2 == 0, 2)


def test_windowed_triples_are_biclosed():
    rng = random.Random(17)
    for typ in (A3, C2, B2, D2):
        faces = enumerate_faces(typ)
        for _ in range(8):
            face = faces[rng.randrange(len(faces))]
            decomp = parahoric(face)
            phi = frozenset(i for i in decomp.ids() if rng.random() < 0.5)
            wmap = {}
            for c in decomp.components:
                gens = simple_reflections(c.ctype)
                u = identity(c.ctype)
                for _ in range(rng.randrange(3)):
                    u = multiply(u, gens[rng.randrange(len(gens))])
                wmap[c.id] = u
            t = build_biclosed(face, phi, wmap)
            for h in (4, 6):
                assert is_biclosed(t.window(h)).ok
    # every small triple, and random ones of all four families with
    # D-twists: the precondition for reading a classification as its
    # own certificate
    for typ in (A3, C2, D2):
        for t in all_triples(typ, 3):
            assert is_biclosed(t.window(4)).ok, t
    rng = random.Random(SEED + 63)
    for typ, h in ((AffineType("A", 5), 5), (B3, 6), (AffineType("C", 3), 5),
                   (D4, 6), (D3, 4), (B2, 5)):
        for t in _sample_triples(typ, rng, 12):
            assert is_biclosed(t.window(h)).ok, t


def test_commensurable_iff_face_and_phi_agree():
    from afweak.closure import commensurable

    rng = random.Random(18)
    for typ in (A3, D2):
        faces = enumerate_faces(typ)
        samples = []
        for _ in range(8):
            face = faces[rng.randrange(len(faces))]
            decomp = parahoric(face)
            phi = frozenset(i for i in decomp.ids() if rng.random() < 0.5)
            wmap = {}
            for c in decomp.components:
                gens = simple_reflections(c.ctype)
                u = identity(c.ctype)
                for _ in range(rng.randrange(3)):
                    u = multiply(u, gens[rng.randrange(len(gens))])
                wmap[c.id] = u
            samples.append(((face, phi), build_biclosed(face, phi, wmap)))
        for (k1, t1) in samples:
            for (k2, t2) in samples:
                same = commensurable(t1.window(8), t2.window(8))
                assert same == (k1 == k2)


def test_b_infinity_matches_face_data():
    # asymptotics of B(F, Phi', w) are independent of w
    rng = random.Random(6)
    for typ in (A3, C2, D2):
        faces = enumerate_faces(typ)
        for _ in range(10):
            face = faces[rng.randrange(len(faces))]
            decomp = parahoric(face)
            phi = frozenset(i for i in decomp.ids() if rng.random() < 0.5)
            base = build_biclosed(face, phi, {})
            wmap = {}
            for c in decomp.components:
                gens = simple_reflections(c.ctype)
                u = identity(c.ctype)
                for _ in range(rng.randrange(3)):
                    u = multiply(u, gens[rng.randrange(len(gens))])
                wmap[c.id] = u
            t = build_biclosed(face, phi, wmap)
            assert b_infinity(base.window(8)) == b_infinity(t.window(8))


def test_action_examples():
    w = word(A4, [1, 2])
    t = triple_of_element(w)
    assert act(identity(A4), t) == t
    v = word(A4, [0])
    assert act(v, t) == triple_of_element(multiply(v, w))


def test_action_is_group_action():
    rng = random.Random(7)
    for typ in (A3, C2, D2, B2, B3, D4):
        gens = simple_reflections(typ)
        for k in range(12):
            if k % 2:
                t = random_triple(typ, rng)
            else:
                t = triple_of_element(word(typ, [
                    rng.randrange(len(gens)) for _ in range(rng.randrange(3))
                ]))
            u = word(typ, [rng.randrange(len(gens)) for _ in range(2)])
            v = word(typ, [rng.randrange(len(gens)) for _ in range(2)])
            assert act(u, act(v, t)) == act(multiply(u, v), t)


def _twisted(t, rng):
    """t with Phi' selecting exactly one A~1 of its split central D~2."""
    split = [c.id for c in parahoric(t.face).components if c.kind == "splitA1"]
    phi = (t.phi_prime - set(split)) | {split[rng.randrange(2)]}
    return build_biclosed(t.face, phi, t.w_map())


def _sample_triples(typ, rng, count):
    """Random triples, every other one of family D twisted when it can be."""
    out = []
    for k in range(count):
        t = random_triple(typ, rng)
        if typ.family == "D" and k % 2 and any(
                c.kind == "splitA1" for c in parahoric(t.face).components):
            t = _twisted(t, rng)
        out.append(t)
    return out


def test_act_matches_windowed_oracle():
    rng = random.Random(SEED + 11)
    twists = 0
    for typ in (A3, AffineType("A", 5), B3, AffineType("C", 3), D3, D4):
        gens = simple_reflections(typ)
        for k in range(10):
            t = random_triple(typ, rng)
            if typ.family == "D" and k % 2:
                while not any(c.kind == "splitA1"
                              for c in parahoric(t.face).components):
                    t = random_triple(typ, rng)
                t = _twisted(t, rng)
                twists += 1
            v = word(typ, [rng.randrange(len(gens))
                           for _ in range(rng.randrange(10))])
            got = act(v, t)
            assert got == act_oracle(v, t)
            vinv = invert(v)
            for r in root_window(typ, 3):
                sign, img = root_action(vinv, r)
                assert got.member(r) == (t.member(img) == (sign == 1))
    assert twists == 10


def test_act_relabel_restores_zero_displacement():
    # s2 sends the block {0, 1} of A~2 onto {1, 2}: rho' v rho^-1 has
    # window [0, 1], and only the shift by one makes it the identity
    t = build_biclosed(face_from_blocks(A3, [{0, 1}, {2}]), set(), {})
    s2 = simple_reflections(A3)[2]
    o = relabel(order_from_triple(t), s2)
    assert o.face == face_from_blocks(A3, [{1, 2}, {0}])
    assert o.data_at(0).perm is None
    for a, b in itertools.permutations(range(-6, 7), 2):
        assert precedes(o, s2(a), s2(b)) == precedes(order_from_triple(t), a, b)
    assert act(s2, t) == build_biclosed(o.face, set(), {}) == act_oracle(s2, t)


def test_act_moves_a_d_twist_onto_the_other_split_class():
    # the +-{1,2} class of the twist goes to the +-{1,-3} class of the
    # image face, so the image selects ctrA1:1,-3
    f = face_from_blocks(D3, [{-3}, {-2, -1, 1, 2}, {3}])
    t = build_biclosed(f, {"ctrA1:1,2"}, {})
    s3 = simple_reflections(D3)[3]
    want = build_biclosed(
        face_from_blocks(D3, [{2}, {-3, -1, 1, 3}, {-2}]), {"ctrA1:1,-3"}, {}
    )
    assert act(s3, t) == want == act_oracle(s3, t)
    assert act(s3, act(s3, t)) == t


def test_action_formula_on_parahoric():
    # w.B(F, Phi') = B(F, Phi') xor (N(w) within Phi_F)
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    phi = phi_prime_from_blocks(f, [1])
    base = build_biclosed(f, phi, {})
    wmap = {"blk1": word(A2, [0, 1])}
    g = global_element(f, wmap)
    lhs = act(g, base)
    rhs = build_biclosed(f, phi, wmap)
    assert lhs == rhs
    for r in root_window(A4, 6):
        assert rhs.member(r) == (base.member(r) != (r in rhs.inv_global))


def test_action_free_on_orbit():
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    phi = phi_prime_from_blocks(f, [1])
    base = build_biclosed(f, phi, {})
    seen = set()
    for w0 in elements_up_to_length(A2, 3):
        for w1 in elements_up_to_length(A2, 3):
            g = global_element(f, {"blk0": w0, "blk1": w1})
            img = act(g, base)
            assert img not in seen
            seen.add(img)


def test_inversion_read_off_matches_peel():
    # family A reads component elements off their inversions; the peel
    # must agree on inversion sets and reject the same non-inversion sets
    rng = random.Random(23)
    for _ in range(120):
        typ = AffineType("A", rng.randrange(3, 7))
        blocks = [[] for _ in range(rng.randrange(1, 4))]
        for v in range(typ.modulus):
            blocks[rng.randrange(len(blocks))].append(v)
        f = face_from_blocks(typ, [b for b in blocks if b])
        decomp = parahoric(f)
        wmap = {}
        for c in decomp.components:
            gens = simple_reflections(c.ctype)
            wmap[c.id] = word(c.ctype, [rng.randrange(len(gens))
                                        for _ in range(rng.randrange(9))])
        x = set(build_biclosed(f, [], wmap).inv_global)
        assert _recover_w(decomp, x) == _peel(decomp, x)
        zero = [r for r in root_window(typ, 3) if f.pairing_sign(r) == 0]
        for _ in range(3):
            y = x ^ set(rng.sample(zero, min(len(zero), rng.randrange(1, 4))))
            try:
                want = _peel(decomp, y)
            except NotBiclosed:
                with pytest.raises(NotBiclosed):
                    _recover_w(decomp, y)
            else:
                assert _recover_w(decomp, y) == want
    # roots off Phi_F: from a singleton block, and across two blocks
    for blocks, root in (([{0}, {1, 2, 3}], (0, 1)), ([{0, 1}, {2, 3}], (0, 2))):
        decomp = parahoric(face_from_blocks(A4, blocks))
        for recover in (_recover_w, _peel):
            with pytest.raises(NotBiclosed):
                recover(decomp, {canonical_root(A4, *root)})


def test_path_component_poset():
    frag = path_component_poset(origin_face(A2), frozenset(), 3)
    assert len(frag.labels) == 7
    # two chains hanging off the identity
    ups = {}
    for a, b in frag.covers:
        ups.setdefault(a, []).append(b)
    assert len(frag.covers) == 6
    assert sorted(len(v) for v in ups.values()) == [1, 1, 1, 1, 2]
    assert frag.node_sizes == (0, 1, 1, 2, 2, 3, 3)
    # derived by word enumeration: 10 elements of length <= 2 in the
    # rank-3 affine symmetric group
    frag = path_component_poset(origin_face(A3), frozenset(), 2)
    assert len(frag.labels) == len(elements_up_to_length(A3, 2)) == 10
    # reversing a factor flips the covers of that coordinate
    f = face_from_blocks(A4, [{1, 3}, {0, 2}])
    fwd = path_component_poset(f, frozenset(), 1)
    rev = path_component_poset(f, frozenset({"blk1"}), 1)
    assert len(fwd.labels) == len(rev.labels) == 9
    assert fwd.covers != rev.covers
    with pytest.raises(TooLarge):
        path_component_poset(origin_face(A3), frozenset(), 9, node_guard=10)


def test_single_element_steps():
    # commensurable sets in a fragment are connected by one-root covers
    frag = path_component_poset(origin_face(A2), frozenset(), 3)
    reach = {0}
    edges = set(frag.covers) | {(b, a) for a, b in frag.covers}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in reach and b not in reach:
                reach.add(b)
                changed = True
    assert reach == set(range(len(frag.labels)))


def test_face_poset_counts():
    faces, leq = face_poset(A3)
    strict = [
        (a, b)
        for a in range(len(faces))
        for b in range(len(faces))
        if a != b and leq(a, b)
    ]
    assert len(faces) == 13 and len(strict) == 24
    dims = sorted(len(f.blocks) for f in faces)
    assert dims.count(3) == 6 and dims.count(2) == 6 and dims.count(1) == 1


# The per-root paths that the residue-class window masks replaced, kept
# as the reference: a window asks membership root by root, and
# classification compares that membership with the base triple's.


def _reference_window(t, h):
    return frozenset(r for r in root_window(t.type, h) if membership(t, r))


def _reference_classify_from_bits(typ, true_bits, member, h):
    bits = {k: k in true_bits and true_bits[k] for k in all_class_keys(typ)}
    face, phi = _face_from_bits(typ, bits)
    base = build_biclosed(face, phi, {})
    x = set()
    for r in root_window(typ, h):
        if member(r) != base.member(r):
            if face.pairing_sign(r) != 0:
                raise UnstableWindow(
                    "membership mismatch off the zero part; enlarge the window"
                )
            x.add(r)
    return build_biclosed(face, phi, _recover_w(parahoric(face), x))


def _reference_classify(s):
    cert = is_biclosed(s)
    if not cert.ok:
        raise NotBiclosed(
            f"window trace violates the {cert.violated} condition", cert
        )
    bits, stable = b_infinity(s)
    if not stable:
        raise UnstableWindow("b_infinity unstable; enlarge the window")
    try:
        t = _reference_classify_from_bits(
            s.type, dict.fromkeys(bits, True), s.__contains__, s.H)
    except NotBiclosed as e:
        raise UnstableWindow(
            f"asymptotic data inconsistent at this cutoff ({e}); enlarge the window"
        ) from e
    if _reference_window(t, s.H) != s.members:
        raise UnstableWindow("classification does not round-trip; enlarge the window")
    return t


def _reference_try_join(xs, h):
    typ = xs[0].type
    union = window_set(typ, 2 * h, filter(
        lambda r: any(x.member(r) for x in xs), root_window(typ, 2 * h)))
    big = stable_close(typ, union.mask, h)
    try:
        return TryJoinResult(True, _reference_classify(big), None)
    except NotBiclosed as e:
        return TryJoinResult(False, None, e.witness)


def test_window_masks_match_per_root_membership():
    rng = random.Random(SEED + 61)
    cases = [(typ, list(all_triples(typ, 3)), 4) for typ in (A3, C2, D2)]
    cases += [(AffineType(f, n), _sample_triples(AffineType(f, n), rng, 12), None)
              for f, n in (("A", 5), ("B", 3), ("C", 3), ("D", 4))]
    twists = 0
    for typ, triples, low_heights in cases:
        top = MAX_WINDOW_ROOTS // window_size(typ, 0) - 1  # the guard height
        above = root_window(typ, top + 3)
        for t in triples:
            twists += len(t.phi_prime & {c.id for c in parahoric(t.face).components
                                         if c.kind == "splitA1"}) == 1
            want = sum(1 << k for k, r in enumerate(above) if membership(t, r))
            # the height-h window is the first window_size(typ, h) roots;
            # the random triples sweep every height up to the guard
            for h in [*range(low_heights or top), top]:
                low = (1 << window_size(typ, h)) - 1
                assert t.window(h).mask == want & low, (t, h)
            assert t.window(top).members == _reference_window(t, top)
            assert _window_mask(t, top + 3) == want, t
            with pytest.raises(TooLarge):
                t.window(top + 1)
    assert twists >= 20
    # a window reads the component inversions on the zero part only, as
    # membership does: an inversion planted off it changes nothing
    t = build_biclosed(face_from_blocks(A4, [{1, 3}, {0, 2}]), set(),
                       {"blk1": reflection(A2, 0, 1)})
    off = next(r for r in root_window(A4, 2) if t.face.pairing_sign(r))
    planted = BiclosedTriple(t.face, t.phi_prime, t.w)
    planted.__dict__["inv_global"] = t.inv_global | {off}
    assert planted.window(4).members == _reference_window(planted, 4) == (
        t.window(4).members)


def _outcome(f, *args):
    """f(*args), or the type, message and witness of the error it raises."""
    try:
        return f(*args)
    except AfweakError as e:
        return type(e), str(e), getattr(e, "witness", None)


def test_mask_outcomes_match_the_per_root_reference():
    rng = random.Random(SEED + 62)
    kinds = set()
    # try_join on the B/D heights whose 2h planes classify builds, and at
    # h = 1 everywhere
    for typ, h, join_h in (
        (AffineType("A", 5), 5, None), (B3, 6, 3), (AffineType("C", 3), 5, None),
        (D4, 6, 3), (A3, 1, 1), (B2, 1, 1), (C2, 1, 1), (D3, 1, 1),
    ):
        triples = _sample_triples(typ, rng, 4)
        size = window_size(typ, h)
        wins = [t.window(h).mask for t in triples[:3]]
        masks = wins + [w ^ 1 << rng.randrange(size) for w in wins]
        masks += [wins[0] | wins[1], wins[1] | wins[2]]
        masks += [rng.getrandbits(size) for _ in range(2)]
        for mask in masks:
            s = WindowSet.from_mask(typ, h, mask)
            got = _outcome(classify, s)
            assert got == _outcome(_reference_classify, s), s
            kinds.add(type(got) if isinstance(got, BiclosedTriple) else got[0])
        for xs in (triples[:2], triples[2:], triples[1:3]) if join_h else ():
            got = _outcome(try_join, xs, join_h)
            assert got == _outcome(_reference_try_join, xs, join_h), xs
            kinds.add(type(got) if isinstance(got, TryJoinResult) else got[0])
    assert kinds == {BiclosedTriple, TryJoinResult, NotBiclosed, UnstableWindow}



# The id-building paths that the decomposition's block maps replaced,
# kept as the reference: component ids are built from the block position
# and the components searched by id.


def _reference_component_of_root(decomp, r):
    face = decomp.face
    if face.pairing_sign(r) != 0:
        return None
    pos = face.block_of[face.residue(r.i)]
    if face.type.family == "A":
        cid = f"blk{pos}"
    else:
        mid = len(face.blocks) // 2
        if pos != mid:
            cid = f"blk{mid + abs(pos - mid)}"
        else:
            splits = [c for c in decomp.components if c.kind == "splitA1"]
            if splits:
                fin = finite_class(r)
                return next(c for c in splits if fin in (
                    primitive_direction(c.gamma),
                    negate_class(primitive_direction(c.gamma))))
            cid = "ctr"
    return next(c for c in decomp.components if c.id == cid)


def _reference_component_class_keys(comp):
    keys = {finite_class(comp.to_global(loc)) for loc in root_window(comp.ctype, 1)}
    return keys | {negate_class(k) for k in keys}


def _reference_phi_prime_from_blocks(face, positions):
    decomp = parahoric(face)
    positions = set(positions)
    if face.type.family == "A":
        ids = {f"blk{k}" for k in positions}
    else:
        mid = len(face.blocks) // 2
        ids = set()
        for k in positions:
            if k == mid:
                # a middle without a component names an unknown id
                ids |= {c.id for c in decomp.components
                        if c.kind in ("central", "splitA1")} or {"ctr"}
                continue
            partner = 2 * mid - k
            if partner not in positions:
                raise UnpairedPhiPrime(
                    f"block {k} selected without its negative {partner}")
            ids.add(f"blk{max(k, partner)}")
    known = set(decomp.ids())
    if not ids <= known:
        raise ComponentMismatch(f"unknown components {sorted(ids - known)}")
    return frozenset(ids)


def _ids_or_error(f, *args):
    try:
        return f(*args)
    except (UnpairedPhiPrime, ComponentMismatch) as e:
        return type(e), str(e) if isinstance(e, UnpairedPhiPrime) else None


def test_component_maps_match_the_id_reference():
    rng = random.Random(SEED + 63)
    types = [AffineType(f, n) for f, ns in (
        ("A", (2, 3, 4)), ("B", (1, 2, 3)), ("C", (1, 2, 3)), ("D", (2, 3, 4)))
        for n in ns]
    subsets = 0
    for typ in types:
        window = root_window(typ, 2)
        keyvec = pair_class_keys(typ)
        for face in enumerate_faces(typ):
            decomp = parahoric(face)
            for r in window:
                assert decomp.component_of_root(r) == (
                    _reference_component_of_root(decomp, r)), (face, r)
            for comp in decomp.components:
                keys = {key for pair, key in keyvec.items()
                        if decomp.component_of_pair(*pair) == comp}
                want = _reference_component_class_keys(comp)
                assert keys == want, (face, comp.id)
                # Phi' read off asymptotic bits full on exactly these classes
                bits = {k: k in want for k in all_class_keys(typ)}
                assert _phi_from_bits(face, bits) == {comp.id}, (face, comp.id)
            # every subset of block positions, sampled on faces with many
            # blocks, and positions outside the face
            blocks = range(len(face.blocks))
            picks = [s for k in range(len(blocks) + 1)
                     for s in itertools.combinations(blocks, k)]
            if len(picks) > 64:
                picks = rng.sample(picks, 64)
            picks += [(-1,), (len(blocks),), (-1, len(blocks))]
            for pick in picks:
                got = _ids_or_error(phi_prime_from_blocks, face, pick)
                assert got == _ids_or_error(
                    _reference_phi_prime_from_blocks, face, pick), (face, pick)
            subsets += len(picks)
    assert subsets > 10000


# The face reader that counting levels replaced, kept as the reference:
# a union-find of the equal pairs, a transitive closure of the block
# order, and a merge of the family-D middle singletons.


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


def _reference_face_from_bits(typ, bits):
    keyvec = pair_class_keys(typ)
    if typ.family == "A":
        ground = list(range(typ.modulus))
    else:
        ground = [v for v in range(-typ.n, typ.n + 1) if v != 0]
    equal, after = [], []
    for (a, b), key in keyvec.items():
        if a > b and (b, a) in keyvec:
            continue
        in_ab, in_ba = bits[key], bits[keyvec[(b, a)]]
        if in_ab == in_ba:
            equal.append((a, b))
        else:
            after.append((a, b) if in_ab else (b, a))
    blist = _reference_ordered_blocks(ground, equal, after, NotBiclosed)
    if typ.family != "A":
        self_neg = [b for b in blist if frozenset(-v for v in b) == b]
        if len(self_neg) > 1:
            raise NotBiclosed("several self-negated blocks")
        if self_neg:
            mid = blist.index(self_neg[0])
            if typ.family in ("B", "C"):
                blist[mid] = frozenset(self_neg[0] | {0})
        else:
            if len(blist) % 2:
                raise NotBiclosed("odd block count without a self-negated block")
            mid = len(blist) // 2
            lower, upper = blist[mid - 1], blist[mid]
            if typ.family == "D" and len(upper) == 1:
                v = next(iter(upper))
                if lower != frozenset({-v}):
                    raise NotBiclosed("unmergeable middle blocks")
                blist[mid - 1: mid + 1] = [frozenset({v, -v})]
            elif typ.family == "D":
                blist[mid:mid] = [frozenset()]
            else:
                blist[mid:mid] = [frozenset({0})]
    try:
        face = FanFace(typ, tuple(blist))
    except ValueError as e:
        raise NotBiclosed(f"asymptotic data gives no face: {e}") from e
    return face, _phi_from_bits(face, bits)


def _face_bits(face, phi):
    """The asymptotic class bits of B(F, Phi'): a class is in when the
    face functional is negative on it, or zero and its component is in
    Phi'."""
    decomp = parahoric(face)
    bo = face.block_of
    bits = dict.fromkeys(all_class_keys(face.type), False)
    for (a, b), key in pair_class_keys(face.type).items():
        d = bo[b] - bo[a]
        bits[key] = d < 0 or (d == 0 and decomp.component_of_pair(a, b).id in phi)
    return bits


def _face_or_rejected(read, typ, bits):
    try:
        return read(typ, bits)
    except NotBiclosed:
        return NotBiclosed


def test_face_reader_matches_the_closure_reference():
    rng = random.Random(SEED + 64)
    patterns = 0
    for f, ns in (("A", (2, 3, 4)), ("B", (1, 2, 3)), ("C", (1, 2, 3)),
                  ("D", (2, 3, 4))):
        for n in ns:
            typ = AffineType(f, n)
            keys = all_class_keys(typ)
            genuine = []
            for face in enumerate_faces(typ):
                ids = parahoric(face).ids()
                for k in range(len(ids) + 1):
                    for phi in itertools.combinations(ids, k):
                        bits = _face_bits(face, set(phi))
                        assert _face_from_bits(typ, bits) == (face, frozenset(phi))
                        genuine.append(bits)
            flips = []
            for bits in rng.choices(genuine, k=300):
                key = rng.choice(keys)
                flips.append({**bits, key: not bits[key]})
            noise = [{k: rng.random() < 0.5 for k in keys} for _ in range(300)]
            for bits in genuine + flips + noise:
                assert _face_or_rejected(_face_from_bits, typ, bits) == (
                    _face_or_rejected(_reference_face_from_bits, typ, bits)), bits
                patterns += 1
    assert patterns == 10086
