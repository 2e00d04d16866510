"""Window-notation groups: validation, reflections, inversion sets."""

import random

import pytest

from afweak.closure import is_biclosed, window_set
from afweak.errors import InvalidWindow, NotARoot, ParityViolation, TypeMismatch
from afweak.perms import (
    elements_up_to_length,
    from_window,
    identity,
    inversions,
    invert,
    length,
    max_displacement,
    multiply,
    reflection,
    root_action,
    simple_reflections,
)
from afweak.roots import AffineType, canonical_root

A3 = AffineType("A", 3)
A4 = AffineType("A", 4)
C2 = AffineType("C", 2)
B2 = AffineType("B", 2)
D2 = AffineType("D", 2)
D3 = AffineType("D", 3)

ALL = (A3, A4, C2, B2, D2, D3)


def _rand(typ, rng, k=5):
    gens = simple_reflections(typ)
    w = identity(typ)
    for _ in range(rng.randrange(k)):
        w = multiply(w, gens[rng.randrange(len(gens))])
    return w


def test_from_window_validation():
    s1 = from_window(A3, [2, 1, 3])
    assert s1 == reflection(A3, 1, 2)
    s0 = from_window(A3, [0, 2, 4])
    assert s0 == reflection(A3, 0, 1)
    with pytest.raises(InvalidWindow):
        from_window(A3, [1, 1, 3])  # residues collide
    with pytest.raises(InvalidWindow):
        from_window(A3, [2, 3, 4])  # sum not normalized
    with pytest.raises(InvalidWindow):
        from_window(C2, [5, 1])  # zero residue
    with pytest.raises(InvalidWindow):
        from_window(C2, [1, 4])  # 4 = -1 collides with 1 up to sign


def test_from_window_rejects_non_integers():
    # values are checked, never coerced: a float, a string or a bool (no
    # int here) is a TypeError, even where int() would give a valid window
    a3 = AffineType("A", 3)
    for values in ([1.9, 2.5, 3.99], [True, "2", 3.5], [1, 2, 3.0], [1, True, 4]):
        with pytest.raises(TypeError, match="window values must be ints"):
            from_window(a3, values)
    assert from_window(a3, iter([3, 2, 1])).window == (3, 2, 1)


def test_parity_violation_message():
    t23 = reflection(C2, 2, 3)
    with pytest.raises(ParityViolation) as exc:
        from_window(B2, t23.window)
    assert "odd" in str(exc.value)
    # D needs both counts even
    with pytest.raises(ParityViolation):
        from_window(D2, reflection(C2, -1, 1).window)


def test_identity_window():
    assert identity(A4).window == (1, 2, 3, 4)
    assert identity(C2).window == (1, 2)
    assert from_window(A4, (1, 2, 3, 4)) == identity(A4)


def test_reflection_examples():
    t = reflection(C2, -1, 1)
    assert t(5) == 5 and t(10) == 10
    assert t(1) == -1 and t(6) == 4 and t(-4) == -6
    v = reflection(D2, 2, 6)
    assert v.window == (-3, 6)
    assert sorted(r.pair() for r in inversions(v)) == [(2, 6)]
    with pytest.raises(NotARoot):
        reflection(D2, 1, 4)


def test_reflection_is_involution_containing_its_root():
    rng = random.Random(2)
    for typ in ALL:
        m = typ.modulus
        count = 0
        while count < 10:
            i = rng.randrange(-m, m)
            j = i + rng.randrange(1, 2 * m)
            try:
                t = reflection(typ, i, j)
            except NotARoot:
                continue
            count += 1
            assert multiply(t, t) == identity(typ)
            assert canonical_root(typ, i, j) in inversions(t)


def test_worked_inversion_set():
    s = simple_reflections(A4)
    w = multiply(s[0], s[1])
    assert w.window == (2, 0, 3, 5)
    assert sorted(r.pair() for r in inversions(w)) == [(0, 1), (0, 2)]
    assert length(w) == 2
    assert length(identity(A4)) == 0 and inversions(identity(A4)) == frozenset()


def test_group_axioms():
    rng = random.Random(3)
    for typ in ALL:
        for _ in range(12):
            u, v = _rand(typ, rng), _rand(typ, rng)
            assert invert(multiply(u, v)) == multiply(invert(v), invert(u))
            assert multiply(u, invert(u)) == identity(typ)
    with pytest.raises(TypeMismatch):
        multiply(identity(A3), identity(A4))


def test_length_changes_by_one():
    rng = random.Random(4)
    for typ in ALL:
        gens = simple_reflections(typ)
        for _ in range(8):
            w = _rand(typ, rng)
            for g in gens:
                assert abs(length(multiply(w, g)) - length(w)) == 1


def test_inversion_sets_are_biclosed():
    for typ in (A3, C2, B2, D2, D3):
        for w, l in elements_up_to_length(typ, 6).items():
            inv = inversions(w)
            assert len(inv) == l
            h = max([r.height for r in inv], default=0) + 2
            assert is_biclosed(window_set(typ, h, inv)).ok


def test_action_formula():
    rng = random.Random(5)
    for typ in ALL:
        for _ in range(12):
            v, w = _rand(typ, rng), _rand(typ, rng)
            lhs = inversions(multiply(v, w))
            imgs = {root_action(v, r)[1] for r in inversions(w)}
            assert lhs == frozenset(imgs) ^ inversions(v)


def test_word_bfs_matches_inversion_length():
    for typ in (A3, C2, B2, D2):
        for w, l in elements_up_to_length(typ, 5).items():
            assert length(w) == l


def test_subgroup_closure_under_products():
    # products of B/D members validate, exhaustively on short elements
    for typ in (B2, D2):
        els = list(elements_up_to_length(typ, 3))
        for u in els[:12]:
            for v in els[:12]:
                from_window(typ, multiply(u, v).window)


def test_b1_and_d2_small_rank_models():
    b1 = AffineType("B", 1)
    gens = simple_reflections(b1)
    assert len(gens) == 2
    # B~1 is an infinite dihedral group: alternating words stay reduced
    w = identity(b1)
    for k in range(6):
        w = multiply(w, gens[k % 2])
        assert length(w) == k + 1
    d2 = simple_reflections(D2)
    assert len(d2) == 4
    # the two A~1 factors commute
    assert multiply(d2[0], d2[2]) == multiply(d2[2], d2[0])


def test_max_displacement():
    assert max_displacement(identity(A4)) == 0
    assert max_displacement(reflection(A4, 0, 1)) == 1
