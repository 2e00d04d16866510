"""Root canonicalization, windows and rank-2 subsystems."""

import itertools
import random
from fractions import Fraction

import pytest

from afweak.closure import WindowSet, _plane_table, _window_planes
from afweak.errors import AfweakError, DependentRoots, NotARoot, TooLarge
from afweak.roots import (
    MAX_WINDOW_ROOTS,
    AffineType,
    all_class_keys,
    canonical_root,
    delta_height,
    finite_class,
    finite_roots,
    negate_class,
    pair_class_keys,
    plane_key,
    positive_class_pairs,
    rank2_subsystem,
    guard_window,
    root_window,
    signed_residue,
    vector_to_root,
    window_size,
    _angular_sort,
    _plane_key,
)
from references import (
    _reference_rank2_subsystem,
    _reference_span_window_planes,
    _reference_window_planes,
    _rref_plane_key,
    _solve_in_plane,
)

A4 = AffineType("A", 4)
A3 = AffineType("A", 3)
A2 = AffineType("A", 2)
C2 = AffineType("C", 2)
B2 = AffineType("B", 2)
D2 = AffineType("D", 2)
D3 = AffineType("D", 3)
SMALL_TYPES = [AffineType(fam, n)
               for fam, lo, hi in (("A", 2, 6), ("B", 1, 5), ("C", 1, 5), ("D", 2, 5))
               for n in range(lo, hi + 1)]


def test_rank_and_height_must_be_ints():
    # a bool is no int: AffineType("A", True) would be A1, and a window of
    # height True would read the cached h = 1 window
    for n in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="rank n must be an int"):
            AffineType("A", n)
    a3 = AffineType("A", 3)
    for h in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="window height must be an int"):
            guard_window(a3, h)
        with pytest.raises(TypeError, match="window height must be an int"):
            WindowSet(a3, h, [])
    guard_window(a3, 1)


def test_the_modulus_is_stored_once_and_ignored_by_equality():
    for typ, m in ((AffineType("A", 4), 4), (AffineType("B", 3), 7),
                   (AffineType("C", 2), 5), (AffineType("D", 5), 11)):
        assert typ.modulus == m
        odd = AffineType(typ.family, typ.n)
        object.__setattr__(odd, "modulus", -1)
        assert odd == typ and hash(odd) == hash(typ) and repr(odd) == repr(typ)
    # family and n are set by the constructor, compared and shown; the
    # modulus is none of these
    assert AffineType(family="B", n=3) == AffineType("B", 3)
    assert AffineType("B", 3) != AffineType("B", 4) and AffineType("B", 3) != AffineType("C", 3)
    assert repr(AffineType(family="B", n=3)) == "AffineType('B', 3)"
    with pytest.raises(TypeError, match="modulus"):
        AffineType("B", 3, modulus=7)


def test_root_indices_and_window_heights_must_be_ints():
    # 0.5 would give the non-root Root(A3:0.5,2.0), True the root (1, 2)
    for i, j in ((0.5, 2), (True, 2), (0, 2.0)):
        with pytest.raises(TypeError, match="root indices must be ints"):
            canonical_root(A3, i, j)
    # the cache is typed: True and 1.0 do not meet the cached h = 1 window
    assert len(root_window(A3, 1)) == window_size(A3, 1)
    for h in (True, 1.0):
        with pytest.raises(TypeError, match="window height must be an int"):
            root_window(A3, h)


def test_canonical_translation():
    assert canonical_root(A4, 5, 7).pair() == (1, 3)
    assert canonical_root(A4, 1, 3).pair() == (1, 3)  # idempotent


def test_canonical_signed_mirror():
    r = canonical_root(C2, -2, 1)
    assert r.pair() == (3, 6)
    # negation involution on random admissible pairs
    rng = random.Random(0)
    for typ in (C2, B2, D2, D3):
        m = typ.modulus
        for _ in range(200):
            i = rng.randrange(-2 * m, 2 * m)
            j = i + rng.randrange(1, 3 * m)
            try:
                r1 = canonical_root(typ, i, j)
            except NotARoot:
                continue
            assert canonical_root(typ, -j, -i) == r1


def test_not_a_root():
    with pytest.raises(NotARoot):
        canonical_root(A4, 1, 5)  # same residue
    with pytest.raises(NotARoot):
        canonical_root(D2, 1, 4)  # i = -j mod 5
    with pytest.raises(NotARoot):
        canonical_root(C2, 1, 10)  # zero residue
    with pytest.raises(NotARoot):
        canonical_root(B2, 2, 3)  # i+j = 5 mod 10
    canonical_root(B2, 1, 9)  # i+j = 10: a B-root
    with pytest.raises(NotARoot):
        canonical_root(A4, 3, 1)  # not positive


def test_delta_height():
    assert delta_height(canonical_root(A4, 1, 3)) == 0
    assert delta_height(canonical_root(A4, 1, 11)) == 2
    assert delta_height(canonical_root(C2, 4, 11)) == 1
    # adding delta raises the height by one where the translate is a root
    for typ in (A3, C2, D3):
        m = typ.modulus
        for r in root_window(typ, 2):
            try:
                up = canonical_root(typ, r.i, r.j + m)
            except NotARoot:
                continue
            assert up.height == r.height + 1


def test_window_counts_type_a():
    for n in range(2, 6):
        for h in range(7):
            assert len(root_window(AffineType("A", n), h)) == n * (n - 1) * (h + 1)


def test_window_monotone():
    for typ in (A3, C2, B2, D2, D3):
        for h in range(4):
            small = set(root_window(typ, h))
            big = set(root_window(typ, h + 1))
            assert small < big


def test_figure_two_window():
    labels = [r.pair() for r in root_window(A2, 2)]
    assert labels == [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)]


def test_vector_round_trip():
    for typ in (A3, A4, C2, B2, D3):
        for r in root_window(typ, 3):
            assert vector_to_root(typ, r.vector()) == (1, r)
            neg = tuple(-c for c in r.vector())
            assert vector_to_root(typ, neg) == (-1, r)
    # wrong support, a +-2 entry in families A and D, a zero finite part,
    # an undoubled B short root and a B short root with odd delta part
    for typ, vec in ((A4, (1, 0, 0, 0, 0)), (A4, (1, 1, -1, -1, 0)),
                     (A4, (2, -2, 0, 0, 1)), (A4, (0, 0, 0, 0, 1)),
                     (D3, (1, 0, 0, 0)), (D3, (1, 1, 1, 2)), (D3, (2, 0, 0, 1)),
                     (D3, (0, -2, 0, 0)), (D3, (0, 0, 0, 3)), (C2, (1, 2, 0)),
                     (B2, (1, 0, 0)), (B2, (2, 0, 1)), (B2, (0, 0, -1))):
        assert vector_to_root(typ, vec) is None, (typ, vec)


def test_rank2_kinds_and_orders():
    sub = rank2_subsystem(canonical_root(A4, 0, 1), canonical_root(A4, 1, 2))
    assert sub.kind == "A2"
    assert [r.pair() for r in sub.positive_roots] == [(0, 1), (0, 2), (1, 2)]

    sub = rank2_subsystem(canonical_root(A4, 0, 2), canonical_root(A4, 2, 4))
    assert sub.kind == "Atilde1"
    assert [r.pair() for r in sub.positive_roots] == [(0, 2), (2, 4)]
    # figure-2 shaped order: up the left string, down the right one
    win = [r.pair() for r in sub.ordered_window(2)]
    assert win == [(0, 2), (0, 6), (0, 10), (2, 12), (2, 8), (2, 4)]

    sub = rank2_subsystem(canonical_root(C2, 1, 2), canonical_root(C2, 3, 6))
    assert sub.kind == "B2"
    assert [r.pair() for r in sub.positive_roots] == [(1, 2), (3, 7), (3, 6), (4, 6)]

    sub = rank2_subsystem(canonical_root(A4, 0, 1), canonical_root(A4, 2, 3))
    assert sub.kind == "A1xA1"


def test_rank2_dependent():
    r = canonical_root(A4, 0, 1)
    with pytest.raises(DependentRoots):
        rank2_subsystem(r, r)


def test_plane_tables_are_the_window_parts_of_rank2_subsystems():
    # both read roots._finite_spans: each table plane, first to last, is
    # the height-h part of the subsystem of its two end roots
    for typ in (A4, AffineType("C", 3)):
        roots = root_window(typ, 3)
        kinds = set()
        for plane, *_ in _plane_table(typ, 3):
            sub = rank2_subsystem(roots[plane[0]], roots[plane[-1]])
            got = [roots[k] for k in plane]
            assert sub.ordered_window(3) in (tuple(got), tuple(got[::-1])), (typ, plane)
            kinds.add(sub.kind)
        assert kinds == ({"A2", "Atilde1"} if typ == A4 else {"A2", "B2", "Atilde1"})


def test_angular_sort_rejects_roots_outside_the_plane():
    a, b = canonical_root(A4, 0, 1), canonical_root(A4, 1, 2)
    with pytest.raises(AfweakError, match="outside the plane"):
        _angular_sort(plane_key(a, b), [a, canonical_root(A4, 2, 3)])


def test_integer_plane_geometry_matches_the_rational_reference():
    # plane keys on every pair of the height-1 windows, dependent pairs
    # (a root with itself) included; whole plane tables, order included,
    # against the planes of the rational pairwise scan with three or more
    # window roots, at h <= 1 and at the largest windows the benchmark
    # builds (B3 h=6 and C3 h=5 hold four-root B2 planes and B's short
    # delta-strings, which skip every other height)
    for typ in [AffineType(fam, n)
                for fam, lo, hi in (("A", 2, 6), ("B", 2, 4), ("C", 2, 4), ("D", 3, 5))
                for n in range(lo, hi + 1)]:
        vecs = [r.vector() for r in root_window(typ, 1)]
        for u, v in itertools.combinations_with_replacement(vecs, 2):
            assert _plane_key(u, v) == _rref_plane_key(u, v), (u, v)
        for h in (0, 1):
            want = tuple(p for p in _reference_window_planes(typ, h) if len(p) >= 3)
            assert _window_planes(typ, h) == want, (typ, h)
    # the scan's plane counts, two-root planes included, pinned as ROADMAP
    # item 3 quoted them: an A5 h=5 plane is an h=6 one with two or more
    # roots of height <= 5 (that window is a prefix of the h=6 one)
    for typ, h, totals in (
        (AffineType("A", 5), 6, {5: 4330, 6: 5890}), (AffineType("D", 4), 6, {6: 8244}),
        (AffineType("B", 3), 6, {6: 2655}), (AffineType("C", 3), 5, {5: 2817}),
    ):
        reference = _reference_window_planes(typ, h)
        want = tuple(p for p in reference if len(p) >= 3)
        assert _window_planes(typ, h) == want, (typ, h)
        for g, total in totals.items():
            size = window_size(typ, g)
            assert sum(sum(k < size for k in p) >= 2 for p in reference) == total, (typ, g)


def test_plane_tables_match_the_first_span_build():
    # keys and betweenness orders read off the finite spans equal those of
    # 2x2 minors of the full root vectors and a comparison sort, tuples
    # and order, at every guarded height up to 6
    pairs = 0
    for typ in [AffineType(fam, n)
                for fam, lo, hi in (("A", 2, 6), ("B", 2, 4), ("C", 2, 4), ("D", 3, 5))
                for n in range(lo, hi + 1)]:
        for h in range(7):
            if window_size(typ, h) > MAX_WINDOW_ROOTS:
                break
            got = _window_planes.__wrapped__(typ, h)
            assert got == _reference_span_window_planes(typ, h), (typ, h)
            pairs += 1
    assert pairs == 97


def test_rank2_subsystems_match_the_rational_reference():
    kinds = set()
    for typ in (A4, AffineType("B", 3), AffineType("C", 3), AffineType("D", 4)):
        for a, b in itertools.combinations_with_replacement(root_window(typ, 2), 2):
            want = _reference_rank2_subsystem(a, b)
            if want is None:
                with pytest.raises(DependentRoots):
                    rank2_subsystem(a, b)
                continue
            got = rank2_subsystem(a, b)
            assert (got.kind, got.positive_roots) == (want.kind, want.positive_roots)
            for h in range(5):
                assert got.ordered_window(h) == want.ordered_window(h), (a, b, h)
            kinds.add(got.kind)
    assert kinds == {"A1xA1", "A2", "B2", "Atilde1"}


def _in_open_cone(basis, ends, mid):
    """Exact rational test: mid in R>0 end1 + R>0 end2."""
    e1 = _solve_in_plane(basis, ends[0].vector())
    e2 = _solve_in_plane(basis, ends[1].vector())
    mv = _solve_in_plane(basis, mid.vector())
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det == 0:
        return False
    x = Fraction(mv[0] * e2[1] - mv[1] * e2[0], det)
    y = Fraction(e1[0] * mv[1] - e1[1] * mv[0], det)
    return x > 0 and y > 0


def test_finite_root_table_matches_the_height_one_window():
    # brute reference: read each residue pair and its class off the roots
    for typ in SMALL_TYPES:
        keys = {}
        for r in root_window(typ, 1):
            if typ.family == "A":
                a, b = r.i % typ.modulus, r.j % typ.modulus
            else:
                a, b = signed_residue(typ, r.i), signed_residue(typ, r.j)
            k, nk = finite_class(r), negate_class(finite_class(r))
            pairs = [((a, b), k), ((b, a), nk)]
            if typ.family != "A":
                pairs += [((-b, -a), k), ((-a, -b), nk)]
            for p, key in pairs:
                assert keys.setdefault(p, key) == key
        assert list(pair_class_keys(typ).items()) == sorted(keys.items())
        assert all_class_keys(typ) == tuple(sorted(set(keys.values())))
        fins = {r.vector()[:-1] for r in root_window(typ, 1)}
        assert set(finite_roots(typ).values()) == fins | {negate_class(f) for f in fins}
        positive = positive_class_pairs(typ)
        assert positive == sorted(positive)
        assert sorted(keys[p] for p in positive) == sorted(
            k for k in set(keys.values()) if k < negate_class(k))


def test_rank2_betweenness_is_cone_membership():
    rng = random.Random(1)
    # B3, C3 and D4 at height 4: short B strings skip a height
    for typ, h in ((A3, 3), (C2, 3), (B2, 3), (D3, 3),
                   (AffineType("B", 3), 4), (AffineType("C", 3), 4),
                   (AffineType("D", 4), 4)):
        window = root_window(typ, h)
        pairs = 0
        while pairs < 25:
            a, b = rng.sample(window, 2)
            try:
                sub = rank2_subsystem(a, b)
            except DependentRoots:
                continue
            pairs += 1
            ordered = sub.ordered_window(h)
            basis = _rref_plane_key(a.vector(), b.vector())
            # the ordered window is exactly the window part of the plane
            plane_members = {
                r for r in window if _solve_in_plane(basis, r.vector()) is not None
            }
            assert set(ordered) == plane_members
            ends = (ordered[0], ordered[-1])
            for k, mid in enumerate(ordered):
                inside = _in_open_cone(basis, ends, mid)
                assert inside == (0 < k < len(ordered) - 1)


def test_finite_class_and_chains():
    a0 = canonical_root(A2, 0, 1)
    assert finite_class(a0) == (-1, 1)
    assert negate_class(finite_class(a0)) == (1, -1)
    # classes partition a window into delta-strings of bounded step
    for typ in (A3, C2, B2, D3):
        groups = {}
        for r in root_window(typ, 4):
            groups.setdefault(finite_class(r), []).append(r)
        for chain in groups.values():
            heights = [r.height for r in chain]
            assert heights == sorted(heights)
            steps = {b - a for a, b in zip(heights, heights[1:])}
            assert steps <= {1, 2}


def test_window_size_and_guard():
    for fam, lo in (("A", 2), ("B", 2), ("C", 1), ("D", 2)):
        for n in range(lo, 6):
            typ = AffineType(fam, n)
            for h in range(0, 7):
                assert len(root_window(typ, h)) == window_size(typ, h)
    # the largest window in use fits; A6 at height 8 does not
    guard_window(AffineType("D", 4), 6)
    assert window_size(AffineType("A", 6), 8) == 270 > MAX_WINDOW_ROOTS
    for typ, h in ((AffineType("A", 6), 8), (A3, 10**9)):
        with pytest.raises(TooLarge):
            guard_window(typ, h)
        with pytest.raises(TooLarge):
            WindowSet(typ, h, frozenset())
    for h in (-1, -7):
        with pytest.raises(ValueError, match=">= 0"):
            guard_window(A3, h)
        with pytest.raises(ValueError, match=">= 0"):
            WindowSet(A3, h, frozenset())
