"""Reference implementations that tests compare against, the relations
they are compared on, and readers of IntSet and ThresholdRelation that
only tests use.  The lattice references hold IntSets alone and read a
relation through ThresholdRelation.entry.  Not a test module: pytest
collects only test_*.py."""

import functools
import itertools
from fractions import Fraction
from math import gcd, inf

from afweak.closure import (FiniteBiclosedCertificate, WindowSet, _window_index,
                            _window_planes, b_infinity, is_biclosed, stable_close,
                            window_set)
from afweak.errors import (AfweakError, ComponentMismatch, NotAnOrder, NotARoot,
                           NotBiclosed, OutOfDomain, SigmaFixednessViolated,
                           TypeMismatch, UnpairedPhiPrime, UnstableWindow)
from afweak.fan import (FanFace, _classify_from_bits, _face_from_bits, _phi_from_bits,
                        _recover_w, _rho, build_biclosed, classify, parahoric)
from afweak.intset import _EMPTY as EMPTY
from afweak.intset import IntSet, _canon
from afweak.lattice import (_RAYS, ThresholdRelation, TryJoinResult, _eps, a_ambient,
                            check_order, embed_c, iota, sigma, sigma_relation)
from afweak.orders import BlockData, PeriodicOrder
from afweak.perms import (_simple_pairs, from_window, identity, inversions, invert,
                          max_displacement, multiply, reflection, root_action,
                          simple_reflections, word)
from afweak.roots import (
    AffineType,
    RankTwoSubsystem,
    Root,
    _class_string,
    _finite_spans,
    _pair_of_finite_root,
    _pivots,
    _plane_key,
    all_class_keys,
    canonical_root,
    finite_class,
    negate_class,
    pair_class_keys,
    primitive_direction,
    root_window,
    vector_to_root,
)
from afweak.verify import random_triple


def _reference_ordered_blocks(ground, equal, after, error):
    """The face reader that fan._ordered_blocks (counting levels) replaced:
    a union-find of the equal pairs and a transitive closure of the block
    order, blocks sorted by how many lie below them."""
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


def points(xs):
    """The finite IntSet of the given points."""
    xs = set(xs)
    lo = min(xs, default=0)
    return IntSet(lo, sum(1 << (x - lo) for x in xs), 0, 1, 0)


def tail(start, period, residues):
    """{x >= start : x mod period in residues} as an IntSet."""
    return _canon(start, 0, start, period, sum({1 << r % period for r in residues}))


def is_finite(s):
    return not s.res


def max_finite(s):
    """Largest element of a finite IntSet, None when it is empty."""
    if s.res:
        raise ValueError("set has a periodic tail")
    return s.lo + s.fin.bit_length() - 1 if s.fin else None


def cofinal_from(s):
    """K when the IntSet is a finite part plus the full ray [K, oo), else
    None (canonical: a full tail has period 1, and T - 1 is not a finite
    point)."""
    return s.T if s.res == 1 and s.P == 1 else None


def full_shape(r, a, b):
    """Shape of the full-order set {d : a comes after b + dM} of a
    ThresholdRelation: the textbook Empty, All, AtMost or AtLeast; the
    descending half is forced by totality, so V[b][a] decides it."""
    v, w = r.entry(a, b), r.entry(b, a)
    if is_finite(v):
        empty = v.is_empty() and w.complement_in(_eps(b, a)).is_empty()
        return "Empty" if empty else "AtMost"
    full = cofinal_from(v) == _eps(a, b) and w.is_empty()
    return "All" if full else "AtLeast"


def _entries(r):
    """The entries of a relation as IntSet rows."""
    return [[r.entry(a, b) for b in range(r.M)] for a in range(r.M)]


_A345 = tuple(AffineType("A", n) for n in (3, 4, 5))


def _perturbed_relations(rng, count):
    """(type, relation) pairs: iota of a random triple with one in-block
    cell perturbed, by an added shift or by losing its least shift."""
    for _ in range(count):
        typ = rng.choice(_A345)
        t = random_triple(typ, rng, 6)
        r = iota(t)
        blocks = [b for b in t.face.blocks if len(b) > 1]
        if not blocks:
            continue
        blk = sorted(rng.choice(blocks))
        a, b = rng.sample(blk, 2)
        v = _entries(r)
        e, eps = v[a][b], int(a > b)  # entries hold shifts d >= eps
        if e.is_empty() or rng.random() < 0.5:
            v[a][b] = e.union(points([eps + rng.randrange(4)]))
        else:
            v[a][b] = e.intersection(IntSet.from_range(e.min() + 1))
        yield typ, ThresholdRelation.from_sets(r.M, v)


def _hand_built(rng, m):
    """A relation over entries outside the ray shapes too: a diagonal {2}
    (a period-2 star), {0} u [2, 5], finite parts plus tails."""
    diag = (EMPTY, points([2]), IntSet.from_range(1),
            points([2]).union(IntSet.from_range(5)))
    cells = (EMPTY, IntSet.from_range(0), IntSet.from_range(1),
             IntSet.from_range(0, 2), points([0]).union(IntSet.from_range(2, 5)),
             points([1, 3]).union(IntSet.from_range(6)), tail(3, 2, [1]))
    return ThresholdRelation.from_sets(m, (
        tuple(rng.choice(diag if a == b else cells) for b in range(m)) for a in range(m)
    ))


def _reference_check_order(r):
    """check_order on the general IntSet operations alone."""
    m = r.M
    comp = [[r.entry(a, b).complement_in(_eps(a, b)) for b in range(m)] for a in range(m)]
    for a in range(m):
        for b in range(m):
            for c in range(m):
                left, right = comp[a][b], comp[b][c]
                if left.is_empty() or right.is_empty():
                    continue
                if left.minkowski(right).intersects(r.entry(a, c)):
                    raise NotAnOrder(
                        f"inversion ({a},{c}) factors through non-inversions via {b}"
                    )
    for a in range(m):
        if r.entry(a, a) not in (EMPTY, IntSet.from_range(1)):
            raise NotAnOrder(f"diagonal class {a} is partially reversed")


def _reference_transitive(r):
    """The transitivity check of threshold_closure before it read entry
    shapes: one Minkowski sum and one issubset per triple."""
    v, m = _entries(r), r.M
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if not (v[a][b].is_empty() or v[b][c].is_empty()
                        or v[a][b].minkowski(v[b][c]).issubset(v[a][c])):
                    raise NotAnOrder(f"closure is not transitive at ({a},{b},{c})")


def _reference_threshold_closure(r):
    """threshold_closure on IntSets, with the reference transitivity check."""
    m = r.M
    v = _entries(r)
    for k in range(m):
        star = v[k][k].star()
        for a in range(m):
            if v[a][k].is_empty():
                continue
            via = v[a][k].minkowski(star)
            for b in range(m):
                if v[k][b].is_empty():
                    continue
                v[a][b] = v[a][b].union(via.minkowski(v[k][b]))
    out = ThresholdRelation.from_sets(m, v)
    _reference_transitive(out)
    return out


# pi before it read the periodic order, kept as the reference: a union-find
# and closure face reader, shape and orientation checks, in-block roots
# built from the cells and handed to the component read-off.


def _reference_pi(r, typ):
    m = r.M
    check_order(r)
    equal, after = [], []
    for a in range(m):
        for b in range(a + 1, m):
            va, vb = r.entry(a, b), r.entry(b, a)
            fa, fb = is_finite(va), is_finite(vb)
            if fa and fb:
                equal.append((a, b))
            elif not fa and not fb:
                if cofinal_from(va) is None or cofinal_from(vb) is None:
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
                if not is_finite(data):
                    raise NotAnOrder(f"in-block entry ({a},{b}) is infinite")
                for d in data.upto(max_finite(data) or 0):
                    x_roots.add(canonical_root(typ, a, b + d * m))
    return build_biclosed(face, frozenset(phi), _recover_w(decomp, x_roots))


def _reference_succeeds(r, x, y):
    """ThresholdRelation.succeeds read through IntSet entries."""
    if x > y:
        return not _reference_succeeds(r, y, x)
    a, b = x % r.M, y % r.M
    return (y - b) // r.M - (x - a) // r.M in r.entry(a, b)


# The family-C route before pi read C orders, kept as the reference: the
# family-A projection of the closed relation is pulled back block by block
# (_reference_restrict_c) after two checks, decided on relations
# (_reference_pull_back) or by projecting again
# (_reference_projected_pull_back).


def _reference_restrict_c(t, typ):
    """Pull a sigma-fixed family-A triple back to its C-triple."""
    amb = t.type
    if amb != a_ambient(typ) or typ.family != "C":
        raise TypeMismatch("restrict_c needs the matching C type")
    m = typ.modulus
    blocks = []
    for blk in t.face.blocks:
        blocks.append(frozenset(v if v <= typ.n else v - m for v in blk))
    face = FanFace(typ, tuple(blocks))
    top = len(blocks) - 1
    # the C-face has the blocks of t's face at the same positions
    over = parahoric(t.face).by_block
    phi = set()
    wmap = {}
    for comp in parahoric(face).components:
        (a_comp,) = over[comp.block]
        u = t.w_map().get(a_comp.id, identity(a_comp.ctype))
        if comp.kind == "central":
            u = from_window(comp.ctype, tuple(u(k) for k in range(1, comp.ctype.n + 1)))
        elif (a_comp.id in t.phi_prime) != (over[top - comp.block][0].id in t.phi_prime):
            raise SigmaFixednessViolated("phi_prime is not sigma-symmetric")
        wmap[comp.id] = u
        if a_comp.id in t.phi_prime:
            phi.add(comp.id)
    return build_biclosed(face, frozenset(phi), wmap)


def _reference_pull_back(t, typ, what):
    """restrict_c of a family-A result, checked to be a sigma-fixed point
    that the C-result embeds onto.

    Both checks compare threshold relations against rel = iota(t), with
    no further projection: pi(iota(t)) == t, and iota writes every
    singleton class increasing, which sigma_relation keeps.  So
    sigma(t) == t iff sigma_relation(rel) == rel, and embed_c(out) == t
    iff iota(out) == rel.  The relation the join closed is no substitute
    for rel: pi drops a singleton class's orientation, so that relation
    may hold a decreasing singleton that rel writes increasing.
    """
    rel = iota(t)
    if sigma_relation(rel) != rel:
        raise SigmaFixednessViolated(f"{what} of sigma-fixed points moved")
    out = _reference_restrict_c(t, typ)
    if iota(out) != rel:
        raise SigmaFixednessViolated("pull-back does not embed correctly")
    return out


def _reference_projected_pull_back(t, typ, what):
    """_reference_pull_back with both checks decided by projecting through
    pi again: sigma(t) == t, and embed_c of the pull-back is t."""
    if sigma(t) != t:
        raise SigmaFixednessViolated(f"{what} of sigma-fixed points moved")
    out = _reference_restrict_c(t, typ)
    if embed_c(out) != t:
        raise SigmaFixednessViolated("pull-back does not embed correctly")
    return out


def _reference_try_join(xs, h):
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


def _block_position_fn(o, k):
    """Position of a ground integer inside block k (larger = later): rho
    over the block's residues, then the inverse block permutation, negated
    in a reversed block."""
    rho = functools.partial(_rho, o.face)
    data = o.data_at(k)
    if data.perm is None:
        pos = rho
    else:
        uinv = invert(data.perm)

        def pos(x):
            return uinv(rho(x))

    if data.reversed:
        return lambda x: -pos(x)
    return pos


def _reference_central_inversion_roots(o, k):
    """The roots that a signed centre's forward order inverts: every
    admissible root up to twice the displacement of the central block,
    kept where the forward order inverts it."""
    face = o.face
    typ = face.type
    m = typ.modulus
    data = o.data_at(k)
    reps = sorted(v % m for v in face.blocks[k] if v % m != 0)
    forward = PeriodicOrder(
        face, o.block_data[:k] + (BlockData(False, data.perm),) + o.block_data[k + 1:])
    pos = _block_position_fn(forward, k)
    disp = 0 if data.perm is None else max_displacement(data.perm)
    out = set()
    for i in reps:
        for j in range(i + 1, i + (2 * disp + 3) * m):
            if j % m not in reps:
                continue
            try:
                r = canonical_root(typ, i, j)
            except NotARoot:
                continue
            if (r.i, r.j) == (i, j) and pos(i) > pos(j):
                out.add(r)
    return out


def _reference_inversion_set(o):
    """orders.inversion_set before a signed centre's elements were read
    off its block permutation: every signed centre peels the roots that
    its forward order inverts, listed by the height scan."""
    face = o.face
    signed = face.type.family != "A"
    decomp = parahoric(face)
    mid = len(face.blocks) // 2
    phi = set()
    wmap = {}
    for k in range(mid if signed else 0, len(face.blocks)):
        comps = decomp.by_block[k]
        if not comps:
            continue
        data = o.data_at(k)
        if data.reversed:
            phi.update(c.id for c in comps)
        if signed and k == mid:
            wmap.update(_peel(decomp, _reference_central_inversion_roots(o, k)))
        elif data.perm is not None:
            wmap[comps[0].id] = data.perm
    return build_biclosed(face, frozenset(phi), wmap)


def _peel(decomp, x):
    """The inversion-set reader that fan._recover_w (inversion counts)
    replaced for the signed families: repeatedly strip a simple root of
    W_F from x, transforming the rest by the corresponding reflection;
    the letters assemble left-to-right into the component words."""
    typ = decomp.face.type
    simples = []
    for comp in decomp.components:
        for k, root in enumerate(comp.global_simple_roots()):
            simples.append((comp, k, root, reflection(typ, root.i, root.j)))
    words = {}
    x = set(x)
    guard = len(x) + 1
    while x:
        guard -= 1
        if guard < 0:
            raise NotBiclosed("the zero part is not a parahoric inversion set")
        hit = next((s for s in simples if s[2] in x), None)
        if hit is None:
            raise NotBiclosed("the zero part is not a parahoric inversion set")
        comp, k, root, refl = hit
        x.remove(root)
        nxt = set()
        for r in x:
            sign, img = root_action(refl, r)
            if sign != 1:
                raise NotBiclosed("inversion peel left the positive system")
            nxt.add(img)
        x = nxt
        words.setdefault(comp.id, []).append(k)
    return {comp.id: word(comp.ctype, words[comp.id])
            for comp in decomp.components if comp.id in words}


def global_element(face, w_map):
    """A family of component elements realized as one global permutation,
    each a reduced word (``_local_word``) in its component's global simple
    reflections: the route orders._central_order_perm took for a split
    D~2 centre before it read the centre off inversion counts."""
    decomp = parahoric(face)
    typ = face.type
    out = identity(typ)
    for cid, u in sorted(dict(w_map).items()):
        comp = decomp.by_id(cid)
        gens = [reflection(typ, r.i, r.j) for r in comp.global_simple_roots()]
        for s in _local_word(u):
            out = multiply(out, gens[s])
    return out


def _local_word(u):
    """A reduced word for u, as indices into its simple reflections."""
    gens = simple_reflections(u.type)
    simple_roots = [canonical_root(u.type, i, j) for i, j in _simple_pairs(u.type)]
    letters = []
    cur = u
    while cur != identity(u.type):
        inv = inversions(cur)
        s = next(k for k, a in enumerate(simple_roots) if a in inv)
        letters.append(s)
        cur = multiply(gens[s], cur)
    return letters


def _reference_precedes(o, a, b):
    """orders.precedes before the position table: blocks compare by index,
    a block below a signed family's centre by the negation symmetry
    (a before b iff -b before -a), and a block at or above it by
    _block_position_fn."""
    typ = o.type
    m = typ.modulus
    if typ.family != "A" and (a % m == 0 or b % m == 0):
        raise OutOfDomain("multiples of the modulus are outside the order")
    if a == b:
        raise OutOfDomain("comparing an integer with itself")
    face = o.face
    ka = face.block_of[face.residue(a)]
    kb = face.block_of[face.residue(b)]
    if ka != kb:
        return ka < kb
    if typ.family != "A" and ka < len(face.blocks) // 2:
        return _reference_precedes(o, -b, -a)
    pos = _block_position_fn(o, ka)
    return pos(a) < pos(b)


def _reference_render(o, lo, hi):
    """orders.render as a comparison sort over _reference_precedes."""
    m = o.type.modulus
    pts = [x for x in range(lo, hi + 1) if o.type.family == "A" or x % m]
    return sorted(pts, key=functools.cmp_to_key(
        lambda x, y: -1 if _reference_precedes(o, x, y) else 1))


def _reference_relation(o):
    """The relation writer before it read block positions as integers:
    each block's _block_position_fn, a family-C block below the centre
    mirrored as pos_k(x) = -pos_{2 mid - k}(-x), and one call per cell."""
    typ = o.type
    m = typ.modulus
    face = o.face
    top = len(face.blocks) - 1
    block, pos, step = {}, {}, {}
    for k, blk in enumerate(face.blocks):
        if typ.family == "C" and 2 * k < top:
            g = _block_position_fn(o, top - k)
            f = lambda x, g=g: -g(-x)
        else:
            f = _block_position_fn(o, k)
        for a in (v % m for v in blk):
            block[a], pos[a] = k, f(a)
        # +-(period size of the block) per shift of M; negative when reversed
        step[k] = f(a + m) - pos[a]

    def cell(a, b, lo):
        if block[a] != block[b]:
            return None if block[a] < block[b] else _RAYS[lo]
        diff, s = pos[a] - pos[b], step[block[a]]
        # a comes after b + dM  iff  diff > d * s
        if s < 0:
            return max(lo, -diff // -s + 1), inf
        hi = (diff - 1) // s
        return (lo, hi) if hi >= lo else None

    return ThresholdRelation(m, tuple(
        tuple(cell(a, b, _eps(a, b)) for b in range(m)) for a in range(m)))


# The rational plane geometry that the integer one of afweak.roots
# replaced, kept as the reference: Fraction RREF plane keys, Fraction
# coordinates in the key's basis and the angular order of their cross
# products, and the plane table and rank-2 subsystems built on them.


def _rref_plane_key(u, v):
    """Canonical basis of the rational span of u, v (primitive int rows)."""
    rows = [list(map(Fraction, u)), list(map(Fraction, v))]
    r = 0
    for c in range(len(u)):
        piv = next((k for k in range(r, 2) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for k in range(2):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == 2:
            break
    if r < 2:
        return None
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def _solve_in_plane(basis, vec):
    """Exact coordinates of vec in the 2-row basis, or None if outside."""
    b1, b2 = basis
    n = len(b1)
    for p in range(n):
        for q in range(p + 1, n):
            det = b1[p] * b2[q] - b1[q] * b2[p]
            if det:
                x = Fraction(vec[p] * b2[q] - vec[q] * b2[p], det)
                y = Fraction(b1[p] * vec[q] - b1[q] * vec[p], det)
                if all(x * b1[k] + y * b2[k] == vec[k] for k in range(n)):
                    return (x, y)
                return None
    return None


def _reference_angular_sort(basis, members, vector=Root.vector):
    """Plane members in the angular order of their rational coordinates."""
    coords = {m: _solve_in_plane(basis, vector(m)) for m in members}
    outside = [m for m, c in coords.items() if c is None]
    if outside:
        raise AfweakError(f"{outside} lie outside the plane {basis}")

    def cross(m1, m2):
        return coords[m1][0] * coords[m2][1] - coords[m1][1] * coords[m2][0]

    def cmp(m1, m2):
        if cross(m1, m2) > 0:
            return -1
        if cross(m1, m2) < 0:
            return 1
        if m1 != m2:
            raise AssertionError("proportional positive roots in a plane")
        return 0

    return sorted(members, key=functools.cmp_to_key(cmp))


def _reference_window_planes(typ, h):
    """closure._window_planes on the rational geometry."""
    roots = root_window(typ, h)
    vecs = [r.vector() for r in roots]
    by_plane = {}
    n = len(roots)
    for p in range(n):
        for q in range(p + 1, n):
            key = _rref_plane_key(vecs[p], vecs[q])
            if key is None:
                continue
            by_plane.setdefault(key, set()).update((p, q))
    return tuple(tuple(_reference_angular_sort(key, sorted(ids), vecs.__getitem__))
                 for key, ids in sorted(by_plane.items()))


def _reference_rank2_subsystem(a, b):
    """roots.rank2_subsystem on the rational geometry; None for a dependent
    pair."""
    typ = a.type
    basis = _rref_plane_key(a.vector(), b.vector())
    if basis is None:
        return None
    delta = tuple([0] * (typ.dim - 1) + [1])
    if _solve_in_plane(basis, delta) is not None:
        fin = a.vector()[:-1]
        bases = {_class_string(typ, f, 1)[0] for f in (fin, negate_class(fin))}
        return RankTwoSubsystem("Atilde1", typ,
                                tuple(sorted(bases, key=Root.sort_key)))
    members = set()
    for fin in _pair_of_finite_root(typ):
        # the unique k with fin + k*delta in the plane, if it is an integer
        xy = _solve_in_plane(tuple(b[:-1] for b in basis), fin)
        if xy is None:
            continue
        k = xy[0] * basis[0][-1] + xy[1] * basis[1][-1]
        if k.denominator != 1:
            continue
        got = vector_to_root(typ, fin + (int(k),))
        if got is not None and got[0] == 1:
            members.add(got[1])
    ordered = _reference_angular_sort(basis, sorted(members, key=Root.sort_key))
    if ordered[-1].sort_key() < ordered[0].sort_key():
        ordered.reverse()
    kind = {2: "A1xA1", 3: "A2", 4: "B2"}[len(members)]
    return RankTwoSubsystem(kind, typ, tuple(ordered))

# The window-layer references: the first build of the plane table from
# the finite spans, the rational cone search that the doubling criterion
# replaced, and the list-walking plane scans that the bitmask layer
# replaced; each scan walks every plane of _window_planes as a list of
# 0/1 flags in betweenness order.


def _reference_span_window_planes(typ, h):
    """closure._window_planes as it was first built from the finite spans:
    keys from 2x2 minors of the full root vectors and a comparison sort
    per plane."""
    vecs = [r.vector() for r in root_window(typ, h)]
    index, lifts = {}, {}  # +-root vector -> index, finite part -> deltas
    for k, v in enumerate(vecs):
        neg = tuple(-x for x in v)
        index[v] = index[neg] = k
        lifts.setdefault(v[:-1], []).append(v[-1])
        lifts.setdefault(neg[:-1], []).append(neg[-1])
    planes = {tuple(index[f + (d,)] for d in ds)
              for f, ds in lifts.items() if len(ds) > 2 and f > negate_class(f)}
    for _, ws, bases, _ in _finite_spans(typ):
        for i, j, coeffs, _ in bases:
            for x in lifts.get(ws[i], ()):
                for y in lifts.get(ws[j], ()):
                    plane = tuple(index[v] for w, (p, q) in zip(ws, coeffs)
                                  if (v := w + (p * x + q * y,)) in index)
                    if len(plane) > 2:
                        planes.add(plane)
    keys = {plane: _plane_key(vecs[plane[0]], vecs[plane[1]]) for plane in planes}

    def angular(plane):  # x first iff x[c1] y[c2] - x[c2] y[c1] > 0
        c1, c2 = _pivots(keys[plane])
        return tuple(sorted(plane, key=functools.cmp_to_key(
            lambda a, b: vecs[a][c2] * vecs[b][c1] - vecs[a][c1] * vecs[b][c2])))

    return tuple(angular(p) for p in sorted(planes, key=keys.__getitem__))


@functools.lru_cache(maxsize=None)
def _reference_planes(typ, h):
    """The planes of _window_planes with three or more window roots (a
    vanishing combination needs three vectors), each with the rational
    coordinates of its roots in the plane's RREF basis."""
    roots, _ = _window_index(typ, h)
    planes = []
    for plane in _window_planes(typ, h):
        if len(plane) >= 3:
            basis = _rref_plane_key(roots[plane[0]].vector(), roots[plane[-1]].vector())
            planes.append((plane, [_solve_in_plane(basis, roots[k].vector())
                                   for k in plane]))
    return planes


def _reference_doubling(s):
    """The doubling criterion by a cone search over the rationals: in
    plane coordinates, does some triple of D(S) have a vanishing positive
    combination (Fraction Cramer quotients)?"""
    roots, members = root_window(s.type, s.H), s.members
    for plane, coords in _reference_planes(s.type, s.H):
        dvecs = [(x, y) if roots[k] in members else (-x, -y)
                 for k, (x, y) in zip(plane, coords)]
        for (xa, ya), (xb, yb), (xc, yc) in itertools.combinations(dvecs, 3):
            det = xa * yb - ya * xb
            if (det and Fraction(yc * xb - xc * yb, det) > 0
                    and Fraction(xc * ya - yc * xa, det) > 0):
                return False
    return True


def _reference_inset(s):
    roots, index = _window_index(s.type, s.H)
    inset = bytearray(len(roots))
    for r in s.members:
        inset[index[r]] = 1
    return roots, inset


def _reference_close(s):
    roots, inset = _reference_inset(s)
    changed = True
    while changed:
        changed = False
        for plane in _window_planes(s.type, s.H):
            first = last = -1
            for pos, k in enumerate(plane):
                if inset[k]:
                    if first < 0:
                        first = pos
                    last = pos
            if first < 0:
                continue
            for pos in range(first + 1, last):
                k = plane[pos]
                if not inset[k]:
                    inset[k] = 1
                    changed = True
    return frozenset(r for k, r in enumerate(roots) if inset[k])


def _reference_interior(s):
    window = frozenset(root_window(s.type, s.H))
    return window - _reference_close(WindowSet(s.type, s.H, window - s.members))


def _reference_is_biclosed(s):
    roots, inset = _reference_inset(s)
    for plane in _window_planes(s.type, s.H):
        trace = [inset[k] for k in plane]
        ones = [p for p, t in enumerate(trace) if t]
        if not ones:
            continue
        gap = next(
            (p for p in range(ones[0] + 1, ones[-1]) if not trace[p]), None
        )
        if gap is not None:
            return FiniteBiclosedCertificate(
                False,
                (roots[plane[ones[0]]], roots[plane[gap]], roots[plane[ones[-1]]]),
                "closed",
            )
        zeros = [p for p, t in enumerate(trace) if not t]
        if zeros:
            mid = next(
                (p for p in range(zeros[0] + 1, zeros[-1]) if trace[p]), None
            )
            if mid is not None:
                return FiniteBiclosedCertificate(
                    False,
                    (roots[plane[zeros[0]]], roots[plane[mid]], roots[plane[zeros[-1]]]),
                    "coclosed",
                )
    return FiniteBiclosedCertificate(True)


def _reference_still_biclosed(typ, h, inset, new_idx):
    for plane in _window_planes(typ, h):
        if new_idx not in plane:
            continue
        trace = [inset[k] or k == new_idx for k in plane]
        ones = [p for p, t in enumerate(trace) if t]
        if any(not trace[p] for p in range(ones[0] + 1, ones[-1])):
            return False
        zeros = [p for p, t in enumerate(trace) if not t]
        if zeros and any(trace[p] for p in range(zeros[0] + 1, zeros[-1])):
            return False
    return True


def _reference_failing_lengths(s):
    """The lengths of the planes, in _window_planes order, whose trace of
    s is neither ascending nor descending in betweenness order."""
    lengths = []
    for plane in _window_planes(s.type, s.H):
        trace = [s.mask >> k & 1 for k in plane]
        if trace != sorted(trace) and trace != sorted(trace, reverse=True):
            lengths.append(len(plane))
    return lengths


# The component-inversion path that the order table (orders._SetTable)
# replaced, kept as the reference: the component elements' inversions
# mapped to global roots, membership by the face sign and, on the zero
# part, by Phi' xored with those roots, and a window read per residue
# class with them xored in on the zero part.


def _reference_pairing_sign(face, r):
    """Sign of <f, r> for f in the relative interior of the face."""
    bo = face.block_of
    d = bo[face.residue(r.j)] - bo[face.residue(r.i)]
    return (d > 0) - (d < 0)


@functools.lru_cache(maxsize=4096)
def _reference_inv_global(t):
    """The component inversions of t as global roots."""
    decomp = parahoric(t.face)
    return frozenset(
        decomp.by_id(cid).to_global(loc) for cid, u in t.w for loc in inversions(u)
    )


def _reference_membership(t, r):
    if r.type != t.type:
        raise TypeMismatch("root and triple types differ")
    sign = _reference_pairing_sign(t.face, r)
    if sign:
        return sign < 0
    decomp = parahoric(t.face)
    comp = decomp.component_of_root(r)
    return (comp.id in t.phi_prime) != (r in _reference_inv_global(t))


@functools.lru_cache(maxsize=64)
def _reference_residue_classes(typ, h):
    """root_window(typ, h) grouped by residue pair (i mod M, j mod M): a
    representative root and the mask of the class per pair.  The face
    sign and the component are constant on a class."""
    m = typ.modulus
    classes = {}
    for k, r in enumerate(root_window(typ, h)):
        classes.setdefault((r.i % m, r.j % m), [r, 0])[1] |= 1 << k
    return tuple((rep, mask) for rep, mask in classes.values())


def _reference_base_masks(face, phi_prime, h):
    """The height-h window masks of B(F, Phi') with identity component
    elements and of its zero part Phi_F, read once per residue class."""
    decomp = parahoric(face)
    mask = zero = 0
    for rep, cls in _reference_residue_classes(face.type, h):
        sign = _reference_pairing_sign(face, rep)
        if sign < 0:
            mask |= cls
        elif sign == 0:
            zero |= cls
            if decomp.component_of_root(rep).id in phi_prime:
                mask |= cls
    return mask, zero


def _reference_window_mask(t, h):
    """The base mask with the component inversions xored in on the zero
    part.  Unguarded, for any h."""
    mask, zero = _reference_base_masks(t.face, t.phi_prime, h)
    index = _window_index(t.type, h)[1]
    flip = sum(1 << index[r] for r in _reference_inv_global(t) if r in index)
    return mask ^ (flip & zero)


# The per-root paths that the residue-class window masks replaced, kept
# as the reference on the component path above: a window asks membership
# root by root, and classification compares that membership with the base
# triple's.


def _reference_window(t, h):
    return frozenset(r for r in root_window(t.type, h) if _reference_membership(t, r))


def _reference_classify_from_bits(typ, true_bits, member, h):
    bits = {k: k in true_bits and true_bits[k] for k in all_class_keys(typ)}
    face, phi = _face_from_bits(typ, bits)
    base = build_biclosed(face, phi, {})
    x = set()
    for r in root_window(typ, h):
        if member(r) != _reference_membership(base, r):
            if _reference_pairing_sign(face, r) != 0:
                raise UnstableWindow(
                    "membership mismatch off the zero part; enlarge the window"
                )
            x.add(r)
    return build_biclosed(face, phi, _peel(parahoric(face), x))


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


def _reference_per_root_try_join(xs, h):
    typ = xs[0].type
    union = window_set(typ, 2 * h, filter(
        lambda r: any(x.member(r) for x in xs), root_window(typ, 2 * h)))
    big = stable_close(typ, union.mask, h)
    try:
        return TryJoinResult(True, _reference_classify(big), None)
    except NotBiclosed as e:
        return TryJoinResult(False, None, e.witness)


# The windowed reference for act: classify an exact membership oracle.


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


# The id-building paths that the decomposition's block maps replaced,
# kept as the reference: component ids are built from the block position
# and the components searched by id.


def _reference_component_of_root(decomp, r):
    face = decomp.face
    if _reference_pairing_sign(face, r) != 0:
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


# The face reader that counting levels replaced, kept as the reference:
# a union-find of the equal pairs, a transitive closure of the block
# order, and a merge of the family-D middle singletons.


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
