"""Translation-(and negation-)invariant total orders in symbolic form.

An order is stored as a fan face (the block structure) plus, per block,
an orientation flag and an affine permutation of the block's residue
classes.  This finite form is exact: a periodic order is generally not
recoverable from any bounded rendering.  Block k precedes block k+1;
inside a block the classes are arranged by the permutation, reversed
when the flag is set.  For the signed families the data is stored on the
central-and-positive positions only; the negative side is forced by the
negation symmetry.  Every integer is placed through its face's block
relabeling (``FanFace.relabeling``, read by ``fan._rho``/``_rho_inv``).
One position table (``_positions``) built from it places every integer
in all four families: its block and its position there, the negative
side mirrored.  ``precedes`` and ``render`` compare those keys, and
``lattice._relation`` and a triple's membership and windows
(``_SetTable``) read their cells off the same table; ``relabel`` and
the central block conversions map integers through the same rho.

Conversions to and from biclosed triples realize the combinatorial order
models, including the type-D twist sets that no single total order can
describe; relabeling an order through a group element realizes the
W-action on biclosed sets.  A signed centre's C-type block permutation
and its component elements convert into each other without listing a
root (``_central_elements``, ``_central_order_perm``): a lone centre's
element is the permutation up to the exchanges that its family does not
see (``fan._signed_variant``), and a split D~2's A~1 factors are read off
the inversion counts on their roots gamma, through the same count reader
as a set's elements (``fan._from_signed_inversions``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from math import inf

from .errors import (
    DRepresentationRequired,
    InvalidTwist,
    OutOfDomain,
    TooLarge,
    TypeMismatch,
)
from .fan import (
    BiclosedTriple,
    FanFace,
    build_biclosed,
    parahoric,
    _exchange_windows,
    _from_inversions,
    _from_signed_inversions,
    _interned,
    _rho,
    _rho_inv,
    _signed_variant,
)
from .perms import AffinePermutation, from_window, identity, invert
from .roots import AffineType, Root, _Record, pair_class_keys, root_window


class BlockData(_Record):
    """Orientation and arrangement of one block's residue classes."""

    _fields = ("reversed", "perm")

    def __init__(self, reversed: bool = False, perm: AffinePermutation | None = None):
        self.__dict__.update(reversed=reversed, perm=perm)  # None means the identity


class PeriodicOrder(_Record):
    """A translation-invariant total order of Z (minus MZ for B/C/D)."""

    _fields = ("face", "block_data")

    def __init__(self, face: FanFace, block_data: tuple[BlockData | None, ...]):
        self.__dict__.update(face=face, block_data=block_data)
        if len(block_data) != len(face.blocks):
            raise ValueError("one data entry per block required")
        mid = len(face.blocks) // 2
        types = face.block_types
        for k, data in enumerate(block_data):
            if face.type.family != "A" and k < mid:
                if data is not None:
                    raise ValueError("negative-side blocks carry no data")
                continue
            if data is None:
                raise ValueError(f"missing data for block {k}")
            want = types[k]
            if want is None:
                if data.perm is not None:
                    raise ValueError(f"block {k} takes no permutation")
            elif data.perm is not None and data.perm.type != want:
                raise ValueError(f"block {k} permutation must have type {want}")

    @property
    def type(self) -> AffineType:
        return self.face.type

    def data_at(self, k: int) -> BlockData:
        d = self.block_data[k]
        return BlockData() if d is None else d

    def __repr__(self):
        return f"PeriodicOrder(face={self.face!r}, data={self.block_data})"


def periodic_order(face: FanFace, reversed_blocks=(), perms=None) -> PeriodicOrder:
    """Build an order from a face, reversed block positions and perms."""
    perms = dict(perms or {})
    mid = len(face.blocks) // 2
    data: list[BlockData | None] = []
    for k in range(len(face.blocks)):
        if face.type.family != "A" and k < mid:
            data.append(None)
            continue
        data.append(BlockData(k in set(reversed_blocks), perms.get(k)))
    return PeriodicOrder(face, tuple(data))


def standard_order(typ: AffineType) -> PeriodicOrder:
    """The usual order of the integers: one block, identity arrangement."""
    from .fan import origin_face

    return periodic_order(origin_face(typ))


# ---------------------------------------------------------------------------
# comparison


def _positions(o: PeriodicOrder):
    """block[a] and place for each residue a in 0..M-1: a + qM sits at
    position place[a] + q * place[M + a] in block block[a].

    The blocks and their residues are the face's relabeling table
    (``FanFace.relabeling``, where a signed centre also holds residue 0).
    Residue a sits at its index i there, mapped by the inverse block
    permutation and negated in a reversed block; its step place[M + a] is
    +-len(reps), negative when reversed.  A signed family's block below
    the centre mirrors its negation, pos_k(a) = -pos_{2 mid - k}(-a),
    where -a has the index ~i over the mirror's residues.
    """
    face, m = o.face, o.type.modulus
    block, _, reps = face.relabeling
    signed, top = o.type.family != "A", len(face.blocks) - 1
    place = [0] * 2 * m
    for k, rs in enumerate(reps):
        j = top - k if signed and 2 * k < top else k
        data = o.data_at(j)
        uinv, sign = data.perm and invert(data.perm), -1 if data.reversed != (j != k) else 1
        step = -len(rs) if data.reversed else len(rs)
        for i, a in enumerate(rs):
            i = i if j == k else ~i
            place[a], place[m + a] = sign * (uinv(i) if uinv else i), step
    return block, place


def _order_entry(a: int, b: int, block, place):
    """{d >= eps(a, b) : a comes after b + dM} for a and b in one block of
    step s, as None, a run (lo, hi) or a ray (lo, inf): a comes after
    b + dM iff place[a] - place[b] > d * s (``_positions``)."""
    lo, s = 0 if a < b else 1, place[len(block) + a]
    if s < 0:
        return max(lo, (place[b] - place[a]) // -s + 1), inf
    hi = (place[a] - place[b] - 1) // s
    return (lo, hi) if hi >= lo else None


def _key(block, place, x: int) -> tuple[int, int]:
    """(block, position) of x; the order of ``_positions`` compares these."""
    q, a = divmod(x, len(block))
    return block[a], place[a] + q * place[len(block) + a]


def precedes(o: PeriodicOrder, a: int, b: int) -> bool:
    """True when a comes strictly before b in the order."""
    typ = o.type
    m = typ.modulus
    if typ.family != "A" and (a % m == 0 or b % m == 0):
        raise OutOfDomain("multiples of the modulus are outside the order")
    if a == b:
        raise OutOfDomain("comparing an integer with itself")
    key = partial(_key, *_positions(o))
    return key(a) < key(b)


def compare(o: PeriodicOrder, a: int, b: int) -> str:
    return "precedes" if precedes(o, a, b) else "succeeds"


# the most integers render lists
MAX_RENDER_SPAN = 100_000


def render(o: PeriodicOrder, lo: int, hi: int) -> list[int]:
    """The ground integers of [lo, hi] listed in order; TooLarge, before
    anything is listed, for more than MAX_RENDER_SPAN integers."""
    if hi - lo + 1 > MAX_RENDER_SPAN:
        raise TooLarge(f"[{lo}, {hi}] holds more than {MAX_RENDER_SPAN} integers")
    m = o.type.modulus
    pts = [
        x
        for x in range(lo, hi + 1)
        if o.type.family == "A" or x % m != 0
    ]
    return sorted(pts, key=partial(_key, *_positions(o)))


# ---------------------------------------------------------------------------
# inversion sets and the triple correspondence


def inversion_set(o: PeriodicOrder) -> BiclosedTriple:
    """The biclosed triple of {roots (i, j) : i > j in the order}.

    A block's permutation is its component's element.  A signed centre's
    C-type block permutation gives its elements through
    ``_central_elements``, read off the permutation itself: no root is
    listed.
    """
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
        if data.perm is None:
            continue
        if signed and k == mid:
            wmap.update(_central_elements(face, comps, data.perm))
        else:
            wmap[comps[0].id] = data.perm
    return build_biclosed(face, frozenset(phi), wmap)


def _central_elements(face: FanFace, comps, u: AffinePermutation):
    """The elements of the central components comps whose inversions are
    the roots that the C-type block permutation u inverts (through rho,
    which commutes with negation and with +M).

    A lone centre's element is the exchange of u that lies in its type
    (``fan._signed_variant``; u itself in family C).  A split D~2 factor's
    element is its A~1 element with n inversions (``_from_inversions``),
    n the signed count of the pairs (p, q + kM) of its root gamma that u
    inverts, with v = u^{-1}: n = (v(p) - v(q)) // M - (p - q) // M, the
    multiples of M between p - q and v(p) - v(q).
    """
    if len(comps) == 1:
        return {comps[0].id: _signed_variant(comps[0].ctype, u)}
    v, m = invert(u), u.type.modulus
    out = {}
    for comp, (p, q) in _split_factors(face):
        n = (v(p) - v(q)) // m - (p - q) // m
        out[comp.id] = _from_inversions(comp.ctype, [(1, 2, n)])
    return out


def _split_factors(face: FanFace):
    """The two A~1 factors of a split central D~2, each with its root
    gamma relabeled onto the centre: the centre's residues z1 < z2 become
    1 and 2, so gamma = e_z2 - e_z1 is (1, 2) and e_z2 + e_z1 is (-1, 2)."""
    decomp = parahoric(face)
    z1, z2 = face.relabeling.reps[len(face.blocks) // 2][1:3]
    return ((decomp.component_of_pair(z1, z2), (1, 2)),
            (decomp.component_of_pair(-z1, z2), (-1, 2)))


def order_from_triple(t: BiclosedTriple) -> PeriodicOrder:
    """The canonical order model of a triple.

    Raises DRepresentationRequired when Phi' selects exactly one A~1
    factor of a split central D~2: those sets need a DTwist.
    """
    face = t.face
    signed = face.type.family != "A"
    decomp = parahoric(face)
    mid = len(face.blocks) // 2
    data: list[BlockData | None] = [None] * mid if signed else []
    w = t.w_map()
    for k in range(len(data), len(face.blocks)):
        comps = decomp.by_block[k]
        selected = t.phi_prime & {c.id for c in comps}
        if len(comps) == 2 and len(selected) == 1:
            raise DRepresentationRequired(
                "Phi' uses one A~1 of a split central D~2; use a DTwist"
            )
        if not comps:
            u = None
        elif signed and k == mid:
            u = _central_order_perm(face, {c.id: w[c.id] for c in comps if c.id in w})
        else:
            u = w.get(comps[0].id)
        data.append(
            BlockData(bool(selected), None if u is None or u.is_identity() else u)
        )
    return PeriodicOrder(face, tuple(data))


def _central_order_perm(face: FanFace, wmap) -> AffinePermutation | None:
    """The C-type block permutation of non-identity central component
    elements; None when there are none.  The inverse of
    ``_central_elements``: a lone component is relabeled by the same rho,
    so its element already is the block permutation, and a split D~2's
    two A~1 factors give the D~2 element with their inversions, each
    factor's signed count n = v(1) - 1 (v = u^{-1}) on its root gamma
    (``fan._from_signed_inversions``)."""
    if not wmap:
        return None
    mid = len(face.blocks) // 2
    c = len(face.relabeling.reps[mid]) // 2
    if len(parahoric(face).by_block[mid]) == 1:
        (u,) = wmap.values()
        return from_window(AffineType("C", c), u.window)
    counts = [(p, q, invert(wmap[comp.id])(1) - 1)
              for comp, (p, q) in _split_factors(face) if comp.id in wmap]
    u = _from_signed_inversions(AffineType("D", 2), counts)
    return from_window(AffineType("C", c), u.window)


def normalize(o: PeriodicOrder) -> PeriodicOrder:
    """Canonical representative of the move-equivalence class.

    Singleton classes are oriented forwards; B/D central data is reduced
    modulo the neighbor-exchange moves by taking the lexicographically
    least window among the equivalent central permutations.
    """
    face = o.face
    typ = face.type
    mid = len(face.blocks) // 2
    out: list[BlockData | None] = []
    for k in range(len(face.blocks)):
        if typ.family != "A" and k < mid:
            out.append(None)
            continue
        blk = face.blocks[k]
        data = o.data_at(k)
        central = typ.family != "A" and k == mid
        if not central:
            if len(blk) < 2:
                out.append(BlockData())
            else:
                out.append(data)
            continue
        ptype = face.block_types[k]
        if ptype is None or (typ.family == "D" and len(blk) == 2):
            out.append(BlockData())
            continue
        if typ.family == "C":
            out.append(data)
            continue
        u = data.perm if data.perm is not None else identity(ptype)
        # the moves are the exchanges, commuting involutions (a D centre
        # with a permutation has c >= 2), so the orbit is u times their
        # products
        best = from_window(ptype, min(_exchange_windows(typ.family, u)))
        out.append(
            BlockData(data.reversed, None if best.is_identity() else best)
        )
    return PeriodicOrder(face, tuple(out))


def relabel(o: PeriodicOrder, v: AffinePermutation) -> PeriodicOrder:
    """The order in which v(a) precedes v(b) iff a precedes b.

    Each block's residues are mapped through v, keeping the block sequence
    and the orientations.  A block permutation u becomes rho' v rho^-1 u,
    with rho and rho' the relabelings of the old and the new block.  On
    an A-type block (any but a signed family's centre) it is then
    pre-composed with the shift that restores zero displacement sum; the
    shift moves every position alike, so the order stays.
    """
    if v.type != o.type:
        raise TypeMismatch("relabel type mismatch")
    face = o.face
    new = FanFace(o.type, tuple(frozenset(face.residue(v(a)) for a in blk)
                                for blk in face.blocks))
    data = list(o.block_data)
    for k, d in enumerate(data):
        ptype = face.block_types[k]
        if d is None or ptype is None:
            continue
        u = d.perm or identity(ptype)
        size = len(u.window)

        def image(x):
            return _rho(new, v(_rho_inv(face, k, u(x))))

        win = [image(x) for x in range(1, size + 1)]
        if ptype.family == "A":
            shift = (size * (size + 1) // 2 - sum(win)) // size
            win = [image(x + shift) for x in range(1, size + 1)]
        u = from_window(ptype, win)
        data[k] = BlockData(d.reversed, None if u.is_identity() else u)
    return PeriodicOrder(new, tuple(data))


def _twist_split(t: BiclosedTriple):
    """(base, comp): a D-twist's untwisted triple and the split A~1 factor
    whose roots the twist toggles, or (t, None) when t is no twist.  The
    base keeps t's validated parts, so it is not built again."""
    twist = [c for c in parahoric(t.face).components
             if c.kind == "splitA1" and c.id in t.phi_prime]
    if len(twist) != 1:
        return t, None
    phi = _interned(t.phi_prime - {twist[0].id})
    return _interned(BiclosedTriple(t.face, phi, t.w)), twist[0]


class _SetTable:
    """A triple's set, read off the position table (``_positions``) of its
    untwisted order (``_twist_split``): root (i, j) is in the set iff i
    comes after j, flipped on ``toggle``, a twist's A~1 residue pairs."""

    __slots__ = ("type", "block", "place", "toggle")

    def __init__(self, t: BiclosedTriple):
        base, comp = _twist_split(t)
        self.block, place = _positions(order_from_triple(base))
        self.type, self.place, self.toggle = t.type, tuple(place), ()
        if comp is not None:
            m, decomp = t.type.modulus, parahoric(t.face)
            self.toggle = frozenset((a % m, b % m) for a, b in pair_class_keys(t.type)
                                    if decomp.component_of_pair(a, b) is comp)

    def member(self, r: Root) -> bool:
        after = _key(self.block, self.place, r.i) > _key(self.block, self.place, r.j)
        return after != ((r.i % self.type.modulus, r.j % self.type.modulus) in self.toggle)

    def window_mask(self, h: int) -> int:
        """The height-h window, cell by cell (``_window_cells``): whole or
        empty across blocks, else the entry's shifts, toggled cells flipped."""
        block, mask = self.block, 0
        for a, b, ds, prefix in _window_cells(self.type, h):
            if block[a] != block[b]:
                mask |= prefix[-1] if block[a] > block[b] else 0
                continue
            e = _order_entry(a, b, block, self.place)
            if e is not None:
                mask |= prefix[bisect_right(ds, e[1])] ^ prefix[bisect_left(ds, e[0])]
            if (a, b) in self.toggle:
                mask ^= prefix[-1]
        return mask

    def zero_mask(self, h: int) -> int:
        """The height-h window of Phi_F: the cells inside one block."""
        block = self.block
        return sum(prefix[-1] for a, b, _, prefix in _window_cells(self.type, h)
                   if block[a] == block[b])


@lru_cache(maxsize=64)
def _window_cells(typ: AffineType, h: int):
    """root_window(typ, h) by residue pair (a, b): the shifts d of its
    roots (a + qM, b + (q + d)M), ascending as the window lists roots by
    height, and prefix masks, prefix[k] holding the first k roots."""
    m, cells = typ.modulus, {}
    for k, r in enumerate(root_window(typ, h)):
        ds, prefix = cells.setdefault((r.i % m, r.j % m), ([], [0]))
        ds.append(r.j // m - r.i // m)
        prefix.append(prefix[-1] | 1 << k)
    return tuple((a, b, ds, prefix) for (a, b), (ds, prefix) in cells.items())


# ---------------------------------------------------------------------------
# type-D twists


class DTwist(_Record):
    """A base order whose central block is {+-i, +-j}, plus the choice of
    one of its two A~1 root classes to toggle."""

    _fields = ("base", "pair")

    def __init__(self, base: PeriodicOrder, pair: tuple[int, int]):
        # pair: (i, j) with 1 <= i < j <= n, the +-{i,j} class
        self.__dict__.update(base=base, pair=pair)


def d_twist_set(d: DTwist) -> BiclosedTriple:
    """The biclosed set base xor {roots of the +-{i,j} class}."""
    o = d.base
    typ = o.type
    if typ.family != "D":
        raise InvalidTwist("twists exist only in family D")
    i, j = d.pair
    if not (1 <= i < j <= typ.n):
        raise InvalidTwist(f"bad class pair {d.pair}")
    face = o.face
    mid = len(face.blocks) // 2
    if face.blocks[mid] != frozenset({i, -i, j, -j}):
        raise InvalidTwist(
            f"the central block of the base is not {{+-{i}, +-{j}}}"
        )
    t = inversion_set(o)
    toggle = parahoric(face).component_of_pair(i, j).id
    return build_biclosed(face, t.phi_prime ^ {toggle}, t.w_map())
