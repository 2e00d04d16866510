"""Translation-(and negation-)invariant total orders in symbolic form.

An order is stored as a fan face (the block structure) plus, per block,
an orientation flag and an affine permutation of the block's residue
classes.  This finite form is exact: a periodic order is generally not
recoverable from any bounded rendering.  Block k precedes block k+1;
inside a block the classes are arranged by the permutation, reversed
when the flag is set.  For the signed families the data is stored on the
central-and-positive positions only; the negative side is forced by the
negation symmetry.

Conversions to and from biclosed triples realize the combinatorial order
models, including the type-D twist sets that no single total order can
describe; relabeling an order through a group element realizes the
W-action on biclosed sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    DRepresentationRequired,
    InvalidTwist,
    NotARoot,
    OutOfDomain,
    TypeMismatch,
)
from .fan import (
    BiclosedTriple,
    FanFace,
    build_biclosed,
    global_element,
    parahoric,
    _block_reps,
    _recover_w,
    _rho,
    _rho_inv,
)
from .perms import (
    AffinePermutation,
    from_window,
    identity,
    invert,
    max_displacement,
    multiply,
    reflection,
)
from .roots import AffineType, Root, canonical_root


@dataclass(frozen=True)
class BlockData:
    """Orientation and arrangement of one block's residue classes."""

    reversed: bool = False
    perm: AffinePermutation | None = None  # None means the identity


@dataclass(frozen=True)
class PeriodicOrder:
    """A translation-invariant total order of Z (minus MZ for B/C/D)."""

    face: FanFace
    block_data: tuple[BlockData | None, ...]

    def __post_init__(self):
        face = self.face
        if len(self.block_data) != len(face.blocks):
            raise ValueError("one data entry per block required")
        mid = len(face.blocks) // 2
        for k, data in enumerate(self.block_data):
            if face.type.family != "A" and k < mid:
                if data is not None:
                    raise ValueError("negative-side blocks carry no data")
                continue
            if data is None:
                raise ValueError(f"missing data for block {k}")
            want = _block_perm_type(face, k)
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


def _block_perm_type(face: FanFace, k: int) -> AffineType | None:
    """The permutation type attached to block k, or None if trivial."""
    typ = face.type
    blk = face.blocks[k]
    if typ.family == "A":
        return AffineType("A", len(blk)) if len(blk) >= 2 else None
    mid = len(face.blocks) // 2
    if k != mid:
        return AffineType("A", len(blk)) if len(blk) >= 2 else None
    c = (len(blk) - 1) // 2 if typ.family in ("B", "C") else len(blk) // 2
    return AffineType("C", c) if c >= 1 else None


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


def _block_position_fn(o: PeriodicOrder, k: int):
    """Position of a ground integer inside block k (larger = later)."""
    rho = functools.partial(_rho, _block_reps(o.face, k), o.type.modulus)
    data = o.data_at(k)
    if data.perm is None:
        pos = rho
    else:
        uinv = invert(data.perm)

        def pos(x: int) -> int:
            return uinv(rho(x))

    if data.reversed:
        return lambda x: -pos(x)
    return pos


def precedes(o: PeriodicOrder, a: int, b: int) -> bool:
    """True when a comes strictly before b in the order."""
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
    mid = len(face.blocks) // 2
    if typ.family != "A" and ka < mid:
        return precedes(o, -b, -a)
    pos = _block_position_fn(o, ka)
    return pos(a) < pos(b)


def compare(o: PeriodicOrder, a: int, b: int) -> str:
    return "precedes" if precedes(o, a, b) else "succeeds"


def render(o: PeriodicOrder, lo: int, hi: int) -> list[int]:
    """The ground integers of [lo, hi] listed in order."""
    m = o.type.modulus
    pts = [
        x
        for x in range(lo, hi + 1)
        if o.type.family == "A" or x % m != 0
    ]
    return sorted(
        pts, key=functools.cmp_to_key(lambda x, y: -1 if precedes(o, x, y) else 1)
    )


# ---------------------------------------------------------------------------
# inversion sets and the triple correspondence


def inversion_set(o: PeriodicOrder) -> BiclosedTriple:
    """The biclosed triple of {roots (i, j) : i > j in the order}."""
    face = o.face
    typ = face.type
    decomp = parahoric(face)
    mid = len(face.blocks) // 2
    phi = set()
    wmap = {}
    for k in range(len(face.blocks)):
        if typ.family != "A" and k < mid:
            continue
        data = o.data_at(k)
        blk = face.blocks[k]
        central = typ.family != "A" and k == mid
        if not central:
            if len(blk) < 2:
                continue
            cid = f"blk{k}"
            if data.reversed:
                phi.add(cid)
            if data.perm is not None:
                wmap[cid] = data.perm
            continue
        ctr_ids = [
            c.id for c in decomp.components if c.kind in ("central", "splitA1")
        ]
        if not ctr_ids:
            continue
        if data.reversed:
            phi.update(ctr_ids)
        x = _central_inversion_roots(o, k)
        wmap.update(_recover_w(decomp, x))
    return build_biclosed(face, frozenset(phi), wmap)


def _central_inversion_roots(o: PeriodicOrder, k: int) -> set[Root]:
    """Family-admissible roots inverted by the forward central order."""
    face = o.face
    typ = face.type
    m = typ.modulus
    blk = face.blocks[k]
    data = o.data_at(k)
    reps = sorted(v % m for v in blk if v % m != 0)
    pos = _block_position_fn(
        o if not data.reversed
        else PeriodicOrder(
            face,
            o.block_data[:k]
            + (BlockData(False, data.perm),)
            + o.block_data[k + 1:],
        ),
        k,
    )
    disp = 0 if data.perm is None else max_displacement(data.perm)
    hmax = 2 * disp + 2
    out = set()
    for i in reps:
        for j in range(i + 1, i + (hmax + 1) * m):
            if j % m not in reps:
                continue
            try:
                r = canonical_root(typ, i, j)
            except NotARoot:
                continue
            if r.i != i or r.j != j:
                continue
            if pos(i) > pos(j):
                out.add(r)
    return out


def order_from_triple(t: BiclosedTriple) -> PeriodicOrder:
    """The canonical order model of a triple.

    Raises DRepresentationRequired when Phi' selects exactly one A~1
    factor of a split central D~2: those sets need a DTwist.
    """
    face = t.face
    typ = face.type
    decomp = parahoric(face)
    mid = len(face.blocks) // 2
    data: list[BlockData | None] = []
    for k in range(len(face.blocks)):
        if typ.family != "A" and k < mid:
            data.append(None)
            continue
        blk = face.blocks[k]
        central = typ.family != "A" and k == mid
        if not central:
            if len(blk) < 2:
                data.append(BlockData())
                continue
            cid = f"blk{k}"
            u = t.component_w(cid)
            data.append(
                BlockData(cid in t.phi_prime, None if u.is_identity() else u)
            )
            continue
        ctr_ids = [
            c.id for c in decomp.components if c.kind in ("central", "splitA1")
        ]
        if not ctr_ids:
            data.append(BlockData())
            continue
        selected = t.phi_prime & set(ctr_ids)
        if len(ctr_ids) == 2 and len(selected) == 1:
            raise DRepresentationRequired(
                "Phi' uses one A~1 of a split central D~2; use a DTwist"
            )
        wmap = {cid: t.component_w(cid) for cid in ctr_ids}
        u = _central_order_perm(face, wmap)
        data.append(
            BlockData(bool(selected), None if u.is_identity() else u)
        )
    return PeriodicOrder(face, tuple(data))


def _central_order_perm(face: FanFace, wmap) -> AffinePermutation:
    """Realize central component elements as one C-type block permutation."""
    m = face.type.modulus
    mid = len(face.blocks) // 2
    reps = _block_reps(face, mid)
    c = len(reps) // 2
    if [parahoric(face).by_id(cid).kind for cid in wmap] == ["central"]:
        # the component is relabeled over the same reps, so its element
        # already is the block permutation
        (u,) = wmap.values()
        return from_window(AffineType("C", c), u.window)
    g = global_element(face, wmap)
    window = tuple(_rho(reps, m, g(_rho_inv(reps, m, k))) for k in range(1, c + 1))
    return from_window(AffineType("C", c), window)


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
        ptype = _block_perm_type(face, k)
        if ptype is None or (typ.family == "D" and len(blk) == 2):
            out.append(BlockData())
            continue
        if typ.family == "C":
            out.append(data)
            continue
        u = data.perm if data.perm is not None else identity(ptype)
        c = ptype.n
        moves = [reflection(ptype, c, c + 1)]
        if typ.family == "D":
            moves.append(reflection(ptype, -1, 1))
        variants = {u}
        frontier = [u]
        while frontier:
            cur = frontier.pop()
            for t_ in moves:
                nxt = multiply(cur, t_)
                if nxt not in variants:
                    variants.add(nxt)
                    frontier.append(nxt)
        best = min(variants, key=lambda v: v.window)
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
    face, m = o.face, o.type.modulus
    new = FanFace(o.type, tuple(frozenset(face.residue(v(a)) for a in blk)
                                for blk in face.blocks))
    data = list(o.block_data)
    for k, d in enumerate(data):
        ptype = _block_perm_type(face, k)
        if d is None or ptype is None:
            continue
        old_reps, new_reps = _block_reps(face, k), _block_reps(new, k)
        u = d.perm or identity(ptype)
        size = len(u.window)

        def image(x):
            return _rho(new_reps, m, v(_rho_inv(old_reps, m, u(x))))

        win = [image(x) for x in range(1, size + 1)]
        if ptype.family == "A":
            shift = (size * (size + 1) // 2 - sum(win)) // size
            win = [image(x + shift) for x in range(1, size + 1)]
        u = from_window(ptype, win)
        data[k] = BlockData(d.reversed, None if u.is_identity() else u)
    return PeriodicOrder(new, tuple(data))


# ---------------------------------------------------------------------------
# type-D twists


@dataclass(frozen=True)
class DTwist:
    """A base order whose central block is {+-i, +-j}, plus the choice of
    one of its two A~1 root classes to toggle."""

    base: PeriodicOrder
    pair: tuple[int, int]  # (i, j) with 1 <= i < j <= n: the +-{i,j} class


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
    cid = f"ctrA1:{i},{j}"
    phi = t.phi_prime ^ {cid}
    return build_biclosed(face, phi, t.w_map())
