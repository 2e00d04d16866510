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
``lattice._relation`` writes its cells from the same table; ``relabel``
and the central block conversions map integers through the same rho.

Conversions to and from biclosed triples realize the combinatorial order
models, including the type-D twist sets that no single total order can
describe; relabeling an order through a group element realizes the
W-action on biclosed sets.
"""

from __future__ import annotations

from .errors import (
    DRepresentationRequired,
    InvalidTwist,
    NotARoot,
    OutOfDomain,
    TooLarge,
    TypeMismatch,
)
from .fan import (
    BiclosedTriple,
    FanFace,
    build_biclosed,
    global_element,
    parahoric,
    _recover_w,
    _rho,
    _rho_inv,
)
from .perms import (
    AffinePermutation,
    from_window,
    identity,
    invert,
    inversions,
    multiply,
    reflection,
)
from .roots import AffineType, Root, _Record, canonical_root


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
    """block[a] and pos[a] for each residue a in 0..M-1, and per block
    its sorted residues and step: a + qM sits at pos[a] + q * step.

    The blocks and their residues are the face's relabeling table
    (``FanFace.relabeling``, where a signed centre also holds residue 0).
    Residue a sits at its index i there, mapped by the inverse block
    permutation and negated in a reversed block; step is +-len(reps),
    negative when reversed.  A signed family's block below the centre
    mirrors its negation, pos_k(a) = -pos_{2 mid - k}(-a), where -a has
    the index ~i over the mirror's residues.
    """
    face = o.face
    block, _, reps = face.relabeling
    signed, top = o.type.family != "A", len(face.blocks) - 1
    pos, steps = [0] * o.type.modulus, []
    for k, rs in enumerate(reps):
        j = top - k if signed and 2 * k < top else k
        data = o.data_at(j)
        uinv, sign = data.perm and invert(data.perm), -1 if data.reversed != (j != k) else 1
        for i, a in enumerate(rs):
            i = i if j == k else ~i
            pos[a] = sign * (uinv(i) if uinv else i)
        steps.append((rs, -len(rs) if data.reversed else len(rs)))
    return block, pos, steps


def _order_key(o: PeriodicOrder):
    """x -> (block, position) of x; the order compares these keys."""
    block, pos, steps = _positions(o)
    m = o.type.modulus

    def key(x: int) -> tuple[int, int]:
        q, a = divmod(x, m)
        return block[a], pos[a] + q * steps[block[a]][1]

    return key


def precedes(o: PeriodicOrder, a: int, b: int) -> bool:
    """True when a comes strictly before b in the order."""
    typ = o.type
    m = typ.modulus
    if typ.family != "A" and (a % m == 0 or b % m == 0):
        raise OutOfDomain("multiples of the modulus are outside the order")
    if a == b:
        raise OutOfDomain("comparing an integer with itself")
    key = _order_key(o)
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
    return sorted(pts, key=_order_key(o))


# ---------------------------------------------------------------------------
# inversion sets and the triple correspondence


def inversion_set(o: PeriodicOrder) -> BiclosedTriple:
    """The biclosed triple of {roots (i, j) : i > j in the order}.

    A block's permutation is its component's element.  That holds for a
    family-C centre too, a lone component relabeled by the same rho (see
    _central_order_perm); a B or D centre's element is peeled from the
    roots that its block permutation inverts.
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
        if k == mid and face.type.family in ("B", "D"):
            wmap.update(_recover_w(decomp, _central_inversion_roots(o, k)))
        elif data.perm is not None:
            wmap[comps[0].id] = data.perm
    return build_biclosed(face, frozenset(phi), wmap)


def _central_inversion_roots(o: PeriodicOrder, k: int) -> set[Root]:
    """Family-admissible roots inverted by the forward central order.

    They are the images under rho^-1 of the local inversions of the
    C-type block permutation (rho commutes with negation and with +M);
    family D drops i = -j and family B its odd long pairs."""
    u = o.data_at(k).perm
    if u is None:
        return set()
    face = o.face
    out = set()
    for p in inversions(u):
        try:
            out.add(canonical_root(face.type, _rho_inv(face, k, p.i),
                                   _rho_inv(face, k, p.j)))
        except NotARoot:
            continue
    return out


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
            u = _central_order_perm(face, {c.id: t.component_w(c.id) for c in comps})
        else:
            u = t.component_w(comps[0].id)
        data.append(
            BlockData(bool(selected), None if u is None or u.is_identity() else u)
        )
    return PeriodicOrder(face, tuple(data))


def _central_order_perm(face: FanFace, wmap) -> AffinePermutation:
    """Realize central component elements as one C-type block permutation."""
    mid = len(face.blocks) // 2
    c = len(face.relabeling.reps[mid]) // 2
    if len(parahoric(face).by_block[mid]) == 1:
        # the lone central component is relabeled by the same rho, so its
        # element already is the block permutation
        (u,) = wmap.values()
        return from_window(AffineType("C", c), u.window)
    g = global_element(face, wmap)
    window = tuple(_rho(face, g(_rho_inv(face, mid, k))) for k in range(1, c + 1))
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
        ptype = face.block_types[k]
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
        # the moves are commuting involutions (a D centre with a
        # permutation has c >= 2), so the orbit is u times their products
        variants = {u}
        for t_ in moves:
            variants |= {multiply(x, t_) for x in variants}
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
