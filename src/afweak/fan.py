"""Coxeter-fan faces, parahoric decompositions, and biclosed triples.

A face of the finite Coxeter fan is an ordered set partition (plain for
family A, signed for B/C, type-D signed for D).  Its parahoric subgroup
decomposes into affine components; a biclosed set is described exactly by
a face F, a union of components Phi' and one component element each.  The
set is the inversion set of the triple's periodic order, a D-twist's one
A~1 class toggled on top, so membership and windows are read off that
order's position table (``orders._SetTable``), built once per triple.

The face functional is never realized in coordinates: its sign on
e~_j - e~_i is the difference of the block indices of the residues.
Read back from comparisons, a face is found by counting: an element's
level is the number of elements it is directly after, and the blocks
are the levels; in family D, which never compares v with -v, the middle
singletons {-v} < {v} share a level and so form the central block {+-v}.

``parahoric`` alone names the components and maps blocks to them; every
other reader, here and in ``orders`` and ``lattice``, asks its
decomposition for the component over a block, a residue pair or a root.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (
    ComponentMismatch,
    InvalidWindow,
    NotBiclosed,
    ParityViolation,
    TooLarge,
    TypeMismatch,
    UnpairedPhiPrime,
    UnstableWindow,
)
from .perms import (
    AffinePermutation,
    identity,
    inversions,
    invert,
    root_action,
    _simple_pairs,
    elements_up_to_length,
    from_window,
)
from .roots import (
    AffineType,
    Root,
    _Record,
    all_class_keys,
    canonical_root,
    finite_roots,
    guard_window,
    negate_class,
    pair_class_keys,
    positive_class_pairs,
    primitive_direction,
    root_window,
    signed_residue,
    vector_to_root,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # the closure layer loads where a window is built or read
    from . import closure as _closure


# ---------------------------------------------------------------------------
# faces


class Relabeling(NamedTuple):
    """A face's block relabeling (``FanFace.relabeling``)."""

    block: tuple[int, ...]  # residue a in 0..M-1 -> its block position
    index: tuple[int, ...]  # residue a -> its index in reps[block[a]]
    reps: tuple[tuple[int, ...], ...]  # block -> its sorted residues


class FanFace(_Record):
    """An ordered set partition naming a face of the finite Coxeter fan.

    Family A partitions the residues {0, ..., M-1}; the signed families
    partition {0, +-1, ..., +-n} (B/C, central block holds 0) resp.
    {+-1, ..., +-n} (D, central block self-negated and possibly empty).
    Blocks are listed in increasing order of the face functional.
    """

    _fields = ("type", "blocks")

    def __init__(self, type: AffineType, blocks: tuple[frozenset[int], ...]):
        self.__dict__.update(type=type, blocks=blocks)
        if type.family == "A":
            ground = set(range(type.modulus))
            if any(not b for b in blocks):
                raise ValueError("empty block")
        else:
            ground = set(range(-type.n, type.n + 1))
            if type.family == "D":
                ground.discard(0)
            if len(blocks) % 2 == 0:
                raise ValueError("signed faces need an odd block sequence")
            mid = len(blocks) // 2
            for k, b in enumerate(blocks):
                if frozenset(-v for v in b) != blocks[len(blocks) - 1 - k]:
                    raise ValueError("blocks are not negation-symmetric")
                if not b and k != mid:
                    raise ValueError("empty non-central block")
            if type.family in ("B", "C") and 0 not in blocks[mid]:
                raise ValueError("central block must contain 0")
            if type.family == "D" and not blocks[mid]:
                if len(blocks) < 3 or len(blocks[mid + 1]) < 2:
                    raise ValueError(
                        "an empty central block needs an adjacent block of size >= 2"
                    )
        seen: set[int] = set()
        for b in blocks:
            if b & seen:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != ground:
            raise ValueError("blocks do not partition the ground set")

    def residue(self, x: int) -> int:
        if self.type.family == "A":
            return x % self.type.modulus
        return signed_residue(self.type, x)

    @cached_property
    def block_of(self) -> dict[int, int]:
        """The block position of each residue, computed on first use and
        kept on the face (``==`` and ``hash`` read only the fields)."""
        return {v: k for k, b in enumerate(self.blocks) for v in b}

    @cached_property
    def relabeling(self) -> Relabeling:
        """The block relabeling table, computed on first use and kept on
        the face: each block's sorted residues mod M, and each residue's
        block and index there.  A signed family's central block also
        holds the multiples of M (residue 0), in family D too, where 0 is
        not listed in the block.  ``_rho``, ``_rho_inv`` and
        ``orders._positions`` read it."""
        m, signed = self.type.modulus, self.type.family != "A"
        reps, block, index = [], [0] * m, [0] * m
        for k, b in enumerate(self.blocks):
            rs = {v % m for v in b}
            if signed and 2 * k + 1 == len(self.blocks):
                rs.add(0)
            reps.append(tuple(sorted(rs)))
            for i, a in enumerate(reps[-1]):
                block[a], index[a] = k, i
        return Relabeling(tuple(block), tuple(index), tuple(reps))

    @cached_property
    def block_types(self) -> tuple[AffineType | None, ...]:
        """The type of the permutation a periodic order attaches to each
        block, or None where it attaches none, computed on first use and
        kept on the face: A with the block's size for a block of two or
        more residues off a signed centre, C with its number of +-pairs
        for a signed centre that has one.  ``orders`` reads it."""
        blocks, family = self.blocks, self.type.family
        mid = len(blocks) // 2 if family != "A" else None
        out = []
        for k, b in enumerate(blocks):
            if k != mid:
                out.append(AffineType("A", len(b)) if len(b) >= 2 else None)
            else:
                c = (len(b) - 1) // 2 if family in ("B", "C") else len(b) // 2
                out.append(AffineType("C", c) if c >= 1 else None)
        return tuple(out)

    def one_indexed_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks with family-A residue 0 printed as M (one-indexed labels)."""
        if self.type.family != "A":
            return tuple(tuple(sorted(b)) for b in self.blocks)
        m = self.type.modulus
        return tuple(tuple(sorted(v if v else m for v in b)) for b in self.blocks)

    def __repr__(self):
        inner = ["{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks]
        return f"FanFace({self.type.family}{self.type.n}:({','.join(inner)}))"


def face_from_blocks(typ: AffineType, blocks) -> FanFace:
    return FanFace(typ, tuple(frozenset(b) for b in blocks))


def origin_face(typ: AffineType) -> FanFace:
    if typ.family == "A":
        return FanFace(typ, (frozenset(range(typ.modulus)),))
    ground = set(range(-typ.n, typ.n + 1))
    if typ.family == "D":
        ground.discard(0)
    return FanFace(typ, (frozenset(ground),))


def dominant_chamber(typ: AffineType) -> FanFace:
    if typ.family == "A":
        m = typ.modulus
        order = list(range(1, m)) + [0]
        return FanFace(typ, tuple(frozenset({v}) for v in order))
    n = typ.n
    if typ.family in ("B", "C"):
        order = [{v} for v in range(-n, n + 1)]
    else:
        order = [{v} for v in range(-n, -1)] + [{-1, 1}] + [{v} for v in range(2, n + 1)]
    return FanFace(typ, tuple(frozenset(b) for b in order))


def _ordered_set_partitions(items: tuple):
    """All ordered set partitions of items (classic block-count recursion)."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for tail in _ordered_set_partitions(rest):
        for k, b in enumerate(tail):
            yield tail[:k] + (b | {first},) + tail[k + 1:]
        for k in range(len(tail) + 1):
            yield tail[:k] + (frozenset({first}),) + tail[k:]


@lru_cache(maxsize=None)
def enumerate_faces(typ: AffineType) -> tuple[FanFace, ...]:
    """All faces of the finite Coxeter fan, each exactly once; cached per
    type (TooLarge is raised on every call above n = 6)."""
    if typ.n > 6:
        raise TooLarge("face enumeration is guarded at n <= 6")
    out = []
    if typ.family == "A":
        for blocks in _ordered_set_partitions(tuple(range(typ.modulus))):
            out.append(FanFace(typ, blocks))
        out.sort(key=lambda f: f.one_indexed_blocks())
        return tuple(out)
    n = typ.n
    values = tuple(range(1, n + 1))
    for central_size in range(n + 1):
        for central in itertools.combinations(values, central_size):
            rest = [v for v in values if v not in central]
            for signs in itertools.product((1, -1), repeat=len(rest)):
                signed = tuple(s * v for s, v in zip(signs, rest))
                for parts in _ordered_set_partitions(signed):
                    if typ.family == "D":
                        mid = frozenset(v for c in central for v in (c, -c))
                        if not mid and (not parts or len(parts[0]) < 2):
                            continue
                    else:
                        mid = frozenset(
                            {0} | {v for c in central for v in (c, -c)}
                        )
                    neg = tuple(
                        frozenset(-v for v in b) for b in reversed(parts)
                    )
                    out.append(FanFace(typ, neg + (mid,) + parts))
    out.sort(key=lambda f: tuple(sorted(map(sorted, f.blocks))) + (len(f.blocks),))
    return tuple(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# parahoric components


class Component(_Record):
    """One indecomposable factor of a parahoric subgroup.

    ``kind`` names the factor:  "ablock" components are the A-family
    factors over the integers whose residue lies in one block; "central"
    components sit over the self-negated central block; a "splitA1" is one
    of the two A~1 factors of a split central D~2.  The first two are
    relabeled onto their own group by ``_rho`` over the face's
    relabeling table.  ``block`` is the position of the block the
    component sits over (the middle one for "central" and "splitA1").
    """

    _fields = ("id", "ctype", "kind", "block", "face", "gamma")

    def __init__(self, id: str, ctype: AffineType, kind: str, block: int,
                 face: FanFace, gamma: tuple[int, ...] = ()):
        # gamma: a splitA1's positive finite direction
        self.__dict__.update(id=id, ctype=ctype, kind=kind, block=block, face=face,
                             gamma=gamma)

    def to_global(self, r: Root) -> Root:
        if self.kind == "splitA1":
            if r.i % 2 == 1:
                k = (r.j - 2) // 2
                vec = self.gamma + (k,)
            else:
                k = (r.j - 1) // 2
                vec = negate_class(self.gamma) + (k + 1,)
            got = vector_to_root(self.face.type, vec)
            if got is None or got[0] != 1:
                raise ComponentMismatch(
                    f"{r} of component {self.id} maps to {vec}, "
                    "which is not a positive root"
                )
            return got[1]
        face, k = self.face, self.block
        return canonical_root(face.type, _rho_inv(face, k, r.i), _rho_inv(face, k, r.j))

    def to_local(self, r: Root) -> Root:
        """The root of the component's own group that ``to_global`` maps
        to r, a root of this component: a splitA1 root gamma + k delta is
        (1, 2k + 2) and -gamma + k delta is (0, 2k - 1); any other is
        relabeled by ``_rho``, a signed block's root over the mirror block
        through its negative (-j, -i)."""
        if self.kind == "splitA1":
            vec = r.vector()
            k = vec[-1]
            if vec[:-1] == self.gamma:
                return canonical_root(self.ctype, 1, 2 * k + 2)
            return canonical_root(self.ctype, 0, 2 * k - 1)
        face, i, j = self.face, r.i, r.j
        if face.block_of[face.residue(i)] != self.block:
            i, j = -j, -i
        return canonical_root(self.ctype, _rho(face, i), _rho(face, j))

    def global_simple_roots(self) -> tuple[Root, ...]:
        out = []
        for i, j in _simple_pairs(self.ctype):
            out.append(self.to_global(canonical_root(self.ctype, i, j)))
        return tuple(out)


class ParahoricDecomposition(_Record):
    """The components of Phi_F.  Three maps, each built once on first
    use, answer every question about them: components by id, the
    components over each block position, and the split A~1 factors by
    Phi_0-class."""

    _fields = ("face", "components")

    def __init__(self, face: FanFace, components: tuple[Component, ...]):
        self.__dict__.update(face=face, components=components)

    @cached_property
    def _by_id(self) -> dict[str, Component]:
        return {c.id: c for c in self.components}

    @cached_property
    def by_block(self) -> tuple[tuple[Component, ...], ...]:
        """The components over each block position: none, one, or the
        two factors of a split central D~2; a signed block below the
        middle gets its mirror's."""
        top = len(self.face.blocks) - 1
        over = [[] for _ in range(top + 1)]
        for c in self.components:
            over[c.block].append(c)
            if c.kind == "ablock" and self.face.type.family != "A":
                over[top - c.block].append(c)
        return tuple(map(tuple, over))

    @cached_property
    def _split_by_class(self) -> dict[tuple[int, ...], Component]:
        out = {}
        for c in self.components:
            if c.kind == "splitA1":
                key = primitive_direction(c.gamma)
                out[key] = out[negate_class(key)] = c
        return out

    def by_id(self, cid: str) -> Component:
        comp = self._by_id.get(cid)
        if comp is None:
            raise ComponentMismatch(f"no component {cid!r}")
        return comp

    def ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def check_ids(self, ids, what: str) -> None:
        """ComponentMismatch unless every id names a component."""
        unknown = set(ids) - self._by_id.keys()
        if unknown:
            raise ComponentMismatch(
                f"{what} names unknown components {sorted(unknown)}")

    def component_of_pair(self, a: int, b: int) -> Component | None:
        """The component of the roots e~_j - e~_i whose residues (i, j)
        are (a, b), or None if a and b lie in different blocks."""
        block_of = self.face.block_of
        k = block_of[a]
        if block_of[b] != k:
            return None
        comps = self.by_block[k]
        if len(comps) == 2:
            return self._split_by_class[pair_class_keys(self.face.type)[(a, b)]]
        return comps[0]

    def component_of_root(self, r: Root) -> Component | None:
        """The component containing a root of Phi_F (sign zero), else None."""
        face = self.face
        return self.component_of_pair(face.residue(r.i), face.residue(r.j))


def _rho(face: FanFace, x: int) -> int:
    """The relabeling of x's block: the increasing bijection of its
    integers onto Z, where one period of M advances by the block's size."""
    block, index, reps = face.relabeling
    m = face.type.modulus
    a = x % m
    return index[a] + x // m * len(reps[block[a]])


def _rho_inv(face: FanFace, k: int, y: int) -> int:
    """The integer of block k that ``_rho`` maps to y."""
    reps = face.relabeling.reps[k]
    size = len(reps)
    return reps[y % size] + y // size * face.type.modulus


@lru_cache(maxsize=4096)
def parahoric(face: FanFace) -> ParahoricDecomposition:
    """Components of Phi_F with their types and relabeling maps.

    Trivial factors (A~ over singletons, the trivial central ranks) are
    omitted; a central D~2 splits into its two A~1 factors so that Phi'
    can select exactly one of them.
    """
    typ = face.type
    mid = len(face.blocks) // 2
    comps = [
        Component(
            id=f"blk{k}",
            ctype=AffineType("A", len(b)),
            kind="ablock",
            block=k,
            face=face,
        )
        for k, b in enumerate(face.blocks)
        if len(b) >= 2 and (typ.family == "A" or k > mid)
    ]
    if typ.family == "A":
        return ParahoricDecomposition(face, tuple(comps))
    central = face.blocks[mid]
    if typ.family in ("B", "C"):
        c = (len(central) - 1) // 2
    else:
        c = len(central) // 2
    if typ.family == "D" and c == 2:
        z1, z2 = sorted(v for v in central if 0 < v <= typ.n)
        fins = finite_roots(typ)
        # gamma: e_z2 - e_z1 and e_z2 + e_z1
        for tag, fin in ((f"{z1},{z2}", fins[(z1, z2)]),
                         (f"{z1},{-z2}", fins[(-z1, z2)])):
            comps.append(
                Component(
                    id=f"ctrA1:{tag}",
                    ctype=AffineType("A", 2),
                    kind="splitA1",
                    block=mid,
                    face=face,
                    gamma=fin,
                )
            )
    elif c >= (3 if typ.family == "D" else 1):
        comps.append(
            Component(
                id="ctr",
                ctype=AffineType(typ.family, c),
                kind="central",
                block=mid,
                face=face,
            )
        )
    return ParahoricDecomposition(face, tuple(comps))


def phi_prime_from_blocks(face: FanFace, positions) -> frozenset[str]:
    """Translate block positions into component ids, enforcing +- pairing."""
    decomp = parahoric(face)
    positions = set(positions)
    nblocks = len(face.blocks)
    mid = nblocks // 2
    ids, empty = set(), set()
    for k in positions:
        if face.type.family != "A" and k != mid and 2 * mid - k not in positions:
            raise UnpairedPhiPrime(
                f"block {k} selected without its negative {2 * mid - k}"
            )
        comps = decomp.by_block[k] if 0 <= k < nblocks else ()
        if not comps:
            empty.add(k)
        ids.update(c.id for c in comps)
    if empty:
        raise ComponentMismatch(f"blocks {sorted(empty)} hold no component")
    return frozenset(ids)


# ---------------------------------------------------------------------------
# biclosed triples


class BiclosedTriple(_Record):
    """The canonical description (F, Phi', w) of a biclosed set; ``member``
    and ``window`` read the set off ``order_table``, built on first use."""

    _fields = ("face", "phi_prime", "w")

    def __init__(self, face: FanFace, phi_prime: frozenset[str],
                 w: tuple[tuple[str, AffinePermutation], ...]):
        # w sorted by component id
        self.__dict__.update(face=face, phi_prime=phi_prime, w=w)

    @property
    def type(self) -> AffineType:
        return self.face.type

    @cached_property
    def order_table(self):
        from .orders import _SetTable

        return _SetTable(self)

    def w_map(self) -> dict[str, AffinePermutation]:
        return dict(self.w)

    def member(self, r: Root) -> bool:
        return membership(self, r)

    def window(self, h: int) -> _closure.WindowSet:
        from .closure import WindowSet

        guard_window(self.type, h)
        return WindowSet.from_mask(self.type, h, self.order_table.window_mask(h))

    def __repr__(self):
        ws = {k: list(v.window) for k, v in self.w}
        return (
            f"BiclosedTriple(face={self.face!r}, phi_prime={sorted(self.phi_prime)},"
            f" w={ws})"
        )


def build_biclosed(face: FanFace, phi_prime, w=None) -> BiclosedTriple:
    """Assemble and validate a triple; w maps component ids to elements.

    Missing components default to the identity; identity components are
    normalized away so triples compare canonically.  Equal triples are
    shared: a build equal to one seen before returns that first object
    (while the bounded cache holds it), and equal faces, Phi' sets and
    component tuples are shared between triples, which keeps many
    triples small.
    """
    decomp = parahoric(face)
    phi = _interned(frozenset(phi_prime))
    decomp.check_ids(phi, "phi_prime")
    w = dict(w or {})
    decomp.check_ids(w, "w")
    items = []
    for comp in decomp.components:
        u = w.get(comp.id)
        if u is None:
            continue
        if u.type != comp.ctype:
            raise ComponentMismatch(
                f"component {comp.id} expects type {comp.ctype}, got {u.type}"
            )
        if u == identity(comp.ctype):
            continue
        items.append((comp.id, u))
    items.sort(key=lambda kv: kv[0])
    # only splitA1 images can fail to be roots: check them when building
    for cid, u in items:
        comp = decomp.by_id(cid)
        if comp.kind == "splitA1":
            for loc in inversions(u):
                comp.to_global(loc)
    return _interned(BiclosedTriple(decomp.face, phi, _interned(tuple(items))))


@lru_cache(maxsize=4096)
def _interned(value):
    """The first-seen object equal to value, so equal parts are shared."""
    return value


def membership(t: BiclosedTriple, r: Root) -> bool:
    """Exact membership of a root (i, j) in the biclosed set of a triple:
    i comes after j in the triple's order, the two position keys of its
    ``order_table`` compared, and flipped on a D-twist's toggled class."""
    if r.type != t.type:
        raise TypeMismatch("root and triple types differ")
    return t.order_table.member(r)


def triple_of_element(w: AffinePermutation) -> BiclosedTriple:
    """The triple (origin, empty, w) of a finite inversion set N(w)."""
    face = origin_face(w.type)
    wmap = _recover_w(parahoric(face), set(inversions(w)))
    return build_biclosed(face, frozenset(), wmap)


def _recover_w(decomp: ParahoricDecomposition, x: set[Root]):
    """Split a finite Phi_F-inversion set into component elements, each
    read off its inversion counts in time linear in the set: a root is
    taken onto its component's group (``Component.to_local``), family-A
    components (blocks and split A~1 factors) read with
    ``_from_inversions`` and B/C/D centres with ``_from_signed_inversions``.
    Every element is certified by writing its inversions back, so a set
    that is no inversion set of W_F raises NotBiclosed.
    """
    local: dict[str, set[Root]] = {}
    for r in x:
        comp = decomp.component_of_root(r)
        if comp is None:
            raise NotBiclosed("the zero part is not a parahoric inversion set")
        local.setdefault(comp.id, set()).add(comp.to_local(r))
    out = {}
    for cid, inv in local.items():
        comp = decomp.by_id(cid)
        read = _from_inversions if comp.ctype.family == "A" else _from_signed_inversions
        try:
            u = read(comp.ctype, ((r.i, r.j, 1) for r in inv))
        except InvalidWindow:
            u = None
        if u is None or inversions(u) != inv:
            raise NotBiclosed("the zero part is not a parahoric inversion set")
        out[cid] = u
    return out


def _from_inversions(typ: AffineType, counts) -> AffinePermutation:
    """The family-A element u with, for each (p, q, n) of counts, n
    translation classes of inversions (p, q) (p and q taken mod M);
    InvalidWindow when no element has these counts.

    With v = u^{-1}, (p, q) is an inversion iff p < q and v(p) > v(q), and
    v(p) - p = #{inversions (p, q)} - #{inversions (q, p)}: v moves p past
    exactly the points it inverts with.  Sets other than N(u) can have
    the same counts, so a caller holding a set compares it with N(u).
    """
    m = typ.modulus
    shift = [0] * m
    for p, q, n in counts:
        shift[p % m] += n
        shift[q % m] -= n
    return invert(from_window(typ, [p + shift[p % m] for p in range(1, m + 1)]))


def _from_signed_inversions(typ: AffineType, counts) -> AffinePermutation:
    """The element u of the signed type typ (B, C or D of rank c, M =
    2c + 1) with, for each (p, q, n) of counts, n translation classes of
    inversions (p, q); InvalidWindow when no element has these counts.

    u is read through its sigma-fixed family-A embedding on M letters,
    as ``_from_inversions`` reads: v = u^{-1} moves a by the inversions
    through a, each root (p, q) standing for the pair and its negative
    (-q, -p).  The pairs that are not roots of typ are not in the counts:
    (a, kM), inverted iff v(a) > kM, and (a, -a + dM) for odd d in B and
    every d in D, inverted iff 2v(a) > dM.  Their share of v(a) - a is
    U(v(a)) - U(a), with U counting the thresholds kM and dM/2 below its
    argument, so v(a) solves level(x) = level(a) + shift[a] for level(x)
    = x - U(x).  Per period the level rises by M - 1, M - 2 or M - 3
    (C, B, D) and repeats one value in B (at the residues +-c) and two
    in D (at +-c and at +-1).  So v is found up to the exchanges
    t_{c,c+1} and t_{-1,1}, which toggle unseen pairs only, and
    ``_signed_variant`` picks the exchange that lies in typ.
    """
    m, c, family = typ.modulus, typ.n, typ.family
    shift = [0] * m
    for p, q, n in counts:
        shift[p % m] += n
        shift[q % m] -= n
        if (p + q) % m:
            shift[-q % m] += n
            shift[-p % m] -= n
    # level(s) for 0 <= s < M is s, less 1 above M/2 in B and D; a period
    # adds M less its thresholds: kM, and dM/2 for odd d (B) or any d (D)
    level = [s if family == "C" else s - (s > c) for s in range(m)]
    rise = m - {"C": 1, "B": 2, "D": 3}[family]
    window = []
    for a in range(1, c + 1):
        t = level[a] + shift[a]
        window.append(min(s + (t - level[s]) // rise * m
                          for s in range(1, m) if (t - level[s]) % rise == 0))
    return _signed_variant(typ, invert(from_window(AffineType("C", c), window)))


def _exchange_windows(family: str, u: AffinePermutation) -> list[tuple[int, ...]]:
    """The windows of u (type C~c) and of its products u t with the
    exchanges that family's roots do not see: t_{c,c+1} (B and D), which
    swaps u(c) for u(c + 1) = M - u(c), and t_{-1,1} (D), which swaps u(1)
    for u(-1) = -u(1).  The first toggles only pairs (a, -a + dM) of odd
    d, no roots in B or D, the second only those of even d, no roots in
    D, so all the windows share the family's inversions."""
    windows = [u.window]
    if family != "C":
        windows.append(u.window[:-1] + (u.type.modulus - u.window[-1],))
    if family == "D":
        windows += [(-w[0],) + w[1:] for w in windows]
    return windows


def _signed_variant(typ: AffineType, u: AffinePermutation) -> AffinePermutation:
    """The element of the signed type typ among u (type C~c) and its
    exchanges (``_exchange_windows``): the one with typ's parities, so
    the element of typ whose inversions are u's roots of typ; u itself
    in family C.  InvalidWindow when none has them."""
    if u.type == typ:
        return u
    for window in _exchange_windows(typ.family, u):
        try:
            return from_window(typ, window)
        except ParityViolation:
            continue
    raise InvalidWindow(f"no exchange of {list(u.window)} lies in {typ}")


# ---------------------------------------------------------------------------
# classification


def classify(s) -> BiclosedTriple:
    """A triple whose window at the input's height equals the input window.

    Accepts a WindowSet (stability-checked through b_infinity) or a
    PeriodicOrder (delegated to its exact inversion set).  For a window
    the answer is only checked to round-trip at the input's height; it is
    not shown to be unique.  Known defect: the asymptotic classes are read
    off the top half of the window, where a long component element can
    fill them below the triple's determining height, so another triple
    with the same window can come back.  The B2 triple with face
    ({-1},{-2,0,2},{1}), Phi' = {ctr} and w = {ctr: [-5]} classifies as a
    chamber triple from its windows at h = 1 to 4.
    """
    from . import closure as _closure

    if not isinstance(s, _closure.WindowSet):
        from .orders import PeriodicOrder, inversion_set

        if isinstance(s, PeriodicOrder):
            return inversion_set(s)
        raise TypeError("classify expects a WindowSet or PeriodicOrder")
    cert = _closure.is_biclosed(s)
    if not cert.ok:
        raise NotBiclosed(
            f"window trace violates the {cert.violated} condition", cert
        )
    bits, stable = _closure.b_infinity(s)
    if not stable:
        raise UnstableWindow("b_infinity unstable; enlarge the window")
    try:
        t = _classify_from_bits(s.type, dict.fromkeys(bits, True), s.mask, s.H)
    except NotBiclosed as e:
        # the window itself is biclosed, so inconsistent asymptotic data
        # comes from the cutoff
        raise UnstableWindow(
            f"asymptotic data inconsistent at this cutoff ({e}); enlarge the window"
        ) from e
    if t.order_table.window_mask(s.H) != s.mask:
        raise UnstableWindow("classification does not round-trip; enlarge the window")
    return t


def _classify_from_bits(typ, true_bits, mask, h) -> BiclosedTriple:
    """The triple with the given asymptotic class bits whose height-h
    window mask is mask: the bits give (F, Phi'), and the difference from
    the window of B(F, Phi') gives the component inversions, which lie on
    the zero part Phi_F, the window cells inside one block.  Unguarded."""
    from .closure import _bits

    bits = {k: k in true_bits and true_bits[k] for k in all_class_keys(typ)}
    base = build_biclosed(*_face_from_bits(typ, bits))
    face, phi, table = base.face, base.phi_prime, base.order_table
    diff = mask ^ table.window_mask(h)
    if diff & ~table.zero_mask(h):
        raise UnstableWindow(
            "membership mismatch off the zero part; enlarge the window"
        )
    roots = root_window(typ, h)
    wmap = _recover_w(parahoric(face), {roots[k] for k in _bits(diff)})
    return build_biclosed(face, phi, wmap)


def _ordered_blocks(ground, equal, after, error) -> list[frozenset[int]]:
    """The blocks of a total preorder given by pairwise comparisons.

    ``equal`` pairs share a block; an ``after`` pair (a, b) puts a's block
    above b's.  An element's level is the number of elements it is
    directly after, and the blocks are the levels, bottom to top.  When
    every pair is compared (families A, B, C) a level counts the elements
    strictly below, so it is constant on a block and grows from block to
    block.  Family D skips the pairs (v, -v): an element above the middle
    misses only its own negative, which keeps the level constant on its
    block, and two blocks tie only as the singletons {-v} < {v} at the
    middle, which share one level and form the central block {+-v}.  An
    ``equal`` pair on two levels, or an ``after`` pair not going up a
    level, raises ``error``.
    """
    level = dict.fromkeys(ground, 0)
    for a, _ in after:
        level[a] += 1
    if any(level[a] != level[b] for a, b in equal):
        raise error("strict comparison inside a block")
    if any(level[a] <= level[b] for a, b in after):
        raise error("block order is not total")
    blocks: dict[int, set[int]] = {}
    for v in ground:
        blocks.setdefault(level[v], set()).add(v)
    return [frozenset(blocks[k]) for k in sorted(blocks)]


def _face_from_bits(typ: AffineType, bits) -> tuple[FanFace, frozenset[str]]:
    """Rebuild (F, Phi') from the asymptotic class membership bits."""
    keyvec = pair_class_keys(typ)
    if typ.family == "A":
        ground = list(range(typ.modulus))
    else:
        ground = [v for v in range(-typ.n, typ.n + 1) if v != 0]
    equal, after = [], []  # functional equal; (a, b) meaning f_a > f_b
    for (a, b), key in keyvec.items():
        if a > b and (b, a) in keyvec:
            continue
        in_ab = bits[key]
        in_ba = bits[keyvec[(b, a)]]
        if in_ab == in_ba:
            equal.append((a, b))
        elif in_ab:
            after.append((a, b))
        else:
            after.append((b, a))
    blist = _ordered_blocks(ground, equal, after, NotBiclosed)
    if typ.family != "A":
        # signed families: locate or insert the central block
        self_neg = [b for b in blist if frozenset(-v for v in b) == b]
        if len(self_neg) > 1:
            raise NotBiclosed("several self-negated blocks")
        if self_neg:
            if typ.family in ("B", "C"):
                blist[blist.index(self_neg[0])] = self_neg[0] | {0}
        elif len(blist) % 2:
            raise NotBiclosed("odd block count without a self-negated block")
        else:
            blist.insert(len(blist) // 2,
                         frozenset() if typ.family == "D" else frozenset({0}))
    try:
        face = FanFace(typ, tuple(blist))
    except ValueError as e:
        raise NotBiclosed(f"asymptotic data gives no face: {e}") from e
    return face, _phi_from_bits(face, bits)


def _phi_from_bits(face: FanFace, bits) -> frozenset[str]:
    """Phi' components are those whose classes are asymptotically full;
    the classes of a component are those of its residue pairs."""
    decomp = parahoric(face)
    values: dict[str, set[bool]] = {c.id: set() for c in decomp.components}
    for pair, key in pair_class_keys(face.type).items():
        comp = decomp.component_of_pair(*pair)
        if comp is not None:
            values[comp.id].add(bits[key])
    phi = set()
    for cid, vals in values.items():
        if len(vals) != 1:
            raise NotBiclosed(f"component {cid} is asymptotically inconsistent")
        if vals == {True}:
            phi.add(cid)
    return frozenset(phi)


# ---------------------------------------------------------------------------
# the W-action


def act(v: AffinePermutation, t: BiclosedTriple) -> BiclosedTriple:
    """The biclosed-set action: the triple of the set v.B with
    D(v.B) = v D(B), computed exactly.

    In the order model the action relabels: v(a) precedes v(b) in the
    order of v.B iff a precedes b in that of B (``orders.relabel``).  A
    D-twist, whose Phi' selects one A~1 factor C of a split central D~2,
    has no order; it is B0 xor C for the untwisted B0, and
    v.(B0 xor C) = v.B0 xor v(C), where v(C) is the split factor of the
    new face that holds the image class.
    """
    if v.type != t.type:
        raise TypeMismatch("action type mismatch")
    from .orders import _twist_split, inversion_set, order_from_triple, relabel

    base, comp = _twist_split(t)
    out = inversion_set(relabel(order_from_triple(base), v))
    if comp is None:
        return out
    _, img = root_action(v, comp.global_simple_roots()[0])
    toggle = parahoric(out.face).component_of_root(img).id
    return build_biclosed(out.face, out.phi_prime ^ {toggle}, out.w_map())


# ---------------------------------------------------------------------------
# path components / poset fragments


class PosetFragment(_Record):
    """A finite chunk of the extended weak order with its cover relation."""

    _fields = ("labels", "covers", "node_sizes")

    def __init__(self, labels: tuple[str, ...], covers: tuple[tuple[int, int], ...],
                 node_sizes: tuple[int, ...]):
        # covers: (lower, upper) index pairs
        self.__dict__.update(labels=labels, covers=covers, node_sizes=node_sizes)


def path_component_poset(face: FanFace, phi_prime, bound: int,
                         node_guard: int = 20000) -> PosetFragment:
    """Biclosed sets commensurable with B(F, Phi') truncated to component
    lengths <= bound, with covers the single-root containments."""
    decomp = parahoric(face)
    phi = frozenset(phi_prime)
    decomp.check_ids(phi, "phi_prime")
    per_comp, total = [], 1
    for comp in decomp.components:
        # stop enumerating once the product of the sizes passes the guard
        elems = elements_up_to_length(comp.ctype, bound, node_guard // total)
        total *= len(elems)
        if total > node_guard:
            raise TooLarge(f"at least {total} nodes exceed the guard {node_guard}")
        per_comp.append((comp, sorted(elems.items(), key=lambda kv: (kv[1], kv[0].window))))
    nodes = []
    for combo in itertools.product(*(range(len(e)) for _, e in per_comp)):
        invs = []
        size = 0
        label_parts = []
        for (comp, elems), k in zip(per_comp, combo):
            u, lu = elems[k]
            inv = inversions(u)
            reversed_ = comp.id in phi
            size += -len(inv) if reversed_ else len(inv)
            invs.append((inv, reversed_))
            if lu:
                label_parts.append(f"{comp.id}:{list(u.window)}")
        nodes.append((size, tuple(invs), " ".join(label_parts) or "e"))
    nodes.sort(key=lambda n: (n[0], n[2]))
    by_size = {}
    for b, (sb, _, _) in enumerate(nodes):
        by_size.setdefault(sb, []).append(b)
    covers = []
    for a, (sa, ia, _) in enumerate(nodes):
        for b in by_size.get(sa + 1, ()):
            if all(
                (xa <= xb if not rev else xb <= xa)
                for (xa, rev), (xb, _) in zip(ia, nodes[b][1])
            ):
                covers.append((a, b))
    base_size = min((n[0] for n in nodes), default=0)
    return PosetFragment(
        labels=tuple(n[2] for n in nodes),
        covers=tuple(sorted(covers)),
        node_sizes=tuple(n[0] - base_size for n in nodes),
    )


def face_poset(typ: AffineType):
    """All faces with the closure partial order (via covector dominance)."""
    faces = enumerate_faces(typ)
    signs = []
    finite = positive_class_pairs(typ)
    for f in faces:
        bo = f.block_of
        row = []
        for a, b in finite:
            d = bo[b] - bo[a]
            row.append((d > 0) - (d < 0))
        signs.append(tuple(row))

    def leq(x, y):  # x is a face of y's closure
        return all(sx == 0 or sx == sy for sx, sy in zip(signs[x], signs[y]))

    return faces, leq
