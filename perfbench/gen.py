"""Seeded input generator shared by every workload.

Triples are assembled through ``fan.build_biclosed`` from a random fan
face (a random ordered set partition, signed for B/C/D), a random
selection of parahoric components and one random word per component.
Faces are drawn directly, so no rank limit of ``enumerate_faces``
applies.  The same ``random.Random`` state gives the same inputs.
"""

from __future__ import annotations

from afweak import fan, perms
from afweak.roots import AffineType

WORD_LEN = 2  # simple reflections per component word
PHI_PROB = 0.4  # chance that a component is in Phi'


def ordered_set_partition(items, rng):
    """A random ordered set partition of items, every block nonempty."""
    items = list(items)
    k = rng.randint(1, len(items))
    blocks = [[] for _ in range(k)]
    for x in items:
        blocks[rng.randrange(k)].append(x)
    return [frozenset(b) for b in blocks if b]


def random_face(typ: AffineType, rng) -> fan.FanFace:
    """A random face of the finite Coxeter fan of typ."""
    if typ.family == "A":
        return fan.FanFace(typ, tuple(ordered_set_partition(range(typ.modulus), rng)))
    while True:
        central = [v for v in range(1, typ.n + 1) if rng.random() < 0.3]
        rest = [v if rng.random() < 0.5 else -v
                for v in range(1, typ.n + 1) if v not in central]
        parts = ordered_set_partition(rest, rng) if rest else []
        mid = {v for c in central for v in (c, -c)}
        if typ.family != "D":
            mid.add(0)
        neg = [frozenset(-v for v in b) for b in reversed(parts)]
        try:
            return fan.FanFace(typ, tuple(neg + [frozenset(mid)] + parts))
        except ValueError:
            continue  # an empty type-D centre next to a singleton: redraw


def random_word(typ: AffineType, length: int, rng) -> perms.AffinePermutation:
    """The product of `length` uniformly drawn simple reflections."""
    gens = perms.simple_reflections(typ)
    return perms.word(typ, [rng.randrange(len(gens)) for _ in range(length)])


def random_triple(typ: AffineType, rng) -> fan.BiclosedTriple:
    """A random biclosed triple (F, Phi', w) of typ."""
    face = random_face(typ, rng)
    decomp = fan.parahoric(face)
    phi = frozenset(i for i in decomp.ids() if rng.random() < PHI_PROB)
    wmap = {c.id: random_word(c.ctype, WORD_LEN, rng) for c in decomp.components}
    return fan.build_biclosed(face, phi, wmap)
