"""Reference implementations that more than one test module compares
against, and readers of IntSet and ThresholdRelation that only tests use.
Not a test module: pytest collects only test_*.py."""

from afweak.lattice import _eps


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
    v, w = r.V[a][b], r.V[b][a]
    if v.is_finite():
        empty = v.is_empty() and w.complement_in(_eps(b, a)).is_empty()
        return "Empty" if empty else "AtMost"
    full = cofinal_from(v) == _eps(a, b) and w.is_empty()
    return "All" if full else "AtLeast"
