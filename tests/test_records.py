"""The record contract shared by every afweak record class."""

import copy
import pickle

import pytest

from afweak.closure import FiniteBiclosedCertificate, WindowSet
from afweak.fan import (BiclosedTriple, Component, FanFace, ParahoricDecomposition,
                        PosetFragment)
from afweak.lattice import ThresholdRelation, TryJoinResult
from afweak.orders import BlockData, DTwist, PeriodicOrder
from afweak.perms import AffinePermutation
from afweak.roots import AffineType, RankTwoSubsystem, Root

A2, A3, D2 = AffineType("A", 2), AffineType("A", 3), AffineType("D", 2)
R01, R12, R03 = Root(A2, 0, 1), Root(A2, 1, 2), Root(A2, 0, 3)
FACE = FanFace(A3, (frozenset({1, 2}), frozenset({0})))
COMP = Component("a0", A2, "ablock", 0, FACE)
D2_ORDER = PeriodicOrder(FanFace(D2, (frozenset({1, -1, 2, -2}),)), (BlockData(),))
CERT = FiniteBiclosedCertificate(False, (R01, R03, R12), "closed")

# class, keyword arguments, defaults left out of them, fields in order,
# slotted, repr
RECORDS = [
    (AffineType, dict(family="C", n=2), {}, ("family", "n"), True,
     "AffineType('C', 2)"),
    (Root, dict(type=A2, i=0, j=1), {}, ("type", "i", "j"), True,
     "Root(A2:0,1)"),
    (RankTwoSubsystem, dict(kind="A2", type=A2, positive_roots=(R01, R03, R12)), {},
     ("kind", "type", "positive_roots"), False,
     "RankTwoSubsystem(kind='A2', type=AffineType('A', 2), "
     "positive_roots=(Root(A2:0,1), Root(A2:0,3), Root(A2:1,2)))"),
    (WindowSet, dict(type=A2, H=1, members=[R12]), {}, ("type", "H", "mask"), True,
     "WindowSet(type=AffineType('A', 2), H=1, members=frozenset({Root(A2:1,2)}))"),
    (FiniteBiclosedCertificate, dict(ok=True), dict(witness=None, violated=None),
     ("ok", "witness", "violated"), True,
     "FiniteBiclosedCertificate(ok=True, witness=None, violated=None)"),
    (AffinePermutation, dict(type=A2, window=(2, 1)), {}, ("type", "window"), True,
     "AffinePermutation(A2:[2,1])"),
    (FanFace, dict(type=A3, blocks=FACE.blocks), {}, ("type", "blocks"), False,
     "FanFace(A3:({1,2},{0}))"),
    (Component, dict(id="a0", ctype=A2, kind="ablock", block=0, face=FACE),
     dict(gamma=()), ("id", "ctype", "kind", "block", "face", "gamma"), False,
     "Component(id='a0', ctype=AffineType('A', 2), kind='ablock', block=0, "
     "face=FanFace(A3:({1,2},{0})), gamma=())"),
    (ParahoricDecomposition, dict(face=FACE, components=(COMP,)), {},
     ("face", "components"), False,
     "ParahoricDecomposition(face=FanFace(A3:({1,2},{0})), components=(Component("
     "id='a0', ctype=AffineType('A', 2), kind='ablock', block=0, "
     "face=FanFace(A3:({1,2},{0})), gamma=()),))"),
    (BiclosedTriple, dict(face=FACE, phi_prime=frozenset({"a0"}),
                          w=(("a0", AffinePermutation(A2, (2, 1))),)), {},
     ("face", "phi_prime", "w"), False,
     "BiclosedTriple(face=FanFace(A3:({1,2},{0})), phi_prime=['a0'], w={'a0': [2, 1]})"),
    (PosetFragment, dict(labels=("x", "y"), covers=((0, 1),), node_sizes=(1, 1)), {},
     ("labels", "covers", "node_sizes"), False,
     "PosetFragment(labels=('x', 'y'), covers=((0, 1),), node_sizes=(1, 1))"),
    (BlockData, dict(), dict(reversed=False, perm=None), ("reversed", "perm"), False,
     "BlockData(reversed=False, perm=None)"),
    (PeriodicOrder, dict(face=FACE, block_data=(BlockData(True), BlockData())), {},
     ("face", "block_data"), False,
     "PeriodicOrder(face=FanFace(A3:({1,2},{0})), data=(BlockData(reversed=True, "
     "perm=None), BlockData(reversed=False, perm=None)))"),
    (DTwist, dict(base=D2_ORDER, pair=(1, 2)), {}, ("base", "pair"), False,
     "DTwist(base=PeriodicOrder(face=FanFace(D2:({-2,-1,1,2})), "
     "data=(BlockData(reversed=False, perm=None),)), pair=(1, 2))"),
    (ThresholdRelation, dict(M=2, V=((None, (1, 3)), (None, None))), {}, ("M", "V"),
     False, "ThresholdRelation(M=2, V=((None, (1, 3)), (None, None)))"),
    (TryJoinResult, dict(ok=False, witness=CERT), dict(triple=None),
     ("ok", "triple", "witness"), True,
     f"TryJoinResult(ok=False, triple=None, witness={CERT!r})"),
]


@pytest.mark.parametrize("cls, kwargs, defaults, fields, slotted, text", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_the_record_contract(cls, kwargs, defaults, fields, slotted, text):
    a, b = cls(**kwargs), cls(**kwargs, **defaults)
    # keyword construction and defaults
    assert all(getattr(a, f) == v for f, v in defaults.items())
    assert all(getattr(a, f) is v for f, v in kwargs.items() if f in fields)
    # equality and hashing by field, in order
    values = tuple(getattr(a, f) for f in fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    for f in fields:
        other = copy.copy(a)
        object.__setattr__(other, f, object())
        assert other != a and a != other, f
    # another record class with the same field values is not equal
    twin = type("Twin", (cls,), {"__slots__": ()} if slotted else {})(**kwargs)
    assert twin != a and a != twin and a.__eq__(twin) is NotImplemented
    assert a.__eq__(values) is NotImplemented and a != values
    assert repr(a) == text
    # no assignment or deletion, of a field or of anything else
    for f in fields + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(a, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == values and a == b
    assert hasattr(a, "__dict__") is not slotted
    # copies and pickles keep every field
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and repr(c) == text and hash(c) == hash(a)
