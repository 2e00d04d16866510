"""The library API that the benchmark's input generator uses.

perfbench/gen.py draws faces through FanFace (redrawing a type-D face
when FanFace raises ValueError), reads parahoric ids and components and
assembles triples with build_biclosed.  A break there stops every
benchmark run before any metric is read, so its triples are drawn here
and round-tripped through classify.  The file is executed from its
source, so nothing is written under perfbench/.
"""

import os
import pathlib
import random
import types

from afweak.errors import UnstableWindow
from afweak.fan import BiclosedTriple, classify
from afweak.roots import AffineType

GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEED = int(os.environ.get("AFWEAK_SEED", "0"))


def _load_gen():
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(GEN)
    exec(compile(GEN.read_text(), str(GEN), "exec"), module.__dict__)
    return module


def test_generator_triples_round_trip_through_classify():
    gen = _load_gen()
    rng = random.Random(SEED + 71)
    classified = 0
    for typ in (AffineType("A", 3), AffineType("B", 2), AffineType("C", 2),
                AffineType("D", 3)):
        for _ in range(30):
            t = gen.random_triple(typ, rng)
            assert isinstance(t, BiclosedTriple) and t.type == typ
            try:
                got = classify(t.window(2))
            except UnstableWindow:
                continue
            assert got.window(2) == t.window(2), t
            # at this cutoff a family-B central element can read as another
            # face whose windows agree up to height 4, so B is held to the
            # window only
            assert got == t or typ.family == "B", t
            classified += 1
    assert classified >= 60
