"""The library API that the benchmark's input generator and tracer use.

perfbench/gen.py draws faces through FanFace (redrawing a type-D face
when FanFace raises ValueError), reads parahoric ids and components and
assembles triples with build_biclosed.  A break there stops every
benchmark run before any metric is read, so its triples are drawn here
and round-tripped through classify.  perfbench/tracing.py wraps the
layer functions by name, the cached ``closure._window_planes`` and
``roots.root_window`` among them, and reads their ``cache_info()``; a
renamed function or a lost cache breaks every traced run, so the tracer
is installed here around a join, a classification and a plane build.
Both files are executed from their source, so nothing is written under
perfbench/.
"""

import contextlib
import os
import pathlib
import random
import sys
import types

from afweak import closure, lattice
from afweak.errors import UnstableWindow
from afweak.fan import BiclosedTriple, classify
from afweak.intset import IntSet
from afweak.roots import AffineType
from afweak.verify import random_triple

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = int(os.environ.get("AFWEAK_SEED", "0"))


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_generator_triples_round_trip_through_classify():
    gen = _load("gen")
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


def _bindings():
    """Every name bound in an afweak module, and the traced methods."""
    out = {(name, k): v for name, mod in sys.modules.items()
           if name.split(".")[0] == "afweak" for k, v in vars(mod).items()}
    for cls in (IntSet, lattice.ThresholdRelation):
        out.update(((cls.__name__, k), v) for k, v in vars(cls).items())
    return out


def test_tracer_wraps_and_restores_the_layers():
    tracer = _load("tracing").Tracer()
    before = _bindings()
    rng = random.Random(SEED + 72)
    a3, c1 = AffineType("A", 3), AffineType("C", 1)
    tracer.install()
    try:
        lattice.join_A([random_triple(a3, rng, 2) for _ in range(2)])
        with contextlib.suppress(UnstableWindow):
            classify(random_triple(a3, rng, 2).window(2))
        # the first height not cached yet builds its planes
        h = 0
        while not tracer.stats()["cache"]["closure.window_planes"][1]:
            closure._window_planes(c1, h)
            h += 1
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    calls = dict(zip(stats["names"], stats["calls"]))
    for span in ("lattice.pi", "lattice.iota", "closure.window_planes"):
        assert calls.get(span, 0) >= 1, span
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
