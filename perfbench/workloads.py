"""The four benchmark workloads: inputs, operation cycles and checks.

A workload is a closed loop with one client.  Set-up draws every input
from the seed and warms the caches; the timed loop then runs whole
cycles of operations, each cycle holding every operation kind in a fixed
proportion, until the requested seconds have passed.  Operations look up
afweak functions through their modules at call time, so a tracer
installed on the modules sees them.  Checks run after the loop against
the references in ``reference.py`` and never inside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import calibrate
import gen
import reference
from afweak import cli, closure, fan, lattice, orders, perms, roots
from afweak.errors import UnstableWindow

A = roots.AffineType


class Op:
    """One timed call: ``fn()`` runs it, ``check(result)`` returns a
    failure message or None.  ``allowed`` lists exception types that are
    documented outcomes, not failures."""

    __slots__ = ("kind", "fn", "check", "allowed")

    def __init__(self, kind, fn, check, allowed=()):
        self.kind, self.fn, self.check, self.allowed = kind, fn, check, allowed


def cpu_self() -> float:
    """CPU seconds (user + system) of this process since it started."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cpu_children() -> float:
    """CPU seconds of all finished child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    name = ""
    seconds_per_cycle = 1.0  # a fast-side estimate, sizes the input pool
    clock = staticmethod(time.process_time)  # CPU time of the working process

    def __init__(self, seed: int, seconds: float, root: str):
        self.seed, self.seconds, self.root = seed, seconds, root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.planes = reference.PlaneCache()
        self.speed = calibrate.SpeedLog()  # host speed during the timed loop
        self.notes: dict = {}

    def pool_size(self) -> int:
        return int(self.seconds / self.seconds_per_cycle) + 2

    def setup(self) -> None:
        self.pool = [self.make_cycle(k) for k in range(self.pool_size())]
        self.warm()

    def make_cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warm(self) -> None:
        pass

    def cycles(self):
        k = 0
        while True:
            yield self.pool[k % len(self.pool)]
            k += 1

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# shared checks


def _upper_bound(xs, j, typ, h):
    for r in roots.root_window(typ, h):
        if not j.member(r) and any(x.member(r) for x in xs):
            return f"join misses {r} of an argument"
    return None


def _lower_bound(xs, m, typ, h):
    for r in roots.root_window(typ, h):
        if m.member(r) and not all(x.member(r) for x in xs):
            return f"meet has {r} outside an argument"
    return None


def _join_oracle(planes, xs, j, typ, h):
    """The join cut to height h equals the stable closure of the union."""
    cut = reference.stable_closure(
        planes, typ, h, reference.window_members(xs, typ, 2 * h, any))
    if cut is None:
        return None, False
    if j.window(h).members != cut:
        return "join differs from the windowed closure of the union", True
    return None, True


def _meet_oracle(planes, xs, m, typ, h):
    """The meet's complement cut to h equals the stable closure of the
    union of the complements."""
    cut = reference.stable_closure(
        planes, typ, h, reference.window_members(xs, typ, 2 * h,
                                                 lambda bs: not all(bs)))
    if cut is None:
        return None, False
    full = frozenset(roots.root_window(typ, h))
    if m.window(h).members != full - cut:
        return "meet differs from the windowed interior of the intersection", True
    return None, True


class _Lattice(Workload):
    """Shared join/meet checking: bounds on every distinct operation, the
    h/2h oracle on the first `oracle_per_kind` of each kind and type."""

    bound_h = 3
    oracle_h = 3
    oracle_per_kind = 8

    def join_check(self, xs, typ):
        def check(j):
            msg = _upper_bound(xs, j, typ, self.bound_h)
            return msg or self._oracle(_join_oracle, xs, j, typ, "join")
        return check

    def meet_check(self, xs, typ):
        def check(m):
            msg = _lower_bound(xs, m, typ, self.bound_h)
            return msg or self._oracle(_meet_oracle, xs, m, typ, "meet")
        return check

    def _oracle(self, oracle, xs, t, typ, kind):
        done = self.notes.setdefault("oracle_checked", {})
        label = f"{kind}/{typ.family}{typ.n}"
        if done.get(label, 0) >= self.oracle_per_kind:
            return None
        msg, conclusive = oracle(self.planes, xs, t, typ, self.oracle_h)
        if conclusive:
            done[label] = done.get(label, 0) + 1
        else:
            skipped = self.notes.setdefault("oracle_unstable", {})
            skipped[label] = skipped.get(label, 0) + 1
        return msg


# ---------------------------------------------------------------------------
# lattice-a


class LatticeA(_Lattice):
    """join_A / meet_A of 2 and 3 triples and sigma, at A4, A5 and A6."""

    name = "lattice-a"
    seconds_per_cycle = 0.1
    ranks = (4, 5, 6)

    def make_cycle(self, k):
        ops = []
        for n in self.ranks:
            typ = A("A", n)
            xs2 = [gen.random_triple(typ, self.rng) for _ in range(2)]
            xs3 = [gen.random_triple(typ, self.rng) for _ in range(3)]
            for xs in (xs2, xs3):
                ops.append(Op(f"join_A/{len(xs)}", lambda xs=xs: lattice.join_A(xs),
                              self.join_check(xs, typ)))
                ops.append(Op(f"meet_A/{len(xs)}", lambda xs=xs: lattice.meet_A(xs),
                              self.meet_check(xs, typ)))
            x = xs2[0]
            ops.append(Op("sigma", lambda x=x: lattice.sigma(x),
                          self.sigma_check(x, typ)))
        return ops

    def sigma_check(self, x, typ):
        def check(s):
            for r in roots.root_window(typ, self.bound_h):
                if s.member(r) != x.member(roots.canonical_root(typ, -r.j, -r.i)):
                    return f"sigma disagrees with root negation at {r}"
            return None
        return check

    def warm(self):
        warm_rng = random.Random("warm")
        for n in self.ranks:
            typ = A("A", n)
            for _ in range(4):
                xs = [gen.random_triple(typ, warm_rng) for _ in range(3)]
                lattice.join_A(xs)
                lattice.meet_A(xs)
                lattice.sigma(xs[0])


# ---------------------------------------------------------------------------
# lattice-c


class LatticeC(_Lattice):
    """join_C / meet_C of pairs: four pairs at C2 and one at C3 per cycle."""

    name = "lattice-c"
    seconds_per_cycle = 0.8
    mix = ((2, 4), (3, 1))  # (n, pairs per cycle)
    oracle_per_kind = 6

    def make_cycle(self, k):
        ops = []
        for n, pairs in self.mix:
            typ = A("C", n)
            for _ in range(pairs):
                xs = [gen.random_triple(typ, self.rng) for _ in range(2)]
                ops.append(Op(f"join_C/C{n}", lambda xs=xs: lattice.join_C(xs),
                              self.join_check(xs, typ)))
                ops.append(Op(f"meet_C/C{n}", lambda xs=xs: lattice.meet_C(xs),
                              self.meet_check(xs, typ)))
        return ops

    def warm(self):
        warm_rng = random.Random("warm")
        for n, _ in self.mix:
            typ = A("C", n)
            for _ in range(2):
                xs = [gen.random_triple(typ, warm_rng) for _ in range(2)]
                lattice.join_C(xs)
                lattice.meet_C(xs)


# ---------------------------------------------------------------------------
# window-oracle


class WindowOracle(Workload):
    """Windowed oracles over A5, B3, C3 and D4 at heights 5 and 6."""

    name = "window-oracle"
    seconds_per_cycle = 3.0
    types = ((A("A", 5), 5), (A("B", 3), 6), (A("C", 3), 5), (A("D", 4), 6))
    try_join_h = 3
    # type rounds per cycle; doubling_check, at 20-100 times the cost of
    # the other operations, runs once per type and cycle
    rounds_per_type = 5

    def make_cycle(self, k):
        ops, doubling = [], []
        for r in range(self.rounds_per_type):
            for typ, h in self.types:
                round_ops, wx = self.type_round(typ, h)
                ops += round_ops
                if r == 0:
                    doubling.append(Op(
                        f"doubling_check/{typ.family}{typ.n}",
                        lambda wx=wx: closure.doubling_check(wx),
                        lambda ok, wx=wx, typ=typ, h=h: None
                        if ok and self.planes(typ, h).is_biclosed(wx.members)
                        else "doubling criterion rejects a biclosed window"))
        return ops + doubling

    def type_round(self, typ, h):
        """One round of the cheap oracles on fresh inputs of one type."""
        x = gen.random_triple(typ, self.rng)
        y = gen.random_triple(typ, self.rng)
        v = gen.random_word(typ, 3, self.rng)
        wx, wy = x.window(h), y.window(h)
        union = closure.WindowSet(typ, h, wx.members | wy.members)
        label = f"/{typ.family}{typ.n}"
        ops = [
            Op("is_biclosed" + label, lambda: closure.is_biclosed(wx),
               lambda c: None if c.ok and self.planes(typ, h).is_biclosed(wx.members)
               else "window of a biclosed set not certified"),
            Op("close" + label, lambda: closure.close(union),
               lambda s: None if s.members == self.planes(typ, h).close(union.members)
               else "close differs from the reference closure"),
            Op("interior" + label, lambda: closure.interior(union),
               lambda s: None if s.members == self.planes(typ, h).interior(union.members)
               else "interior differs from the reference interior"),
            Op("classify" + label, lambda: fan.classify(wx),
               lambda t: None if t == x else "classify does not round-trip",
               (UnstableWindow,)),
            Op("act" + label, lambda: fan.act(v, x), self.act_check(v, x, typ, h)),
        ]
        if typ.family in "BD":
            ops.append(Op("try_join" + label,
                          lambda: lattice.try_join([x, y], self.try_join_h),
                          self.try_join_check([x, y], typ), (UnstableWindow,)))
        return ops, wx

    def act_check(self, v, x, typ, h):
        def check(t):
            vinv = perms.invert(v)
            for r in roots.root_window(typ, h):
                sign, img = perms.root_action(vinv, r)
                want = x.member(img) if sign == 1 else not x.member(img)
                if t.member(r) != want:
                    return f"act disagrees with v.B at {r}"
            return None
        return check

    def try_join_check(self, xs, typ):
        h = self.try_join_h

        def check(res):
            big = self.planes(typ, 2 * h).close(
                reference.window_members(xs, typ, 2 * h, any))
            if res.ok:
                t = res.triple
                msg = _upper_bound(xs, t, typ, 2 * h)
                if msg:
                    return msg
                cut = frozenset(r for r in big if r.height <= h)
                if t.window(h).members != cut:
                    return "try_join differs from the closure of the union"
                return None
            a, c, b = res.witness.witness
            if res.witness.violated != "coclosed" or not (
                    a not in big and b not in big and c in big
                    and self.planes(typ, 2 * h).strictly_between(a, c, b)):
                return "try_join witness does not show a non-biclosed closure"
            return None
        return check

    def warm(self):
        for typ, h in self.types:
            closure._window_planes(typ, h)
            if typ.family in "BD":
                closure._window_planes(typ, self.try_join_h)
        warm_rng = random.Random("warm")
        for typ, h in self.types:
            x = gen.random_triple(typ, warm_rng)
            try:
                fan.classify(x.window(h))
            except UnstableWindow:
                pass
            fan.act(gen.random_word(typ, 3, warm_rng), x)


# ---------------------------------------------------------------------------
# cli-cold


class CliCold(Workload):
    """Fresh `afweak` processes, one at a time, on generated JSON files."""

    name = "cli-cold"
    clock = staticmethod(cpu_children)
    CHILD_MARK_S = 0.05  # calibration period while a child runs
    CHILD_TIMEOUT_S = 120.0

    def __init__(self, seed, seconds, root, tmpdir, trace_dir=None):
        super().__init__(seed, seconds, root)
        self.tmpdir, self.trace_dir = tmpdir, trace_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        AFWEAK_SEED=str(seed))
        self.child_traces: list[str] = []

    def pool_size(self):
        return 1

    def _write(self, name, obj):
        path = os.path.join(self.tmpdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def make_cycle(self, k):
        rng = self.rng
        a5, c2, d3 = A("A", 5), A("C", 2), A("D", 3)
        t = gen.random_triple(a5, rng)
        win = self._write("window.json", cli.windowset_to_json(t.window(6)))
        ta = [self._write(f"a{i}.json", cli.triple_to_json(gen.random_triple(a5, rng)))
              for i in range(2)]
        tc = [self._write(f"c{i}.json", cli.triple_to_json(gen.random_triple(c2, rng)))
              for i in range(2)]
        td = [self._write(f"d{i}.json", cli.triple_to_json(gen.random_triple(d3, rng)))
              for i in range(2)]
        order = self._write("order.json", cli.order_to_json(
            orders.order_from_triple(gen.random_triple(a5, rng))))
        argvs = [
            ["check", "--in", win],
            ["classify", "--in", win],
            ["close", "--in", win],
            ["join", "--in", *ta],
            ["meet", "--in", *ta],
            ["join", "--in", *tc],
            ["meet", "--in", *tc],
            ["try-join", "--height", "3", "--in", *td],
            ["order", "--render", "--in", order],
            ["faces", "--family", "B", "--n", "3"],
            ["verify", "all"],
        ]
        return [Op(argv[0], lambda argv=argv: self.spawn(argv),
                   self.cli_check(argv)) for argv in argvs]

    def spawn(self, argv):
        """Run one CLI process to its end, timing the calibration kernel
        every CHILD_MARK_S meanwhile; returns (exit code, stdout, stderr)."""
        if self.trace_dir:
            out = os.path.join(self.trace_dir, f"cli-{len(self.child_traces)}.json")
            self.child_traces.append(out)
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"),
                   out, *argv]
        else:
            cmd = [sys.executable, "-m", "afweak.cli", *argv]
        out_path = os.path.join(self.tmpdir, "stdout")
        err_path = os.path.join(self.tmpdir, "stderr")
        deadline = time.perf_counter() + self.CHILD_TIMEOUT_S
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdout=out, stderr=err)
            while True:  # reaping by wait4 puts its CPU time in RUSAGE_CHILDREN
                pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, _ = os.wait4(proc.pid, 0)
                    break
                self.speed.mark()
                time.sleep(self.CHILD_MARK_S)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh_out, open(err_path, "rb") as fh_err:
            return code, fh_out.read(), fh_err.read()

    def cli_check(self, argv):
        def check(res):
            code, out, err = res
            if code != 0:
                return f"exit {code}: {err.decode(errors='replace')[-300:]}"
            if out != self.in_process(argv):
                return "stdout differs from the in-process answer"
            return None
        return check

    def in_process(self, argv) -> bytes:
        buf = io.StringIO()
        old = os.environ.get("AFWEAK_SEED")
        os.environ["AFWEAK_SEED"] = str(self.seed)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        finally:
            if old is None:
                del os.environ["AFWEAK_SEED"]
            else:
                os.environ["AFWEAK_SEED"] = old
        return buf.getvalue().encode() if code == 0 else b"<exit %d>" % code

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (LatticeA, LatticeC, WindowOracle, CliCold)}
