"""In-memory span tracing of the afweak layers, installed from outside.

``Tracer.install`` replaces the public functions of each layer module
(and a few named methods and private helpers the per-layer metrics
need) by timing wrappers, in every afweak module namespace that binds
them, so calls between modules are seen too.  Each call records a span
(name, start, end, parent); up to ``max_spans`` spans are kept in
arrays and written out at the end, while per-name aggregates (calls,
outermost inclusive time, self time, parent edges, exceptions) are
updated for every call.  Self time is a span's duration minus the time
its child spans cover.  Nothing in ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

LAYERS = ("roots", "perms", "closure", "fan", "orders", "intset", "lattice")

# private helpers and methods that per-layer metrics need, per layer module
EXTRA = {
    "closure": ("_window_planes",),
    "fan": ("_classify_from_bits",),
}
METHODS = {
    "intset": {"IntSet": ("union", "intersection", "minkowski", "star",
                          "complement_in", "shift")},
    "lattice": {"ThresholdRelation": ("union", "complement")},
}


# too small and too frequent to time; their cost stays in the caller
SKIP = {"roots.signed_residue", "roots.negate_class"}


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.calls = array("q")
        self.incl = array("d")
        self.self_s = array("d")
        self.errors: dict[tuple[int, str], int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.intset_max = {"P": 0, "T": 0}  # largest period and threshold seen
        self.plane_tables: dict[tuple, int] = {}  # (type, h) -> planes built
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._depth = array("q")
        self.t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for arr in (self.calls, self._depth):
            arr.append(0)
        for arr in (self.incl, self.self_s):
            arr.append(0.0)
        return len(self.names) - 1

    def install(self) -> "Tracer":
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "afweak" or name.startswith("afweak.")]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"afweak.{layer}")
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_") and _is_function(obj)
                     and obj.__module__ == mod.__name__]
            names += EXTRA.get(layer, ())
            for n in sorted(names):
                fn = getattr(mod, n)
                span = f"{layer}.{n.lstrip('_')}"
                if span in SKIP:
                    continue
                self.originals[span] = fn
                replace[id(fn)] = self._wrap(span, fn, self._hook(span))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in meths:
                    fn = cls.__dict__[m]
                    span = f"{layer}.{m}"
                    self.originals[span] = fn
                    self._restore.append((cls, m, fn))
                    setattr(cls, m, self._wrap(span, fn, self._hook(span)))
        for mod in mods:
            for n, obj in list(vars(mod).items()):
                if id(obj) in replace and _is_function(obj):
                    self._restore.append((mod, n, obj))
                    setattr(mod, n, replace[id(obj)])
        self._cache0 = self.cache_info()
        return self

    def uninstall(self) -> None:
        for owner, n, obj in reversed(self._restore):
            setattr(owner, n, obj)
        self._restore.clear()

    def _hook(self, span: str):
        """A callback on (args, result) for spans whose results feed metrics."""
        if span.startswith("intset."):
            top = self.intset_max

            def observe(args, result):
                if result.__class__.__name__ == "IntSet":
                    top["P"] = max(top["P"], result.P)
                    top["T"] = max(top["T"], result.T)
            return observe
        if span == "closure.window_planes":
            def observe(args, result):
                self.plane_tables[args] = len(result)
            return observe
        return None

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self._depth
        edges, errors = self.edges, self.errors
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        cap = self.max_spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                pidx, pnid = parent[0], parent[2]
            else:
                pidx, pnid = -1, -1
            idx = len(s_name)
            if idx < cap:
                s_name.append(nid)
                s_parent.append(pidx)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            key = (pnid, nid)
            edges[key] = edges.get(key, 0) + 1
            depth[nid] += 1
            frame = [idx, 0.0, nid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            except BaseException as e:
                ek = (nid, type(e).__name__)
                errors[ek] = errors.get(ek, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                depth[nid] -= 1
                if not depth[nid]:
                    incl[nid] += dur
                if idx >= 0:
                    s_start[idx] = start
                    s_end[idx] = end

        return wrapper

    # -- reading ------------------------------------------------------------

    def cache_info(self) -> dict[str, tuple[int, int]]:
        out = {}
        for span in ("roots.root_window", "closure.window_planes"):
            info = self.originals[span].cache_info()
            out[span] = (info.hits, info.misses)
        return out

    def stats(self) -> dict:
        """Aggregates keyed by span name, plus cache and edge tables."""
        cache1 = self.cache_info()
        cache = {k: (cache1[k][0] - self._cache0[k][0],
                     cache1[k][1] - self._cache0[k][1]) for k in cache1}
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "incl": list(self.incl),
            "self_s": list(self.self_s),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "errors": [[nid, e, n] for (nid, e), n in self.errors.items()],
            "cache": cache,
            "intset_max": dict(self.intset_max),
            "planes_built": sum(self.plane_tables.values()),
            "spans": len(self.span_name),
            "dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        """One header line, then one JSON array [name, parent, start, end]
        per span, times in seconds from tracer creation."""
        t0 = self.t0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_name),
                                 "dropped": self.dropped}) + "\n")
            for k in range(len(self.span_name)):
                fh.write("[%d,%d,%.7f,%.7f]\n" % (
                    self.span_name[k], self.span_parent[k],
                    self.span_start[k] - t0, self.span_end[k] - t0))


def _merge(stats_list) -> dict:
    """Sum per-name aggregates of several processes, keyed by span name."""
    out = {"calls": {}, "incl": {}, "self_s": {}, "edges": {}, "errors": {},
           "cache": {}, "intset_max": {"P": 0, "T": 0}, "planes_built": 0,
           "spans": 0, "dropped": 0}
    for st in stats_list:
        names = st["names"]
        for key in ("calls", "incl", "self_s"):
            for name, v in zip(names, st[key]):
                out[key][name] = out[key].get(name, 0) + v
        for p, c, n in st["edges"]:
            k = (names[p] if p >= 0 else "", names[c])
            out["edges"][k] = out["edges"].get(k, 0) + n
        for nid, e, n in st["errors"]:
            k = (names[nid], e)
            out["errors"][k] = out["errors"].get(k, 0) + n
        for k, (h, m) in st["cache"].items():
            h0, m0 = out["cache"].get(k, (0, 0))
            out["cache"][k] = (h0 + h, m0 + m)
        for k in ("P", "T"):
            out["intset_max"][k] = max(out["intset_max"][k], st["intset_max"][k])
        for k in ("planes_built", "spans", "dropped"):
            out[k] += st[k]
    return out


def _unit(name: str) -> str:
    if name.endswith((".calls", ".count", ".spans")):
        return "count"
    if name.endswith(("_ratio", ".attempts_per_call")):
        return "ratio"
    if name.endswith((".max_period", ".max_threshold")):
        return "int"
    return "s"


def layer_metrics(stats_list) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as (value, unit), from
    tracer aggregates."""
    st = _merge(stats_list)
    calls, incl = st["calls"], st["incl"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        h, m = st["cache"].get(name, (0, 0))
        return ratio(h, h + m)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in st["self_s"].items() if k.startswith(layer + "."))
    out.update({
        "intset.minkowski.calls": c("intset.minkowski"),
        "intset.minkowski.s": s("intset.minkowski"),
        "intset.star.calls": c("intset.star"),
        "intset.star.s": s("intset.star"),
        "intset.union.calls": c("intset.union"),
        "intset.max_period": st["intset_max"]["P"],
        "intset.max_threshold": st["intset_max"]["T"],
        "lattice.threshold_closure.s": s("lattice.threshold_closure"),
        "lattice.check_order.s": s("lattice.check_order"),
        "lattice.iota.s": s("lattice.iota"),
        "lattice.pi.s": s("lattice.pi"),
        "lattice.embed_c.s": s("lattice.embed_c"),
        "lattice.restrict_c.s": s("lattice.restrict_c"),
        "lattice.try_join.s": s("lattice.try_join"),
        "lattice.try_join.stable_ratio": ratio(
            c("lattice.try_join")
            - st["errors"].get(("lattice.try_join", "UnstableWindow"), 0),
            c("lattice.try_join")),
        "fan.classify_oracle.calls": c("fan.classify_oracle"),
        "fan.classify_oracle.s": s("fan.classify_oracle"),
        "fan.classify_oracle.attempts_per_call": ratio(
            st["edges"].get(("fan.classify_oracle", "fan.classify_from_bits"), 0),
            c("fan.classify_oracle")),
        "fan.classify.s": s("fan.classify"),
        "fan.act.s": s("fan.act"),
        "fan.build_biclosed.calls": c("fan.build_biclosed"),
        "fan.member.calls": c("fan.membership"),
        "roots.class_chain.calls": c("roots.class_chain"),
        "roots.class_chain.s": s("roots.class_chain"),
        "roots.finite_class.calls": c("roots.finite_class"),
        "roots.root_window.s": s("roots.root_window"),
        "roots.root_window.hit_ratio": hit_ratio("roots.root_window"),
        "closure.window_planes.s": s("closure.window_planes"),
        "closure.window_planes.count": st["planes_built"],
        "closure.window_planes.hit_ratio": hit_ratio("closure.window_planes"),
        "closure.close.s": s("closure.close"),
        "closure.is_biclosed.s": s("closure.is_biclosed"),
        "closure.doubling_check.s": s("closure.doubling_check"),
        "closure.interior.s": s("closure.interior"),
        "orders.order_from_triple.s": s("orders.order_from_triple"),
        "orders.inversion_set.s": s("orders.inversion_set"),
        "perms.multiply.calls": c("perms.multiply"),
        "perms.root_action.calls": c("perms.root_action"),
        "trace.spans": st["spans"] + st["dropped"],
    })
    return {k: (v, _unit(k)) for k, v in out.items()}
