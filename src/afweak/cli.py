"""Command-line interface: construction, classification, joins, export.

JSON is the single interchange format; every JSON the tool emits is
accepted back by the matching --in flag.  DOT output is write-only.
Exit codes: 0 success, 1 domain errors (the error name and witness go to
stderr), 2 usage errors, malformed input files included (one line on
stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import closure as _closure
from . import fan as _fan
from . import lattice as _lattice
from . import orders as _orders
from . import perms as _perms
from . import roots as _roots
from . import verify as _verify
from .errors import AfweakError

# ---------------------------------------------------------------------------
# serialization


class InputError(ValueError):
    """Malformed input: unreadable, not JSON, or missing or ill-typed keys.

    The CLI reports it as a usage error (exit 2); a well-formed input
    naming something invalid, such as a non-root pair, is a domain error.
    """


def _describe(e: Exception) -> str:
    if isinstance(e, KeyError):
        return f"missing key {e}"
    return f"{type(e).__name__}: {e}".replace("\n", " ")


def _input_parser(fn):
    """Re-raise the errors a malformed JSON value causes as InputError."""

    @functools.wraps(fn)
    def parse(*args):
        try:
            return fn(*args)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{fn.__name__}: {_describe(e)}") from e

    return parse


_EXPECTED = {int: "an integer", str: "a string", list: "a list",
             dict: "an object", (bool, type(None)): "true, false or null"}


def _typed(value, kind, what: str):
    """value if it is a JSON value of kind (a bool is no int); an
    InputError otherwise: JSON values are checked, never coerced."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise InputError(f"{what}: expected {_EXPECTED[kind]}, "
                         f"not {json.dumps(value)}")
    return value


def _list_of(values, kind, what: str) -> list:
    """values if it is a JSON list of values of kind."""
    for v in _typed(values, list, what):
        _typed(v, kind, what)
    return values


@_input_parser
def type_from_json(d) -> _roots.AffineType:
    return _roots.AffineType(d["family"], _typed(d["n"], int, "n"))


def type_to_json(typ: _roots.AffineType) -> dict:
    return {"family": typ.family, "n": typ.n}


def windowset_to_json(s: _closure.WindowSet) -> dict:
    return {
        **type_to_json(s.type),
        "H": s.H,
        "roots": [[r.i, r.j] for r in s.sorted_members()],
    }


@_input_parser
def windowset_from_json(d) -> _closure.WindowSet:
    typ = type_from_json(d)
    pairs = (_list_of(p, int, "roots") for p in _typed(d["roots"], list, "roots"))
    roots = frozenset(_roots.canonical_root(typ, i, j) for i, j in pairs)
    return _closure.WindowSet(typ, _typed(d["H"], int, "H"), roots)


@_input_parser
def perm_from_json(d) -> _perms.AffinePermutation:
    typ = type_from_json(d)
    if "word" in d:
        return word_element(typ, _typed(d["word"], str, "word"))
    return _perms.from_window(typ, _list_of(d["window"], int, "window"))


def word_element(typ, text: str) -> _perms.AffinePermutation:
    """Parse a word in simple generators, written like "s0 s1 s2"."""
    gens = _perms.simple_reflections(typ)
    w = _perms.identity(typ)
    for tok in text.split():
        if not tok.startswith("s") or not tok[1:].isdigit():
            raise AfweakError(f"bad generator token {tok!r}")
        k = int(tok[1:])
        if k >= len(gens):
            raise AfweakError(f"no generator {tok} in this type")
        w = _perms.multiply(w, gens[k])
    return w


def face_to_json_blocks(face: _fan.FanFace) -> list:
    return [sorted(b) for b in face.blocks]


@_input_parser
def face_from_json(typ, blocks) -> _fan.FanFace:
    return _fan.face_from_blocks(
        typ, [frozenset(_list_of(b, int, "block"))
              for b in _typed(blocks, list, "blocks")])


def triple_to_json(t: _fan.BiclosedTriple) -> dict:
    return {
        **type_to_json(t.type),
        "face": face_to_json_blocks(t.face),
        "phi_prime": sorted(t.phi_prime),
        "w": {cid: list(u.window) for cid, u in t.w},
    }


@_input_parser
def triple_from_json(d) -> _fan.BiclosedTriple:
    typ = type_from_json(d)
    face = face_from_json(typ, d["face"])
    decomp = _fan.parahoric(face)
    wmap = {}
    for cid, win in _typed(d.get("w", {}), dict, "w").items():
        comp = decomp.by_id(cid)
        wmap[cid] = _perms.from_window(comp.ctype, _list_of(win, int, "w"))
    phi = _list_of(d.get("phi_prime", []), str, "phi_prime")
    return _fan.build_biclosed(face, frozenset(phi), wmap)


def order_to_json(o: _orders.PeriodicOrder) -> dict:
    orient = []
    perms = {}
    for k in range(len(o.face.blocks)):
        d = o.block_data[k]
        orient.append(bool(d.reversed) if d is not None else None)
        if d is not None and d.perm is not None:
            perms[str(k)] = list(d.perm.window)
    return {
        **type_to_json(o.type),
        "blocks": face_to_json_blocks(o.face),
        "orient": orient,
        "perms": perms,
    }


@_input_parser
def order_from_json(d) -> _orders.PeriodicOrder:
    typ = type_from_json(d)
    face = face_from_json(typ, d["blocks"])
    orient = _list_of(d.get("orient", []), (bool, type(None)), "orient")
    reversed_blocks = [k for k, flag in enumerate(orient) if flag]
    perms = {}
    for k, win in _typed(d.get("perms", {}), dict, "perms").items():
        ptype = _orders._block_perm_type(face, int(k))
        if ptype is None:
            raise AfweakError(f"block {k} takes no permutation")
        perms[int(k)] = _perms.from_window(ptype, _list_of(win, int, "perms"))
    return _orders.periodic_order(face, reversed_blocks, perms)


def load_any_triple(d) -> _fan.BiclosedTriple:
    """Accept a triple, a permutation (as N(w)), an order or a window set."""
    if "face" in d:
        return triple_from_json(d)
    if "window" in d or "word" in d:
        return _fan.triple_of_element(perm_from_json(d))
    if "blocks" in d:
        return _orders.inversion_set(order_from_json(d))
    if "roots" in d:
        return _fan.classify(windowset_from_json(d))
    raise AfweakError("unrecognized input object")


def _load(path: str) -> dict:
    """Read one JSON input object; unreadable or non-object files are
    InputErrors."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {_describe(e)}") from e
    if not isinstance(d, dict):
        raise InputError(f"{path}: expected a JSON object")
    return d


def _option(option: str, text: str, parse):
    """parse of the JSON list given to a command-line option; bad JSON, a
    non-list or ill-typed items are an InputError."""
    try:
        value = json.loads(text)
        if not isinstance(value, list):
            raise TypeError("expected a JSON list")
        return parse(value)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{option}: {_describe(e)}") from e


def _at_least(option: str, value: int | None, least: int) -> None:
    """InputError for an integer option below `least`."""
    if value is not None and value < least:
        raise InputError(f"{option} must be at least {least}, not {value}")


def _one_line(option: str, text: str) -> tuple[int, ...]:
    """The digits of a one-line notation; anything else is an InputError."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{option}: expected digits, not {text!r}")
    return tuple(int(c) for c in text)


def _type_option(family: str, n: int) -> _roots.AffineType:
    """The type named by --family (or --type) and --n; an n out of range
    for the family is an InputError."""
    try:
        return _roots.AffineType(family, n)
    except ValueError as e:
        raise InputError(f"--n: {e}") from e


def _witness_json(cert) -> dict:
    """The violated half and the rank-2 witness of a failed certificate."""
    return {"violated": cert.violated,
            "witness": [[r.i, r.j] for r in cert.witness]}


def _face_and_phi(typ, args):
    """The face and Phi' given to build or hasse by --face, --phi-blocks
    or --phi."""
    face = _option("--face", args.face, lambda v: face_from_json(typ, v))
    if args.phi_blocks is None:
        return face, frozenset(args.phi or ())
    return face, _option(
        "--phi-blocks", args.phi_blocks,
        lambda v: _fan.phi_prime_from_blocks(
            face, _list_of(v, int, "--phi-blocks")),
    )


def _emit(obj, out: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def export_dot(labels, covers, name="poset") -> str:
    """A DOT digraph with cover relations as edges (lower -> upper)."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, label in enumerate(labels):
        lines.append(f'  n{k} [label="{label}"];')
    for a, b in covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_close(args):
    s = windowset_from_json(_load(args.infile))
    _emit(windowset_to_json(_closure.close(s)), args.out)
    return 0


def _cmd_interior(args):
    s = windowset_from_json(_load(args.infile))
    _emit(windowset_to_json(_closure.interior(s)), args.out)
    return 0


def _cmd_check(args):
    s = windowset_from_json(_load(args.infile))
    cert = _closure.is_biclosed(s)
    result = {
        "biclosed": cert.ok,
        "doubling": _closure.doubling_check(s),
    }
    if not cert.ok:
        result.update(_witness_json(cert))
    _emit(result, args.out)
    return 0 if cert.ok else 1


def _cmd_classify(args):
    t = load_any_triple(_load(args.infile))
    out = triple_to_json(t)
    if t.type.family == "A":
        out["one_indexed_face"] = [list(b) for b in t.face.one_indexed_blocks()]
    _emit(out, args.out)
    return 0


def _cmd_build(args):
    _at_least("--height", args.height, 0)
    face, phi = _face_and_phi(_type_option(args.family, args.n), args)
    wmap = {}
    if args.w:
        decomp = _fan.parahoric(face)
        for item in args.w:
            cid, _, spec_ = item.partition("=")
            comp = decomp.by_id(cid)
            if spec_.lstrip().startswith("["):
                wmap[cid] = _option(
                    "--w", spec_,
                    lambda v: _perms.from_window(comp.ctype, _list_of(v, int, "--w")),
                )
            else:
                wmap[cid] = word_element(comp.ctype, spec_.replace(",", " "))
    t = _fan.build_biclosed(face, phi, wmap)
    out = triple_to_json(t)
    if args.height is not None:
        out["window"] = windowset_to_json(t.window(args.height))
    _emit(out, args.out)
    return 0


def _cmd_order(args):
    o = order_from_json(_load(args.infile))
    if args.normalize:
        o = _orders.normalize(o)
    out = order_to_json(o)
    if args.render:
        width = args.width
        pts = _orders.render(o, -width, width)
        out["render"] = " \u227a ".join(str(x) for x in pts)
    _emit(out, args.out)
    return 0


def _cmd_join(args, mode: str):
    ts = [load_any_triple(_load(p)) for p in args.infile]
    if args.type and args.n is not None:
        typ = _type_option(args.type, args.n)
    else:
        typ = ts[0].type
        if args.type and typ.family != args.type:
            raise AfweakError(f"inputs are type {typ.family}, not {args.type}")
    if typ.family == "A":
        t = (_lattice.join_A if mode == "join" else _lattice.meet_A)(ts, typ)
    elif typ.family == "C":
        t = (_lattice.join_C if mode == "join" else _lattice.meet_C)(ts, typ)
    else:
        raise AfweakError("exact join/meet serve families A and C; "
                          "use try-join for B and D")
    _emit(triple_to_json(t), args.out)
    return 0


def _cmd_try_join(args):
    _at_least("--height", args.height, 1)
    ts = [load_any_triple(_load(p)) for p in args.infile]
    if args.type and ts[0].type.family != args.type:
        raise AfweakError(f"inputs are type {ts[0].type.family}, not {args.type}")
    res = _lattice.try_join(ts, args.height)
    if res.ok:
        _emit({"ok": True, "join": triple_to_json(res.triple)}, args.out)
        return 0
    _emit({"ok": False, **_witness_json(res.witness)}, args.out)
    return 1


def _cmd_join_finite(args):
    _at_least("--rank", args.rank, 0)
    u, w = _one_line("--u", args.u), _one_line("--w", args.w)
    try:
        out = _lattice.join_finite(args.family, args.rank, u, w)
    except ValueError as e:  # a well-formed --u or --w outside the group
        raise AfweakError(str(e)) from e
    _emit({"join": "".join(map(str, out)), "one_line": list(out)}, args.out)
    return 0


def _cmd_faces(args):
    typ = _type_option(args.family, args.n)
    faces = _fan.enumerate_faces(typ)
    if args.dot:
        _, leq = _fan.face_poset(typ)
        labels = [
            "(" + "|".join(",".join(map(str, b)) for b in f.one_indexed_blocks()) + ")"
            for f in faces
        ]
        strict = {
            (a, b)
            for a in range(len(faces))
            for b in range(len(faces))
            if a != b and leq(a, b)
        }
        covers = sorted(
            (a, b)
            for (a, b) in strict
            if not any((a, c) in strict and (c, b) in strict for c in range(len(faces)))
        )
        with open(args.dot, "w") as fh:
            fh.write(export_dot(labels, covers, "faces"))
    _emit(
        {
            **type_to_json(typ),
            "count": len(faces),
            "faces": [face_to_json_blocks(f) for f in faces],
        },
        args.out,
    )
    return 0


def _cmd_hasse(args):
    face, phi = _face_and_phi(_type_option(args.family, args.n), args)
    frag = _fan.path_component_poset(face, phi, args.bound)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(frag.labels, frag.covers, "hasse"))
    _emit(
        {
            "nodes": list(frag.labels),
            "covers": [list(c) for c in frag.covers],
        },
        args.out,
    )
    return 0


def _cmd_verify(args):
    try:
        rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")))
    except ValueError as e:
        raise InputError(f"AFWEAK_SEED: {e}") from e
    names = _verify.SUITES.keys() if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for case, ok in _verify.SUITES[name](rng):
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {case}")
            failures += 0 if ok else 1
    print(f"{'OK' if not failures else 'FAILED'} ({failures} failures)")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="afweak",
        description="biclosed root sets and the extended weak order "
        "for the classical affine types",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_io(sp, many=False):
        if many:
            sp.add_argument("--in", dest="infile", nargs="+", required=True)
        else:
            sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("close", help="windowed closure of a root set")
    add_io(sp)
    sp = sub.add_parser("interior", help="windowed interior of a root set")
    add_io(sp)
    sp = sub.add_parser("check", help="biclosedness certificate + doubling")
    add_io(sp)
    sp = sub.add_parser("classify", help="triple of a window set or order")
    add_io(sp)

    sp = sub.add_parser("build", help="assemble a triple (F, Phi', w)")
    sp.add_argument("--family", required=True, choices="ABCD")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--face", required=True, help="JSON list of blocks")
    sp.add_argument("--phi", nargs="*", help="component ids")
    sp.add_argument("--phi-blocks", dest="phi_blocks",
                    help="JSON list of block positions")
    sp.add_argument("--w", nargs="*",
                    help="component assignments id=[window] or id=s0,s1")
    sp.add_argument("--height", type=int, default=None,
                    help="also print the windowed set at this height")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("order", help="normalize/render a periodic order")
    add_io(sp)
    sp.add_argument("--render", action="store_true")
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--width", type=int, default=8)

    for name in ("join", "meet"):
        sp = sub.add_parser(name, help=f"exact {name} (families A and C)")
        add_io(sp, many=True)
        sp.add_argument("--type", choices="AC", default=None)
        sp.add_argument("--n", type=int, default=None)

    sp = sub.add_parser("try-join", help="windowed join attempt (B and D)")
    add_io(sp, many=True)
    sp.add_argument("--type", choices="BD", default=None)
    sp.add_argument("--height", type=int, required=True)

    sp = sub.add_parser("join-finite", help="join in a finite Weyl group")
    sp.add_argument("--family", required=True, choices="ABCD")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--u", required=True, help="one-line notation, e.g. 624351")
    sp.add_argument("--w", required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("faces", help="enumerate Coxeter-fan faces")
    sp.add_argument("--family", required=True, choices="ABCD")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dot", default=None, help="write the face poset as DOT")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("hasse", help="poset fragment of a path component")
    sp.add_argument("--family", required=True, choices="ABCD")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--face", required=True)
    sp.add_argument("--phi", nargs="*")
    sp.add_argument("--phi-blocks", dest="phi_blocks")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--dot", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=[*_verify.SUITES, "all"])
    return p


def run(argv) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "close": _cmd_close,
        "interior": _cmd_interior,
        "check": _cmd_check,
        "classify": _cmd_classify,
        "build": _cmd_build,
        "order": _cmd_order,
        "join": lambda a: _cmd_join(a, "join"),
        "meet": lambda a: _cmd_join(a, "meet"),
        "try-join": _cmd_try_join,
        "join-finite": _cmd_join_finite,
        "faces": _cmd_faces,
        "hasse": _cmd_hasse,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args)
    except InputError as e:
        print(f"afweak: malformed input: {e}", file=sys.stderr)
        return 2
    except AfweakError as e:
        line = f"{type(e).__name__}: {e}"
        if getattr(e, "witness", None) is not None:
            line += " " + json.dumps(_witness_json(e.witness), sort_keys=True)
        print(line, file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``afweak ... | head``); point
        # stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
