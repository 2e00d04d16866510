"""Seeded cases of the exact lattice layer and their answers, one JSON line
each: the operation, its input triples as JSON and the answer triple as
JSON, or the type and message of the error it raised.  Relation cases
(threshold_closure, check_order and pi on hand-built and perturbed
relations) hold the input relation and the closed one as rows of
ThresholdRelation.entry fields (lo, fin, T, P, res).

tests/test_lattice.py recomputes the lines and compares them with the
committed file byte for byte.  Not a test module: pytest collects only
test_*.py.  Rewrite the file with

    PYTHONPATH=src python3 tests/answers.py
"""

import json
import random
from pathlib import Path

from afweak import lattice
from afweak.cli import triple_to_json
from afweak.errors import AfweakError
from afweak.roots import AffineType
from afweak.verify import random_triple
from references import _hand_built, _perturbed_relations

ANSWERS = Path(__file__).parent / "data" / "lattice_answers.jsonl"
SEED = 2022


def _cases(rng):
    """(operation name, operands): joins and meets of 2 and 3 triples,
    sigma and embed_c, on words of length up to 2, 4 or 6, and a few
    operands of the wrong family or of mixed types."""
    out = []
    for n, count in ((3, 12), (4, 12), (5, 10), (6, 8)):
        typ = AffineType("A", n)
        for _ in range(count):
            xs = [random_triple(typ, rng, rng.choice((2, 4, 6)))
                  for _ in range(rng.choice((2, 3)))]
            out += [("join_A", xs), ("meet_A", xs), ("sigma", xs[:1])]
    for n, count in ((2, 30), (3, 18), (4, 8)):
        typ = AffineType("C", n)
        for _ in range(count):
            xs = [random_triple(typ, rng, rng.choice((2, 4, 6))) for _ in range(2)]
            out += [("join_C", xs), ("meet_C", xs), ("embed_c", xs[:1])]
    a, c = random_triple(AffineType("A", 4), rng), random_triple(AffineType("C", 2), rng)
    out += [("join_A", [c]), ("meet_C", [a]), ("embed_c", [a]),
            ("join_A", [a, random_triple(AffineType("A", 3), rng)])]
    return out


def _relations(rng):
    """(type, relation): hand-built relations at M = 2-5, off the interval
    shapes too, and iota relations of A3-A5 triples with one in-block cell
    perturbed."""
    out = [(AffineType("A", m), _hand_built(rng, m)) for m in (2, 3, 4, 5) for _ in range(15)]
    return out + list(_perturbed_relations(rng, 90))


def _rows(r):
    return [[list(r.entry(a, b)._key()) for b in range(r.M)] for a in range(r.M)]


def _apply(name, xs):
    if name in ("sigma", "embed_c"):
        return getattr(lattice, name)(xs[0])
    return getattr(lattice, name)(xs)


def _line(case, compute, to_json) -> str:
    try:
        case["out"] = to_json(compute())
    except (AfweakError, ValueError) as err:  # ValueError: a star through 0
        case["error"] = f"{type(err).__name__}: {err}"
    return json.dumps(case, sort_keys=True) + "\n"


def answer_lines() -> list[str]:
    lines = [_line({"op": name, "in": [triple_to_json(x) for x in xs]},
                   lambda: _apply(name, xs), triple_to_json)
             for name, xs in _cases(random.Random(SEED))]
    for typ, r in _relations(random.Random(SEED + 1)):
        ops = (("threshold_closure", lambda: lattice.threshold_closure(r), _rows),
               ("check_order", lambda: lattice.check_order(r), lambda out: out),
               ("pi", lambda: lattice.pi(r, typ), triple_to_json))
        for name, compute, to_json in ops:
            case = {"op": name, "type": f"A{typ.n}", "in": _rows(r)}
            lines.append(_line(case, compute, to_json))
    return lines


if __name__ == "__main__":
    ANSWERS.parent.mkdir(exist_ok=True)
    ANSWERS.write_text("".join(answer_lines()))
