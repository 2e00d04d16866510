"""Re-measure the baselines quoted in ROADMAP.md, each in a fresh process.

Usage, from the root of a checkout:  python3 perfbench/baselines.py [SEED]

- `afweak verify all` as a cold CLI process (wall time);
- 5 x join_C of random pairs at C2 and at C3 (CPU time, fresh process);
- 10 x classify(t.window(6)) at A4 and at A6 (CPU time, plane
  construction included, as in the ROADMAP figure).

Prints one line per baseline.  Inputs come from perfbench/gen.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASE = r"""
import random, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import gen
from afweak import fan, lattice
from afweak.roots import AffineType
rng = random.Random({seed})
kind, fam, n, reps = {case!r}
typ = AffineType(fam, n)
if kind == "join_C":
    inputs = [[gen.random_triple(typ, rng) for _ in range(2)] for _ in range(reps)]
    t0 = time.process_time()
    for xs in inputs:
        lattice.join_C(xs)
else:
    windows = [gen.random_triple(typ, rng).window(6) for _ in range(reps)]
    t0 = time.process_time()
    for w in windows:
        fan.classify(w)
print(time.process_time() - t0)
"""


def main(seed: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), AFWEAK_SEED=str(seed))
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "afweak.cli", "verify", "all"],
                       env=env, capture_output=True, text=True, cwd=ROOT)
    print(f"afweak verify all: {time.perf_counter() - t0:.2f} s wall, exit {p.returncode}")
    for case in (("join_C", "C", 2, 5), ("join_C", "C", 3, 5),
                 ("classify", "A", 4, 10), ("classify", "A", 6, 10)):
        code = CASE.format(src=os.path.join(ROOT, "src"),
                           bench=os.path.join(ROOT, "perfbench"), seed=seed, case=case)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, cwd=ROOT, check=True).stdout
        kind, fam, n, reps = case
        label = f"{reps} x {kind} at {fam}{n}" + (" (window 6)" if kind == "classify" else "")
        print(f"{label}: {float(out):.2f} s CPU")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
