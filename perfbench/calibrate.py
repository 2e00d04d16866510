"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

On a shared host the CPU time of the same Python code drifts by 10-30%
over seconds (other tenants on sibling cores, frequency changes), and the
drift hits all interpreted code alike.  The benchmark therefore times
this kernel every ~0.02 s of its timed loop, while a CLI child runs, and
around set-up, and rescales each sample by REFERENCE_S / K, where K is
the kernel's mean CPU time around and during the sample: the reported
times are CPU times at the host speed at which the kernel takes
REFERENCE_S.  The raw figures are printed too.

The drift differs between the host's cores (the speed ratio of the two
cores varied with a coefficient of variation of 0.13), so a worker pins
itself, and with it its CLI children, to one CPU: the kernel and the
work it calibrates then share a core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from fractions import Fraction

# CPU seconds of one kernel() call on an unloaded shared 2-core host
# (Python 3.11); any fixed value works, this one keeps figures near real ms
REFERENCE_S = 0.0015


def kernel() -> int:
    """Dict, tuple, frozenset, int and Fraction work, like afweak's."""
    d: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        k = (i * 7919 % 97, i % 13)
        d[k] = d.get(k, 0) + i
        s = frozenset((i % 7, k[0], k[1]))
        acc += len(s) + (i ^ k[0])
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i + 1)
    return acc + len(d) + f.denominator % 7


def pin_to_one_cpu() -> None:
    """Restrict this process and its future children to one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure() -> float:
    """Median CPU time of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return statistics.median(times)


class SpeedLog:
    """Kernel timings stamped with wall time, turned into a rescaling
    factor for any wall-clock interval."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter after each timing
        self.k: list[float] = []
        self.spent = 0.0  # CPU seconds spent in the kernel

    def mark(self) -> None:
        t0 = time.process_time()
        self.k.append(measure())
        self.at.append(time.perf_counter())
        self.spent += time.process_time() - t0

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last timing before
        `start`, every timing in between and the first one after `end`."""
        i = max(0, bisect.bisect_right(self.at, start) - 1)
        j = min(bisect.bisect_left(self.at, end), len(self.k) - 1)
        return REFERENCE_S / statistics.fmean(self.k[i:j + 1])

    def mean_factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.k)
