"""The machine's speed, measured next to every timed request.

The shared 2-vCPU guest the benchmark was tuned on changes speed by up to
1.7x, in stretches of seconds to minutes, for reasons outside the program
(presumably other guests on the host).  Every timed request therefore has
calibration samples next to it: the time of ``kernel``, a fixed piece of
interpreter-bound work that runs no growthcalc code, taken in the same
process right before and after the request.  A request's time is reported at the reference speed,

    normalised = measured * REFERENCE_S / local calibration time,

so a stretch that slows the interpreter slows the kernel alike and cancels,
while a change to growthcalc moves only the request.  ``REFERENCE_S`` is a
fixed constant, so the normalised times stay in seconds and compare across
runs, seeds and commits; the measured times are printed beside them.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.0013  # the kernel's time at the reference speed
WINDOW_S = 0.2  # samples this close to a request count towards its speed
WARMUP = 5
SHARE = 0.03  # calibration time next to a request, as a share of it
MAX_SAMPLES = 30


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


_XS = [0.001 * i for i in range(1, 400)]


def kernel():
    """Small objects, method calls, attribute reads, float math and a dict,
    in a small working set: the mix growthcalc's Python code is made of."""
    acc = 0.0
    points = [_Point(x, 1.0 - x) for x in _XS]
    for _ in range(8):
        for p in points:
            acc += math.sqrt(abs(p.at(acc % 1.0)))
    by_index = dict(enumerate(points))
    for _ in range(4):
        acc += sum(by_index[i].a for i in range(len(points)))
    return acc


def sample():
    """One calibration sample: (time taken at its middle, seconds)."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return 0.5 * (t0 + t1), t1 - t0


def warm_up():
    for _ in range(WARMUP):
        kernel()


def samples(n):
    return [sample() for _ in range(n)]


def count_for(seconds):
    """Samples to take next to a request of about ``seconds``: enough to
    spend ~3% of it calibrating, at least one, at most ``MAX_SAMPLES``."""
    return max(1, min(MAX_SAMPLES, int(SHARE * seconds / REFERENCE_S)))


def local(cals, before, start, end):
    """The calibration time around a request that ran from ``start`` to
    ``end`` between samples ``before`` and ``before + 1`` of ``cals``: the
    median of those two and of every other sample within ``WINDOW_S``."""
    lo, hi = before, before + 1
    while lo > 0 and cals[lo - 1][0] >= start - WINDOW_S:
        lo -= 1
    while hi + 1 < len(cals) and cals[hi + 1][0] <= end + WINDOW_S:
        hi += 1
    return statistics.median(s for _, s in cals[lo:hi + 1])


def factor(cal_s):
    """Multiplier from measured to reference-speed time."""
    return REFERENCE_S / cal_s
