"""Machine-speed calibration, so that timings taken minutes apart compare.

On a shared machine the speed available to one process drifts by a quarter
or more over tens of seconds (other tenants on the same cores), which swamps
the medians of a 30-second run.  The benchmark therefore times a fixed
kernel around every timed call and scales the call's wall time by
``reference / median(kernel times just before and after it)``: the reported
seconds are what the call would have taken at the reference speed.

Different code slows down by different amounts on a busy core, so each
workload uses the kernel closest to its own work: ``exact`` does Fraction
polynomial products and big-integer products, ``sim`` plays the race game
with its own copy of a random-float loop.  Both use the standard library
only, so they never change when the library does.  A call that runs several
processes is not scaled, because one core's speed does not describe it.
Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from math import comb

# After a call, one kernel sample per SAMPLE_EVERY_S of its wall time (at
# least one, at most SAMPLES_MAX), so long calls get a steadier speed reading.
SAMPLE_EVERY_S = 0.25
SAMPLES_MAX = 12

_ROW = [Fraction(comb(48, k) * (-1) ** k, 3) for k in range(49)]
_BIG = 7 ** 6000


def exact_kernel() -> None:
    out = [Fraction(0)] * (2 * len(_ROW) - 1)
    for i, a in enumerate(_ROW):
        for j, b in enumerate(_ROW):
            out[i + j] += a * b
    x = _BIG
    for _ in range(20):
        x = (x * _BIG) >> 16000


def sim_kernel() -> None:
    rng = random.Random(12345).random
    for _ in range(5000):
        first = second = 0
        while True:
            first += 1
            if rng() < 0.27:
                first += 1
            if first >= 20:
                break
            second += 1
            if rng() < 0.27:
                second += 1
            if second >= 20:
                break


# name -> (kernel, its median seconds on the reference machine: Python
# 3.11.7, 2 vCPUs).  Only the ratio to the reference matters.
KERNELS = {"exact": (exact_kernel, 0.014), "sim": (sim_kernel, 0.010)}


class Clock:
    """Times calls in wall seconds and in seconds at the reference speed."""

    def __init__(self, kernel: str) -> None:
        self._kernel, self._reference = KERNELS[kernel]
        self._before = [self.sample()]

    def sample(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def time(self, fn, calibrated: bool = True):
        """Call ``fn``; return (its result or None, the exception or None, wall s, scaled s).

        With ``calibrated`` false the scaled time is the wall time.
        """
        error = None
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts the failure; timing goes on
            out, error = None, exc
        wall = time.perf_counter() - start
        if not calibrated:
            return out, error, wall, wall
        after = [self.sample() for _ in range(min(SAMPLES_MAX, max(1, round(wall / SAMPLE_EVERY_S))))]
        scaled = wall * self._reference / statistics.median(self._before + after)
        self._before = after
        return out, error, wall, scaled
