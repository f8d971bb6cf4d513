"""Machine-speed probe.

On a shared host the speed of a core drifts by 20-30% over seconds to
minutes, so pass times measured minutes apart differ by more than the
changes the benchmark should detect.  The probe is a fixed piece of work
that does not touch qmodw but does what its hot paths do: small int64
matrix-vector products, Python-integer gcd and max loops over their
results, Fraction arithmetic and building small dicts.  Timed right
before and right after a measured piece of work, it gives the machine's
speed during that work.  ``Clock`` scales a run's measured times to the
speed at which one probe takes ``REFERENCE_S`` seconds.

A clock times with ``perf_counter`` or with ``process_time``.  The
second leaves out the time the host gives this virtual CPU to other
guests (steal time), which on a shared 2-vCPU VM makes up most of the
pass-to-pass spread of a single-threaded pass: there, over ten passes of
sweep-mod2, wall time varied by 9.6% (coefficient of variation) and CPU
time by 2.6%, and the slow passes were those with steal.  Probe and
pass are then timed with the same clock.
"""

from __future__ import annotations

import gc
import math
import statistics
from fractions import Fraction
from time import perf_counter, process_time

import numpy as np

REFERENCE_S = 0.1
ROUNDS = 3700

_K = np.arange(1600, dtype=np.int64).reshape(40, 40) % 7 - 3
_V = np.arange(40, dtype=np.int64) % 5 - 2


def probe(timer=perf_counter) -> float:
    """Seconds one fixed, qmodw-independent piece of work takes now."""
    t0 = timer()
    acc = 0
    for r in range(ROUNDS):
        out = _K @ _V
        g = 0
        for v in out.flat:
            g = math.gcd(g, int(v))
        acc += max(abs(int(v)) for v in out.flat) + g
        f = Fraction(r + 1, 7) * Fraction(3, r + 2) + Fraction(1, 3)
        acc += len({(r, i): i for i in range(8)}) + f.denominator
    return timer() - t0


class Clock:
    """Times pieces of work, with a probe before the first and after each.

    ``cpu`` selects ``process_time``, which counts this process only: use
    it for single-process work.  ``scale`` takes the run's median probe as
    its speed: a single probe is short enough that one stall moves it.
    """

    def __init__(self, cpu=False):
        self.timer = process_time if cpu else perf_counter
        self.probes = []
        self.probe()

    def probe(self):
        # Garbage the measured work left behind is not the machine's speed.
        gc.collect()
        self.probes.append(probe(self.timer))

    def time(self, work):
        """Run ``work()``; return (result, seconds)."""
        t0 = self.timer()
        result = work()
        seconds = self.timer() - t0
        self.probe()
        return result, seconds

    def scale(self, seconds):
        """``seconds`` at the speed where one probe takes REFERENCE_S."""
        return seconds * REFERENCE_S / statistics.median(self.probes)
