"""Speed probe: a fixed piece of work, timed between queries, that tracks how fast the machine runs now.

On a small shared host the same code runs up to twice as slowly for seconds
or minutes at a time, and that drift, not the program, sets most of the
spread of raw wall times between runs.  The probe is a fixed mix of the
operations the workloads spend their time on (rational arithmetic, big-int
gcd and modular powers, tuple and string building, a sort).  It never calls
the package, so a change to the package cannot move it.  Of the kernels
tried, this one follows the slowdowns of `rewrite-deep` and `oracle-sweep`
closest: the time of a fixed slice of their queries grew as the probe's
time to the power 1.1, against 1.4 for a kernel of interpreted loops, dict
traffic and small numpy calls.

`Probe.measure` times the kernel a few times (garbage collector off, so the
program's heap does not bill the probe) and keeps the median.  A latency
measured between two probes is rescaled to reference speed by
`NOMINAL_S / probe`, where the probe time is the mean of the probes on
either side; `NOMINAL_S` is the kernel's time on the machine the bounds were
set on, so on that machine at full speed a rescaled time is the wall time.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

NOMINAL_S = 0.0020  # kernel time in a busy workload process at full speed: 2-vCPU shared host, Python 3.11.7
REPS = 3
EVERY_S = 0.1  # least time between probes taken while queries run


def kernel() -> int:
    """The probe's fixed work (about 2 ms at full speed on the reference machine)."""
    acc = Fraction(0)
    items = []
    for i in range(1, 120):
        f = Fraction(i * 7 + 1, i * 3 + 2)
        acc += f * f - Fraction(1, i)
        items.append((f.numerator % 13, i, str(i)))
        acc = Fraction(acc.numerator % 100003, acc.denominator % 1009 + 1)
    items.sort()
    g = 0
    for i in range(1, 600):
        g += gcd(i * 1000003, 3**40 + i) + pow(i, 65537, 10**9 + 7) % 7
    return g + len(items)


class Probe:
    """Probes taken at least EVERY_S apart; chunk j is the work between probe j and probe j + 1."""

    def __init__(self):
        self.times: list[float] = []
        self.last = perf_counter()
        for _ in range(REPS):  # warm-up: first calls pay for allocation and specialisation
            kernel()

    def measure(self) -> int:
        """Take a probe; return the index of the chunk that starts now."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            samples = []
            for _ in range(REPS):
                t = perf_counter()
                kernel()
                samples.append(perf_counter() - t)
        finally:
            if was_enabled:
                gc.enable()
        self.times.append(statistics.median(samples))
        self.last = perf_counter()
        return len(self.times) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= EVERY_S

    def scale(self, chunk: int) -> float:
        """Factor that rescales a time measured in `chunk` to reference speed."""
        around = self.times[chunk : chunk + 2]
        return NOMINAL_S / (sum(around) / len(around))

    def speed(self) -> float:
        """Median machine speed over the run, as a share of the reference speed."""
        return NOMINAL_S / statistics.median(self.times)
