"""Job times scaled to a reference speed of the machine.

The reference machine is shared: it alternates between a fast and a slow
state about 1.5 times apart, in phases of seconds to minutes, and CPU time
follows wall time, so the slowdown is contention on the host, not
preemption.  Timed by wall clock alone, ten runs of one workload spread by
20 to 30% between their quartiles.

So the benchmark times a fixed calibration kernel (exact rational
elimination and dict updates, the kind of work hopfcross does) between
jobs, and scales each job's wall time by REFERENCE_S / c, where c is the
mean kernel time of the samples just before and just after the job.
REFERENCE_S is the kernel's time in the machine's fast state, so a scaled
time reads as wall seconds on the uncontended machine.  The kernel runs no
hopfcross code, so a change to the program moves the job times and not c.
Raw wall times are printed on the summary line next to the scaled ones.
"""

import random
import time
from fractions import Fraction

REFERENCE_S = 0.0018  # the kernel's time in the fast state of the reference machine
EVERY_S = 0.1         # sample at least this often while jobs run
REPEATS = 3           # a sample is the fastest of this many kernel runs


def _kernel():
    rng = random.Random(7)
    n = 10
    m = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
         for _ in range(n)]
    start = time.perf_counter()
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class Clock:
    def __init__(self):
        self.samples = []  # kernel seconds, in the order taken
        self._last = None

    def sample(self):
        """Time the kernel now; return the sample's index."""
        self.samples.append(min(_kernel() for _ in range(REPEATS)))
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self):
        return self._last is None or time.perf_counter() - self._last >= EVERY_S

    def factor(self, before):
        """The scale for work done between sample `before` and the next one."""
        c = (self.samples[before] + self.samples[before + 1]) / 2
        return REFERENCE_S / c
