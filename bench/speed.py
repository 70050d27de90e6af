"""CPU speed sampler, used to express measured times at a fixed speed.

On a shared machine the speed of one core drifts between spells that last
from seconds to minutes: a pure-Python loop ran 1.0x to 1.7x its fastest
time, in wall and in CPU time alike, with no steal time recorded, and whole
30 s benchmark runs moved by up to 30 %.  No statistic taken inside a run
removes a spell as long as the run.

So while a run measures, a timer signal interrupts the program every
``INTERVAL`` seconds and times one of three fixed kernels, one for each hot
spot of the program: a bitmask breadth-first search (the cut scan),
``Fraction`` comparisons (exact toughness) and Jacobi-style rotations of
small numpy columns (the spectrum).  The kernels are frozen here and share no
code with the program, so a faster program does not make them faster.
``factor(t0, t1)`` is the geometric mean of the kernels' time relative to
their nominal time around that interval, and a measured duration divided by
it is the duration at the nominal speed.  On 30 s windows cut from a
7-minute log that cycled through all three workloads, this took the spread
of run medians from 0.14-0.24 to 0.03-0.06.  Adding dict/tuple churn, an
integer-arithmetic loop or a large numpy product tracked the program less
well and was left out.  Each tick costs about 1 % of the run.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.04
# Look this far either side of an interval, so that a short one still
# averages a few samples of every kernel.
WINDOW_S = 0.5

_N = 16
_ADJ = [(1 << (v + 1) % _N) | (1 << (v - 1) % _N) | (1 << (v + 5) % _N) | (1 << (v - 5) % _N)
        for v in range(_N)]
_M = np.random.default_rng(0).random((40, 40))


def _bfs() -> None:
    full = (1 << _N) - 1
    for m in range(0, 64 * 61, 61):
        rem = full & ~(m * 2654435761 & full)
        while rem:
            comp = front = rem & -rem
            while front:
                nxt = 0
                f = front
                while f:
                    low = f & -f
                    nxt |= _ADJ[low.bit_length() - 1]
                    f ^= low
                front = nxt & rem & ~comp
                comp |= front
            rem &= ~comp


def _fractions() -> None:
    best = Fraction(7, 3)
    for i in range(1, 300):
        c = Fraction(i % 17 + 1, i % 5 + 2)
        if c < best:
            best = c


def _rotations() -> None:
    a = _M.copy()
    for p in range(12):
        for q in range(p + 1, 13):
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = 0.8 * col_p - 0.6 * col_q
            a[:, q] = 0.6 * col_p + 0.8 * col_q


# Kernel and its time at the nominal speed, about the 10th percentile of its
# time over 7 minutes on a 2-core x86-64 VM with CPython 3.11 and numpy 2.4.
KERNELS = [(_bfs, 115e-6), (_fractions, 380e-6), (_rotations, 430e-6)]


class SpeedSampler:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.logs: list[float] = []  # log(kernel time / nominal time)
        self._tick_count = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        kernel, nominal = KERNELS[self._tick_count % len(KERNELS)]
        self._tick_count += 1
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.logs.append(math.log((t1 - t0) / nominal))

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than nominal the machine ran around [t0, t1]."""
        i = bisect.bisect_left(self.times, t0 - WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + WINDOW_S)
        logs = self.logs[i:j] or self.logs
        return math.exp(sum(logs) / len(logs)) if logs else 1.0

    def nominal(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at the nominal speed."""
        return (t1 - t0) / self.factor(t0, t1)
