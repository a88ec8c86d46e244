"""Gauges the interpreter's speed while the program runs.

The shared machine the benchmark runs on changes speed by tens of percent,
in phases of seconds to minutes, as other tenants load it.  ``Gauge``
interrupts the program every INTERVAL seconds (SIGALRM) and times a fixed
reference task of about a third of a millisecond: a bitmask backtracking
search and a frozenset/tuple/dict churn, the operations ipckit's inner
loops are made of, in no ipckit code.  Its time moves with the machine,
never with the program, so wall time scaled by it (``scale``) measures
the program in reference seconds: seconds on the machine at the speed
where the task takes REFERENCE_TASK_S.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02
# Fixes the unit: about the task's median time, run on its own, on the
# 2-vCPU Intel Xeon VM with Python 3.11.7 that perfbench/README.md describes.
REFERENCE_TASK_S = 0.00035


def _queens(n, row=0, cols=0, d1=0, d2=0):
    if row == n:
        return 1
    total = 0
    free = ~(cols | d1 | d2) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        total += _queens(n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1)
    return total


def _churn(n):
    seen = {}
    for i in range(n):
        key = frozenset(j for j in range(8) if i >> j & 1)
        seen[key] = seen.get(key, ()) + (i,)
    return sum(len(v) for v in seen.values())


def task_s():
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    if _queens(5) != 10 or _churn(150) != 150:
        raise AssertionError("reference task miscomputed")
    return time.perf_counter() - t0


class Gauge:
    """Times the reference task every INTERVAL seconds inside ``with``.

    The itimer is not inherited across fork, so pool workers are not
    interrupted; the parent keeps sampling the core it waits on.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(task_s())

    def __enter__(self):
        for _ in range(20):  # let the adaptive interpreter specialise the task
            task_s()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self):
        return len(self.samples)

    def scale(self, start, end=None):
        """REFERENCE_TASK_S over the task's time in samples[start:end]: the
        mean of the fastest three quarters, since a sample that the kernel
        preempted reads several times slower than the machine runs."""
        window = sorted(self.samples[start:end])
        while len(window) < 5:  # too short a span: sample now
            window = sorted(window + [task_s()])
        return REFERENCE_TASK_S / statistics.fmean(window[:len(window) * 3 // 4])
