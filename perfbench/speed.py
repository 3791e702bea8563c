"""A probe of how fast this core currently runs Python code.

A shared machine's speed drifts with its neighbours' load: on a 2-vCPU
Intel Xeon container a fixed pure-Python loop took anywhere from 1.0 to 1.6
times its fastest time, in spells of tens of seconds.  That drift dwarfs most
changes worth measuring, so the benchmark divides each timing by the slowdown
the probe saw while it was taken.  The correction is partial: code that waits
on memory more than this loop does slows less under the same load.

Every INTERVAL_S a SIGALRM handler times LOOP iterations of a fixed loop.
The slowdown over a stretch of time is the median of those loop times divided
by REF_S, the loop's time on an unloaded core of that Xeon under Python 3.11.
Interval timers are not inherited across fork, so subprocesses never receive
the signal.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.05
LOOP = 2000
REF_S = 1.25e-4
MIN_SAMPLES = 10
CAPACITY = 1 << 18


class SpeedProbe:
    """Context manager that samples the loop time while it is open."""

    def __init__(self):
        # Preallocated, so that sampling never grows a heap block between
        # the program's large allocations and moves the peak RSS.
        self._samples = array("d", bytes(8 * CAPACITY))
        self._count = 0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        if self._count == CAPACITY:
            raise RuntimeError("speed probe sample buffer is full")
        self._samples[self._count] = time.perf_counter() - start
        self._count += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return self._count

    def loop_times(self, since: int) -> list[float]:
        """The loop times sampled since ``mark()`` returned ``since``.  A
        stretch too short to hold MIN_SAMPLES is topped up with samples taken
        now: the drift is slow enough for adjacent samples to stand in."""
        while self._count - since < MIN_SAMPLES:
            self._tick(None, None)
        return self._samples[since : self._count].tolist()

    def slowdown(self, since: int) -> float:
        """Slowdown over the samples taken since ``mark()`` returned ``since``."""
        return slowdown(self.loop_times(since))


def slowdown(loop_times: list[float]) -> float:
    return statistics.median(loop_times) / REF_S
