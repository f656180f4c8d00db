"""Solve times scaled to a fixed host speed, sampled while the solve runs.

On a shared VM each virtual core flips, every few seconds, between a fast
state and one about 1.7 times slower, as other tenants load the physical
core under it; CPU time moves with wall time, so this is not time spent
descheduled. The same solve of the same seed then takes 2.2 s or 3.7 s,
and a 20 s run's median moves by 20% from one run to the next.

``Speedometer`` therefore times a small fixed kernel, which never changes
with the program, on a timer signal every ``period_s`` seconds while a solve
runs. Each stretch of the solve between two kernel samples is scaled by
``REF_SECONDS`` over the mean of those two samples, and the stretches are
summed: the solve time on a host that runs the kernel in ``REF_SECONDS``.
The kernel's own time is left out of both the wall and the scaled time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# The kernel's time on an uncontended core of a 2-core x86 VM (Python 3.11,
# numpy 2.4), so that scaled times read as solve seconds on that core. It
# must stay fixed once baselines exist.
REF_SECONDS = 0.0013


def kernel() -> None:
    """About 1-2 ms of tuple-keyed dict updates, float math and numpy."""
    table: dict = {}
    x = 0.0
    for i in range(3000):
        key = (i & 7, i & 255)
        table[key] = table.get(key, 0.0) + math.sqrt(i + x)
        x = x * 0.5 + 1e-3
    a = np.linspace(0.1, 1.0, 8)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 0.9


def kernel_seconds(repeats: int) -> float:
    """Median time of ``repeats`` kernel runs made now."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled_seconds(t0: float, t1: float,
                   refs: list[tuple[float, float]]) -> float:
    """Scaled time of the interval ``[t0, t1]`` from kernel samples.

    ``refs`` holds each sample's ``(start, end)``: the first ends at or
    before ``t0``, the rest lie inside the interval. The stretch between two
    samples is scaled by the mean of their durations, the stretch after the
    last sample by that sample's duration alone.
    """
    durations = [end - start for start, end in refs]
    bounds = [t0] + [x for start, end in refs[1:] for x in (start, end)]
    bounds.append(t1)
    total = 0.0
    for i in range(len(refs)):
        stretch = bounds[2 * i + 1] - bounds[2 * i]
        speed = (durations[i] if i + 1 == len(refs)
                 else (durations[i] + durations[i + 1]) / 2.0)
        total += stretch / speed
    return total * REF_SECONDS


class Speedometer:
    """Samples the kernel on ``SIGALRM`` every ``period_s`` during a solve."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.refs: list[tuple[float, float]] = []
        self._t0 = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.refs.append((start, time.perf_counter()))

    def start(self) -> None:
        self.refs = []
        self._sample()                  # the speed just before the solve
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; return the solve's wall and scaled seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        # A tick already due when the timer stopped may run after ``t1``.
        self.refs = [ref for ref in self.refs if ref[1] <= t1]
        in_solve = sum(end - start for start, end in self.refs[1:])
        return t1 - self._t0 - in_solve, scaled_seconds(self._t0, t1,
                                                        self.refs)
