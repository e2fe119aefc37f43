"""Host speed, sampled while the benchmark runs, and times scaled by it.

The speed of a shared 2-vCPU VM (Python 3.11.7) changes in phases that
last from under a second to minutes: the same op took 0.06 s and 0.155 s
within two minutes, which swamps any bound a benchmark can set on raw
wall time.  ``Sampler`` times
a fixed pure-Python probe (exact fractions, tuple keys, a dict: the kind
of work mclie does) every INTERVAL seconds of wall time, from a SIGALRM
handler that runs in the main thread between bytecodes, so no thread or
process is started.  ``Sampler.scaled`` turns the wall time of an
interval into seconds at the reference speed: the time, less the probes
run inside it, times NOMINAL over the probes' mean duration near it.

The probe is part of the benchmark, not of mclie, so a change to mclie
cannot move it.  In a 150 s trial that alternated a similar probe with
short mclie ops, op times summed over 15 s blocks spread 37% raw and 3-4%
scaled.  The garbage collector is off during a probe: a collection
started there would scan mclie's heap and time mclie's memory, not the
host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.04  # s of wall time between probes
NOMINAL = 0.0015  # s: the probe's duration at the reference speed
PROBE_STEPS = 300
NEAR = 5  # an interval with fewer probes inside borrows the nearest ones

clock = time.perf_counter


def probe():
    table: dict = {}
    total = Fraction(0)
    for i in range(1, PROBE_STEPS):
        key = (i % 53, i * 7 % 11)
        total = Fraction(i % 13, i % 29 + 1) + table.get(key, 0)
        table[key] = total
    return total


class Sampler:
    """Context manager: probes every INTERVAL seconds while it is open.
    `on_probe`, if given, is called with each probe's duration."""

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.ends: list[float] = []  # when each probe ended
        self.durations: list[float] = []  # how long each probe took
        self.spent = 0.0  # all probe time so far

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        probe()
        t1 = clock()
        if enabled:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        if self.on_probe is not None:
            self.on_probe(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return clock(), self.spent

    def scaled(self, start: tuple[float, float], end: tuple[float, float]):
        """(seconds at the reference speed, raw seconds) from mark `start`
        to mark `end`, the probes inside left out."""
        (t0, spent0), (t1, spent1) = start, end
        raw = (t1 - t0) - (spent1 - spent0)
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < NEAR and (lo > 0 or hi < len(self.ends)):
            # widen towards the nearer neighbour
            if hi == len(self.ends) or (lo > 0 and t0 - self.ends[lo - 1] < self.ends[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no host-speed probes yet")
        return raw * NOMINAL / statistics.fmean(self.durations[lo:hi]), raw
