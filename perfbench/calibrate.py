"""Machine-speed calibration: job times scaled to a reference speed.

The shared VM the benchmark was built on changes speed by up to 35 % for
seconds to minutes at a time, and CPU time follows wall time exactly, so
no clock of the process's own hides the change.  A fixed calibration
body, in the mix of work the package does (``Fraction`` arithmetic,
complex exponentials, small numpy arrays, tuple-keyed dicts), is timed
every quarter second, in the middle of jobs too, and each job's time is
scaled by the slices taken around it (see ``Clock``).  A scaled time is
what the job would have taken on the VM at the speed where a slice takes
``NOMINAL_S``; raw times are printed next to it.

The calibration body does not touch the package, so a change to the
package moves scaled times exactly as much as raw ones.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# median slice time on the shared 2-core x86_64 Xeon VM (Python 3.11.7,
# numpy 2.4.6) where the benchmark was defined
NOMINAL_S = 0.0033
# seconds between two slices
SLICE_EVERY_S = 0.25
_REPEATS = 3


def _body():
    s = Fraction(0)
    z = 0j
    for i in range(1, 150):
        s += Fraction(1, i) * Fraction(i + 1, 2 * i + 3)
        z += cmath.exp(2j * math.pi * float(s % 1))
    a = np.linspace(0.0, 1.0, 32)
    for _ in range(20):
        a = np.abs(np.exp(2j * np.pi * a)) * 0.5 + a * 0.5
    d: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    return z, a, d


def slice_seconds() -> float:
    """Median time of a few runs of the calibration body."""
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _body()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times a sequence of jobs and scales each to the reference speed.

    Inside ``with Clock() as clock:`` a timer interrupts whatever runs
    every ``SLICE_EVERY_S`` seconds to take a calibration slice, so a long
    job is sampled all along, not only at its ends.  Wrap each job in
    ``clock.begin()`` / ``clock.end()``.  On exit, ``raw`` holds each job's
    time less the slices taken during it, and ``scaled`` that time times
    ``NOMINAL_S`` over the mean of the slices taken during the job and
    the one just before and just after it.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.slices: list[float] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._jobs: list[tuple[float, float]] = []
        self._previous = None

    def _take(self, *_) -> None:
        # as a signal handler this runs between two bytecodes of the job,
        # never across one of the clock reads below
        self._starts.append(perf_counter())
        self.slices.append(slice_seconds())
        self._ends.append(perf_counter())

    def __enter__(self) -> Clock:
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        for t0, t1 in self._jobs:
            first = bisect.bisect_left(self._starts, t0) - 1
            last = bisect.bisect_left(self._starts, t1)
            taken = sum(self._ends[i] - self._starts[i] for i in range(first + 1, last))
            raw = t1 - t0 - taken
            self.raw.append(raw)
            self.scaled.append(raw * NOMINAL_S / statistics.fmean(self.slices[first:last + 1]))

    def begin(self) -> None:
        self._t0 = perf_counter()

    def end(self) -> None:
        self._jobs.append((self._t0, perf_counter()))
