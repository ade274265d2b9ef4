"""Machine-speed probe, so that times measure the program and not the host.

On a shared host, other tenants slow the whole CPU by up to 2x, in
stretches from seconds to minutes; the guest sees no steal time.  While the
probe is active, a timer signal runs a fixed slice of reference work every
``SAMPLE_EVERY_S`` of wall time and records how long the slice took.  The
slice is stdlib ``Fraction`` arithmetic, the same kind of work tatemirror
does, and no change to the package can make it faster.

``corrected`` turns a measured interval into seconds at the nominal speed,
at which one slice takes ``NOMINAL_SLICE_S``: the interval minus the time
the probe itself ran inside it, times the mean speed over the slices within
``WINDOW_S`` of the interval, a slice's speed being ``NOMINAL_SLICE_S`` over
its time.  The mean speed, not the median slice time, because the work done
in an interval is the integral of the speed over it.

The probe runs inside the pass, so it can only tell the host's speed while
the pass leaves it the CPU.  A pass that contends with the slice itself
(threads holding the GIL, child processes on the other core, or working
sets that evict the slice's cache lines) slows the slice and so has its
times scaled down.  ``idle_speed`` times the same slice when no pass runs,
so that ``run.py`` can compare it with the in-pass speed over the first and
last ``EDGE_WINDOW_S`` of the pass, and flag such a pass.
"""

from __future__ import annotations

import bisect
import gc
import signal
from array import array
from fractions import Fraction
from time import perf_counter

NOMINAL_SLICE_S = 200e-6  # one slice on an idle core of a 2.1 GHz Xeon (KVM guest)
SAMPLE_EVERY_S = 0.01
WINDOW_S = 0.1
EDGE_SAMPLES = 5  # taken before the first and after the last interval
IDLE_SAMPLES = 1000  # one idle_speed measurement, 0.2 s at the nominal speed
EDGE_WINDOW_S = 0.5  # the start and end of a pass, compared with idle_speed


def reference_slice():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i % 7 + 1)
    return s


def _timed_slice():
    # a collection inside the slice would time the program's garbage
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    reference_slice()
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return start, took


def idle_speed() -> float:
    """The mean speed of ``IDLE_SAMPLES`` slices run back to back."""
    return sum(NOMINAL_SLICE_S / _timed_slice()[1]
               for _ in range(IDLE_SAMPLES)) / IDLE_SAMPLES


class SpeedProbe:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def sample(self, *_):
        start, took = _timed_slice()
        self.at.append(start)
        self.took.append(took)

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def own_time(self, start: float, end: float) -> float:
        """Time the probe itself ran inside [start, end)."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return sum(self.took[lo:hi])

    def _mean_speed(self, lo: int, hi: int) -> float:
        return sum(NOMINAL_SLICE_S / t for t in self.took[lo:hi]) / (hi - lo)

    def mean_speed(self, start: float, end: float) -> float:
        """The mean speed of the slices in [start, end), or of the next one."""
        lo = bisect.bisect_left(self.at, start)
        return self._mean_speed(lo, max(lo + 1, bisect.bisect_left(self.at, end)))

    def corrected(self, start: float, end: float) -> float:
        """The interval's own time in seconds at the nominal speed."""
        n = len(self.at)
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        # at least two samples on each side, should the timer have been late
        lo = max(0, min(lo, bisect.bisect_left(self.at, start) - 2))
        hi = min(n, max(hi, bisect.bisect_right(self.at, end) + 2))
        return (end - start - self.own_time(start, end)) * self._mean_speed(lo, hi)
