"""Wall time scaled to a nominal host speed.

The benchmark shares a small host with other work, whose load makes the
same Python code run up to twice as slowly for tens of seconds at a time.
While a ``HostClock`` is running, a SIGALRM timer interrupts the program
every ``PERIOD`` seconds and times ``reference()``, a fixed piece of
pure-Python work of the kind the library does (integer, Fraction, tuple and
dict operations).  ``scaled(a, b)`` takes the wall time between two marks,
removes the time spent in those interruptions, and multiplies it by
``NOMINAL / reference time`` around that interval, with the reference time
taken as a median over a window of samples.  A change to the library moves
the scaled time; a slower host moves both the library and the reference
and leaves it nearly unchanged.

The process must not use SIGALRM for anything else while the clock runs.
"""

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
# Median duration of ``reference()`` on an idle 2-vCPU Intel Xeon host with
# Python 3.11; it only fixes the scale of the reported times.
NOMINAL = 3.0e-4
# Reference samples within this many seconds of an interval set its speed.
WINDOW = 0.5
BUCKET = 0.25


def reference():
    acc = 0
    frac = Fraction(1, 3)
    table = {}
    for i in range(600):
        acc = (acc * 31 + i * i) % 1000003
        table[i & 63] = (acc, i)
        if i % 40 == 0:
            frac = (frac * 3 + 1) / 7
    return acc, frac, table


class HostClock:
    def __init__(self):
        self.times = []  # start of each reference sample
        self.durations = []
        self.interrupted = 0.0  # seconds spent in the handler so far
        self._factors = {}

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.interrupted += t1 - t0

    def start(self):
        self._sample(None, None)  # so that even the first interval has one
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point in time: (wall seconds, handler seconds so far)."""
        return perf_counter(), self.interrupted

    def _factor(self, bucket):
        """NOMINAL / median reference time near one time bucket."""
        if bucket in self._factors:
            return self._factors[bucket]
        mid = (bucket + 0.5) * BUCKET
        lo = bisect.bisect_left(self.times, mid - WINDOW)
        hi = bisect.bisect_right(self.times, mid + WINDOW)
        near = self.durations[lo:hi]
        if not near:  # a long uninterruptible call: widen to all samples
            near = self.durations
        factor = NOMINAL / statistics.median(near)
        if mid + WINDOW < self.times[-1]:  # no later sample can join it
            self._factors[bucket] = factor
        return factor

    def scaled(self, a, b):
        """Scaled seconds between marks ``a`` and ``b``."""
        (wa, ia), (wb, ib) = a, b
        own = (wb - wa) - (ib - ia)
        if wb <= wa:
            return 0.0
        first, last = int(wa // BUCKET), int(wb // BUCKET)
        weighted = 0.0
        for bucket in range(first, last + 1):
            overlap = min(wb, (bucket + 1) * BUCKET) - max(wa, bucket * BUCKET)
            weighted += overlap * self._factor(bucket)
        return own * weighted / (wb - wa)
