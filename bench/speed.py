"""Host speed calibration for wall-time measurements.

The benchmark host is shared: identical pure-Python work runs up to about
twice as slow at times, in phases lasting from a tenth of a second to
minutes, and CPU time inflates with wall time (the process is not
descheduled; it runs slower).  Raw op times of one seeded input therefore
vary by half between consecutive runs.

A fixed loop of ``Fraction`` arithmetic -- the same interpreter-bound,
allocation-heavy mix invar spends its time in -- is timed before every op,
and every ``INTERVAL_S`` during set-up and inside the ops of untraced passes
(from a SIGALRM handler).  Each op's wall time, minus the time spent
calibrating, is scaled by ``NOMINAL_S / mean(calibration times around and
during the op)``: the time the op would take at the host's unloaded speed.  A small-int loop
tracks the slowdown poorly; the ``Fraction`` loop brings the spread of
summed op time for one input from 50% down to 3%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

ITERATIONS = 200
# calibration loop time at the unloaded speed of a 2-core Xeon host; only
# the unit of the scaled times depends on it
NOMINAL_S = 0.75e-3
# sampling every 10 ms rather than 50 ms halved the run-to-run spread of
# one input's p50 and p90; each sample costs about a tenth of the interval
INTERVAL_S = 0.01

_clock = time.perf_counter


def calibrate():
    """Seconds the fixed Fraction loop takes now (garbage collection held)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = Fraction(1, 3)
        s = Fraction(0)
        start = _clock()
        for i in range(ITERATIONS):
            s += x * Fraction(i % 7 + 1, i % 5 + 1)
        return _clock() - start
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Calibration samples of one process, on the ``perf_counter`` clock."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        start = _clock()
        d = calibrate()
        self.times.append(start)
        self.durations.append(d)
        self.spent += _clock() - start
        self._busy = False

    def start_periodic(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_periodic(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_factor(self):
        """Slowdown over every sample taken."""
        return sum(self.durations) / len(self.durations) / NOMINAL_S

    def factor(self, start, end):
        """Slowdown over [start, end]: mean calibration time of the samples
        from the last one before ``start`` to the first one after ``end``,
        over ``NOMINAL_S``."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end) + 1
        window = self.durations[lo:hi]
        return sum(window) / len(window) / NOMINAL_S
