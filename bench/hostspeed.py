"""Measuring time at a reference host speed.

On a shared host a fixed piece of pure-Python work can run at half
speed for tens of seconds while a neighbour is busy, and process CPU
time slows down with it, so no choice of clock hides it.  The benchmark
therefore times a fixed probe (Fraction arithmetic, tuple sorting and
dict updates, the kinds of work spineforms does) again and again while
it measures, and counts time at NOMINAL_S over the probe's time at that
moment.  The ratio of an operation's time to the probe's holds steady
to a few percent while both swing by a factor of two.

Both the probe and the work are timed in CPU time of the calling
thread, not wall time.  When another process shares the core, the
scheduler hands out slices of a few milliseconds: a wall-clock probe of
2 ms mostly runs inside one slice and reads fast while the work around
it waits for its turn.  With two busy processes beside formal-words on
a 2-core host, its scaled wall-clock times read 1.4-1.5x slow; scaled
CPU times read within 4% of an idle run.  In CPU time both the probe
and the work leave out the waits, and only the slowdown of the core
itself is scaled away.  The benchmark is single-threaded and, apart
from reading the package's files when it is imported, waits on nothing
while it times, so CPU time is the whole of its cost.

Reported times are thus CPU seconds on a host where the probe takes
NOMINAL_S.  The probe must never change: changing it changes every
figure the benchmark reports.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import thread_time

NOMINAL_S = 0.002  # the probe's time on an unloaded core of the reference host
INTERVAL_S = 0.02  # Clock probes this often


def probe() -> float:
    """CPU seconds taken by the fixed probe work."""
    t0 = thread_time()
    x = Fraction(1, 3)
    acc: dict[tuple, int] = {}
    for i in range(300):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 2)
        key = tuple(sorted(((i % 7, "a"), (i % 5, "b"), (i % 3, "c"))))
        acc[key] = acc.get(key, 0) + i
    return thread_time() - t0


def scale_now(reps: int = 5) -> float:
    """Factor that turns a CPU time measured right now into reference
    seconds."""
    return NOMINAL_S / statistics.median(probe() for _ in range(reps))


class Clock:
    """CPU seconds of this thread at the reference host speed, read as
    ``clock()``.

    A timer signal runs the probe every INTERVAL_S, also in the middle
    of a long operation, and the clock stands still while it does.
    Between probes the clock runs at the speed the median of the last
    three probes gave.  The host's speed changes from one tenth of a
    second to the next, so the probe only corrects for it when it runs
    close in time to the work it scales.  Call ``stop`` when done.
    """

    def __init__(self):
        self.probes = [probe() for _ in range(3)]
        self.factor = NOMINAL_S / statistics.median(self.probes)
        self.total = 0.0
        self.ticks = 0
        self.mark = thread_time()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __call__(self) -> float:
        while True:  # read again if a tick came in between
            ticks = self.ticks
            now = self.total + (thread_time() - self.mark) * self.factor
            if ticks == self.ticks:
                return now

    def _tick(self, signum, frame) -> None:
        self.total += (thread_time() - self.mark) * self.factor
        self.probes.append(probe())
        self.factor = NOMINAL_S / statistics.median(self.probes[-3:])
        self.mark = thread_time()
        self.ticks += 1

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
