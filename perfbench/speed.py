"""Wall time corrected for the speed the machine ran at.

The reference machine (a 2-core VM shared with other guests) does not
run at one speed. A fixed pure-Python loop flips between a fast and a
slow state, up to about twice as slow, several times a second, and the
share of slow moments changes from minute to minute: two runs of
identical work took up to twice as long as each other, far beyond every
metric's bound.

A :class:`SpeedProbe` times that loop (:func:`probe_work`) every
``EVERY_S`` of wall time, from a ``SIGALRM`` handler in the measured
process itself, so it samples the machine at the same moments as the
work it corrects. A timed interval is then multiplied by the probe's
mean speed near it, raised to ``EXPONENT`` (``scale``): the result is
the time the interval would have taken on a machine where the loop
takes ``REFERENCE_S``. The loop does not call the system under test, so
a change to the system moves the corrected times exactly as it moves
the work.

Time spent in the handler is left out of every interval: the clock that
intervals are read from (``now``) stops while a probe runs.
"""

import bisect
import gc
import math
import signal
import time
from typing import Callable, List

#: Wall seconds between probes.
EVERY_S = 0.05
#: Probes up to this many seconds before the start or after the end of
#: an interval count towards its speed; a short call sees about 20.
WINDOW_S = 0.5
#: ``probe_work``'s time on the reference machine in its fast state, so
#: corrected times read close to that state's wall times.
REFERENCE_S = 0.0005
#: How the system's own time follows the loop's: work that takes ``t`` at
#: speed 1 takes about ``t / speed ** EXPONENT`` at ``speed``. The system
#: slows less than the loop. Over 32 runs at mean speeds from 0.38 to
#: 0.89, times corrected with exponent 1 still went as the speed to the
#: power 0.14-0.33, across every timing metric of every workload.
EXPONENT = 0.8

_WORDS = ("revenue", "product", "shipment", "review", "customer", "quarter",
          "returns", "category", "supplier", "warehouse", "discount", "order")


def probe_work() -> int:
    """The fixed loop: string slicing, case mapping and dict updates, the
    operations the system's own hot paths are made of."""
    counts = {}
    for i in range(2000):
        word = _WORDS[i % len(_WORDS)]
        key = word[:3 + i % 5]
        counts[key] = counts.get(key, 0) + len(word.upper())
    return len(counts)


class SpeedProbe:
    """Samples the machine's speed while it is active (``with probe:``).

    ``times`` holds each probe's start on the ``now`` clock and
    ``speeds`` its speed, ``REFERENCE_S`` over its duration.
    """

    def __init__(self, work: Callable[[], object] = probe_work,
                 every_s: float = EVERY_S,
                 clock: Callable[[], float] = time.perf_counter):
        self._work = work
        self._every_s = every_s
        self._clock = clock
        self._paused = 0.0
        self._probing = False
        self._previous_handler = None
        self.times: List[float] = []
        self.speeds: List[float] = []

    def now(self) -> float:
        """Seconds on a clock that stands still while a probe runs."""
        while True:
            paused = self._paused
            reading = self._clock()
            if paused == self._paused:  # no probe ran in between
                return reading - paused

    def sample(self, *_signal) -> None:
        """Run the loop once and record its speed (also the signal
        handler). A signal that arrives during a probe is ignored."""
        if self._probing:
            return
        self._probing = True
        collecting = gc.isenabled()
        gc.disable()  # the system's heap must not slow the loop
        try:
            started = self._clock()
            self._work()
            took = self._clock() - started
            self.times.append(started - self._paused)
            self.speeds.append(REFERENCE_S / took)
            self._paused += self._clock() - started
        finally:
            if collecting:
                gc.enable()
            self._probing = False

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self._every_s, self._every_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def scale(self, start: float, end: float) -> float:
        """The factor for an interval: the mean probe speed from
        ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end`` (times
        on the ``now`` clock), raised to ``EXPONENT``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise ValueError("no probe within %.2f s of [%.3f, %.3f]"
                             % (WINDOW_S, start, end))
        return (math.fsum(self.speeds[lo:hi]) / (hi - lo)) ** EXPONENT

    @property
    def mean_speed(self) -> float:
        """Mean speed over every probe, 1.0 at the reference speed."""
        return math.fsum(self.speeds) / len(self.speeds)
