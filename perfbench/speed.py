"""Machine-speed probe for timed passes.

On a shared 2-core virtual machine the CPU speed a process got was seen to
change by up to 2x from one second to the next and to drift by about 20 %
over minutes, which moves every wall time with it. While a pass runs, a
SIGALRM timer runs a fixed reference kernel (exact ``Fraction`` sums and
dict stores, the kind of work the program does) every ``INTERVAL_S``. The
kernel times measure the speed the pass got; ``scaled`` converts a time
span of the pass to a host on which the kernel takes ``REFERENCE_S``,
using the samples taken during and next to that span, because the speed
changes within a pass. The probe's own time is taken out of every reading
of ``clock``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_S = 0.0005


def _kernel() -> Fraction:
    total = Fraction(0)
    table = {}
    for i in range(1, 100):
        total += Fraction(1, i % 97 + 1)
        table[i % 31, i % 17] = total
    return total


class SpeedProbe:
    """Context manager sampling the reference kernel while a pass runs."""

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0 - self.spent)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def sample(self, count: int) -> None:
        """Take ``count`` samples now, outside a timed pass."""
        for _ in range(count):
            self._tick(None, None)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the probe so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, seconds: float, samples: list[float] | None = None) -> float:
        """``seconds`` at the reference speed, judged by ``samples`` (default: all)."""
        samples = samples or self.samples
        if not samples:
            return seconds
        return seconds * REFERENCE_S / statistics.fmean(samples)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` (readings of ``clock``) at the reference speed.

        Uses the samples taken within one interval of the span, or all
        samples when there are none that close.
        """
        lo = bisect.bisect_left(self.at, start - INTERVAL_S)
        hi = bisect.bisect_right(self.at, end + INTERVAL_S)
        return self.at_reference(end - start, self.samples[lo:hi])
