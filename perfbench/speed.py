"""The host's speed, sampled while the benchmark times work, and taken out of it.

The benchmark runs on a share of a host whose speed wanders: on the 2-vCPU
KVM Xeon it was tuned on, a fixed pure-Python loop timed for four minutes
had 30-second medians from 3.4 to 4.4 ms (quartile spread 22% of the
median), and a fixed, deterministic solve slowed and sped up with it.
Process CPU time drifts the same way, so it is no cure.  Scaled by this
module, the mean time of a fixed sequence of drift re-solves, over
15-second windows in one process, spread 5% instead of 11%.

:class:`SpeedMeter` runs :func:`kernel` (fixed work, a few milliseconds) from
a ``SIGALRM`` timer every :data:`PERIOD_S` seconds of timed work.  Python
runs the handler between bytecodes of the main thread, so samples fall
inside long operations too.  The time the handler takes is subtracted from
the operation it interrupted, and :meth:`SpeedMeter.factor` scales timings
to a host on which the kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

#: Seconds of timed work between two kernel samples.
PERIOD_S = 0.2

#: The kernel's mean time inside runs on the tuning host; timings are scaled to it.
REFERENCE_S = 0.0035

_VECTOR = np.linspace(0.5, 1.5, 200)
_MATRIX = np.eye(40) * 40.0 + np.outer(_VECTOR[:40], _VECTOR[40:80])


def kernel() -> float:
    """Fixed work mixing interpreted loops with small NumPy calls.

    The mix is the solver's: dictionary and float arithmetic in Python, and
    many short array operations with one small dense solve.
    """
    table: dict = {}
    for i in range(8000):
        table[i % 300] = table.get(i % 300, 0.0) + i * 0.5
    total = sum(table.values())
    for i in range(320):
        total += float((_VECTOR * 2.0 + i).sum())
    return total + float(np.linalg.solve(_MATRIX, _VECTOR[:40])[0])


class SpeedMeter:
    """Kernel samples taken during timed work, and the time they took."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        #: Kernel times, one per timer tick.
        self.samples: List[float] = []
        # (start, end) of every handler run, to subtract from timed work.
        self._ticks: List[Tuple[float, float]] = []
        self._remaining = period
        self._previous = None

    def sample(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._ticks.append((start, time.perf_counter()))

    def _tick(self, signum: int, frame: object) -> None:
        self.sample()

    def install(self) -> None:
        """Take the first sample and handle the timer's signal."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    def uninstall(self) -> None:
        """Stop the timer and put the previous handler back."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def timing(self) -> Iterator[List[float]]:
        """Time the block, sampling the kernel inside it.

        Yields a list that holds, after the block, its wall time minus the
        time the kernel samples took inside it.  The timer counts only time
        spent in such blocks, so samples spread evenly over the timed work.
        """
        result: List[float] = []
        first = len(self._ticks)
        signal.setitimer(signal.ITIMER_REAL, max(self._remaining, 1e-3), self.period)
        start = time.perf_counter()
        try:
            yield result
        finally:
            end = time.perf_counter()
            self._remaining = signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
            # A tick delivered between the two clock reads counts only for
            # the part of it that lies inside them.
            inside = sum(
                max(0.0, min(b, end) - max(a, start)) for a, b in self._ticks[first:]
            )
            result.append(end - start - inside)

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """Multiplier taking timings to the reference host, from samples ``first:last``."""
        return REFERENCE_S / statistics.fmean(self.samples[first:last])


@contextmanager
def stopwatch() -> Iterator[List[float]]:
    """Time the block by the wall clock alone, as :meth:`SpeedMeter.timing` does."""
    result: List[float] = []
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.append(time.perf_counter() - start)
