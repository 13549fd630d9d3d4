"""Timing that takes out the machine's own changes of speed.

On a small shared machine the speed of one core wanders by a quarter or
more within seconds (other tenants, frequency changes), so the median of a
run moves as much as a real regression would.  A ``Meter`` therefore
samples the machine's speed while it times a section: every INTERVAL
seconds a timer signal runs a short fixed calibration loop, and the
section's seconds, less the time spent in those loops, are scaled by

    NOMINAL / mean(calibration loop time)

A slower program raises the figure; a slower machine raises the raw time
and the loop times alike and leaves it unchanged.  NOMINAL is a loop's
typical time on the machine the reference figures in README.md come from,
so the figures read as seconds there.  The loops cost about 2 % of the
section's time.

The loops do the kinds of work biharm does: interpreted integer and
``Fraction`` arithmetic ("python"), float64 transcendental functions on
small arrays ("numpy"), or both ("mixed").  Python runs signal handlers
between bytecodes, so a loop waits for a long native call to return.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List, Tuple

import numpy as np

INTERVAL = 0.05
_X = np.linspace(0.1, 3.0, 2**12)


def _python_loop() -> None:
    s = 0
    for i in range(1, 800):
        s += Fraction(i % 97 + 1, i % 89 + 1).numerator + (i * i * i) % 7


def _numpy_loop() -> None:
    for _ in range(12):
        (1.0 + np.sin(_X) ** 2) ** -3.0


def _mixed_loop() -> None:
    _python_loop()
    _numpy_loop()


# kind -> (calibration loop, its nominal seconds)
LOOPS = {
    "python": (_python_loop, 0.001),
    "numpy": (_numpy_loop, 0.001),
    "mixed": (_mixed_loop, 0.002),
}


class Meter:
    """Speed-normalised seconds of the sections it times."""

    def __init__(self, kind: str):
        self.loop, self.nominal = LOOPS[kind]
        self.raw = 0.0
        self.normalised = 0.0
        self.sections: List[float] = []  # normalised seconds of each section

    def _sample(self) -> Tuple[float, float]:
        start = time.perf_counter()
        self.loop()
        return start, time.perf_counter() - start

    def time(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as one section."""
        samples: List[Tuple[float, float]] = []

        def on_alarm(signum, frame):
            samples.append(self._sample())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(d for s, d in samples if s < end)
        if not samples:  # shorter than one interval: sample just after
            samples.append(self._sample())
        raw = end - start - inside
        section = raw * self.nominal * len(samples) / sum(d for _, d in samples)
        self.raw += raw
        self.normalised += section
        self.sections.append(section)
        return result
