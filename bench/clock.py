"""Machine-speed calibration of the benchmark's times.

On a shared host the speed available to one process drifts, by up to a
factor of two within minutes on a 2-vCPU VM.  So every process that times the
program also times a fixed loop of pure-Python ``Fraction`` arithmetic, the
kind of work ``hcfam`` spends its time on, between the intervals it times (at
most about once a second).  Reported times are *reference seconds*: measured
seconds scaled by ``REFERENCE_S / loop time``, what the time would have been
had the loop taken ``REFERENCE_S``.  Of the two loops around an interval the
faster one is used, since a slow loop is more often a short burst of
contention than a change of regime.  The loop does not use ``hcfam``, so a
change to the program moves the measured times and not the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Loop time that defines the reference second: about the loop's time on an
#: idle 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_S = 0.05

LOOP_ITERATIONS = 6000


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of Fraction arithmetic."""
    t0 = time.perf_counter()
    for i in range(LOOP_ITERATIONS):
        a = Fraction(i % 97 + 1, i % 13 + 1)
        b = Fraction(i % 7 + 1, i % 11 + 2)
        (a * b - a / b + a) * b
    return time.perf_counter() - t0


class Calibrator:
    """Calibration loops between the timed requests (or set-ups) of a run,
    at most one per ``every_s`` seconds."""

    def __init__(self, every_s: float = 1.0):
        self.every_s = every_s
        self.loops = []  # (index of the request that follows, loop seconds)
        self.requests = 0
        self.last = None

    def before_request(self) -> None:
        if self.last is None or time.perf_counter() - self.last >= self.every_s:
            self.loops.append((self.requests, calibration_loop()))
            self.last = time.perf_counter()
        self.requests += 1

    def finish(self) -> None:
        self.loops.append((self.requests, calibration_loop()))

    def reference(self, times):
        """Reference seconds of ``times[i]``, the time of request i."""
        out, j = [], 0
        for i, t in enumerate(times):
            while self.loops[j + 1][0] <= i:
                j += 1
            out.append(t * REFERENCE_S / min(self.loops[j][1], self.loops[j + 1][1]))
        return out
