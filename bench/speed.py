"""Wall time scaled to a fixed machine speed.

On a shared host the speed of one core swings between regimes that last a
few seconds. On the reference host (2 vCPUs of an Intel Xeon, shared with
other tenants) the slow regime is 30 % to 55 % slower, and the wall time of
one 40-second build varied by as much from run to run. So the benchmark
samples the speed while it measures: a SIGALRM handler, running in the one
thread between bytecodes, times a fixed loop of small numpy operations
every PERIOD_S seconds. That is the kind of work kbforge's autodiff tape
does: over 60 seconds of regime changes, the loop's speed tracked a BiLSTM
forward and backward with correlation 0.99 (a pure-Python integer loop:
0.87).

Times are reported in reference seconds: no reference time passes while
the handler runs, and between samples it passes at REFERENCE_LOOP_S over
the last sample's loop time per second. A reference second is a second on
a machine that runs the loop in REFERENCE_LOOP_S, the reference host's fast
regime. The loop is the benchmark's own code, so a change to kbforge cannot
move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

LOOP_STEPS = 100
REFERENCE_LOOP_S = 0.32e-3
PERIOD_S = 0.02  # the loop costs under 2 % of the measured time

_X = np.full((24, 1), 0.5, dtype=np.float32)
_W = np.full((48, 24), 0.01, dtype=np.float32)


def _loop() -> None:
    for _ in range(LOOP_STEPS):
        h = _W @ _X
        g = np.tanh(h)
        z = np.zeros_like(g)
        z += g


class SpeedSampler:
    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.loops.append(t1 - t0)
        self.spent.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def reference_clock(self):
        """A function from a perf_counter value to reference seconds since the
        first sample. No reference time passes while the handler runs; after
        sample k it passes at REFERENCE_LOOP_S / (loop time of sample k) per
        second, and before the first sample at the first sample's rate."""
        if not self.starts:
            return lambda t: t
        starts, ends = self.starts, [s + d for s, d in zip(self.starts, self.spent)]
        rates = [REFERENCE_LOOP_S / loop for loop in self.loops]
        marks = [0.0]
        for k in range(len(starts) - 1):
            marks.append(marks[k] + max(starts[k + 1] - ends[k], 0.0) * rates[k])

        def clock(t: float) -> float:
            k = bisect.bisect_right(starts, t) - 1
            if k < 0:
                return (t - starts[0]) * rates[0]
            return marks[k] + max(t - ends[k], 0.0) * rates[k]
        return clock

    def reference_seconds(self, start: float, end: float) -> float:
        """[start, end] (perf_counter values) in reference seconds."""
        clock = self.reference_clock()
        return clock(end) - clock(start)

    def slowdown(self) -> float:
        """Mean loop time over the reference, across the whole run."""
        return statistics.mean(self.loops) / REFERENCE_LOOP_S if self.loops else 1.0
