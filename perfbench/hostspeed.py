"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by 20-50% over seconds to minutes, in CPU time as well as wall time:
the same compile, repeated, takes 9 ms in one stretch and 15 ms in
the next. So every timed compile or request is bracketed by short runs
of a fixed probe -- a pure-Python loop that allocates nothing the
garbage collector tracks, and calls nothing of the program -- and its
time is scaled by ``REFERENCE_PROBE_SECONDS / probe seconds`` measured
around it. A scaled time is in *reference milliseconds* (``ref-ms``).
The program cannot change the probe's speed, so a change that makes
compiles faster or slower moves the scaled time just as much, while
host drift mostly cancels.

Usage: call ``tick()`` between timed items (it probes at most every
``INTERVAL_SECONDS``), record each item's ``perf_counter`` start and
end, call ``tick(force=True)`` after the last one, then ``scaled()``.
The probe shares the interpreter lock with every thread of the
process, so ``settle`` lets other threads finish before it runs.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: about the probe's time on a shared 2-vCPU x86-64 host, where it
#: ranged 0.65-1.35 ms with the host's load; it only sets the scale of
#: ``ref-ms``, never a ratio between runs
REFERENCE_PROBE_SECONDS = 0.00075

#: loop iterations of one probe
PROBE_ITERATIONS = 4000

#: at most one burst of probes per interval: the host's speed changes
#: over hundreds of milliseconds, and a burst costs about 2 ms
INTERVAL_SECONDS = 0.04

#: probes per burst, so that one interrupted probe is outvoted
BURST = 3

_TABLE = {key: key for key in range(1024)}


def _probe() -> float:
    """Seconds of one fixed, allocation-free pure-Python loop."""
    table = _TABLE
    acc = 0
    started = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        key = (i * 7) & 1023
        value = table[key] + i
        table[key] = value & 0xFFFF
        acc ^= value
    return time.perf_counter() - started


class HostSpeed:
    """Probe the host's speed through a run; scale timings by it."""

    def __init__(self, settle: float = 0.0) -> None:
        self.settle = settle
        self.at: List[float] = []        # probe end times, ascending
        self.seconds: List[float] = []   # probe durations
        self._burst()

    def _burst(self) -> None:
        for _ in range(BURST):
            seconds = _probe()
            self.at.append(time.perf_counter())
            self.seconds.append(seconds)

    def tick(self, force: bool = False) -> None:
        """Probe if ``INTERVAL_SECONDS`` has passed since the last
        probe, or if ``force``."""
        if force or time.perf_counter() - self.at[-1] >= INTERVAL_SECONDS:
            if self.settle:
                time.sleep(self.settle)
            self._burst()

    def probe_seconds(self, start: float, end: float) -> float:
        """Median probe time around ``[start, end]``: the probes within
        ``INTERVAL_SECONDS`` of it, and at least the last burst before
        ``start`` and the first burst after ``end``."""
        before = bisect.bisect_left(self.at, start)
        after = bisect.bisect_right(self.at, end)
        low = min(bisect.bisect_left(self.at, start - INTERVAL_SECONDS),
                  max(before - BURST, 0))
        high = max(bisect.bisect_right(self.at, end + INTERVAL_SECONDS),
                   min(after + BURST, len(self.at)))
        return statistics.median(self.seconds[low:high])

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds."""
        return ((end - start) * REFERENCE_PROBE_SECONDS
                / self.probe_seconds(start, end))

    def factor(self) -> float:
        """Median probe time over the run, relative to the reference."""
        return statistics.median(self.seconds) / REFERENCE_PROBE_SECONDS
