"""Host-speed calibration: timings scaled to a host of fixed speed.

The benchmark runs on a few vCPUs of a shared host.  On the 2-vCPU Xeon
VM the baseline was taken on, the same pure-Python loop took anywhere
from 58 to 98 ms within a minute, in stretches of seconds, and its CPU
time moved with its wall time, so the host ran slower for a while rather
than descheduling the process.
The program's ops slowed down with it, and the median op time of runs
minutes apart moved by a third.  Longer runs do not average out a slow
stretch that lasts minutes.

So the process that times the ops also times a fixed reference kernel
(a short pure-Python loop and a small numpy expression, independent of
the program) between them, outside the timed calls.  Each timing is
divided by the kernel's median time in a window around it and multiplied
by REF_S, the kernel's median time on the host the baseline was taken
on.  The result is still in seconds: the time the op would have taken
had the host run at its reference speed.  A change to the program does
not touch the kernel, so it shows in full; only the host's speed is
divided out.  The raw wall times are recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy

# Median time of one kernel() call on the baseline host (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6).
REF_S = 160e-6

# Kernel samples within this many seconds of an op's start or end set its
# host speed.
WINDOW_S = 0.5

_DATA = numpy.arange(1 << 14, dtype=float)


def kernel() -> float:
    total, table = 0.0, {}
    for i in range(300):
        key = i % 17
        table[key] = table.get(key, 0.0) + i * 0.5
        total += float(i) ** 0.5
    return total + len(str(table)) + float(numpy.sqrt(_DATA * _DATA + 1.0).sum())


class HostSpeed:
    """Kernel timings taken between ops; scales op times to REF_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, seconds: float) -> None:
        """Time kernel() back to back for about `seconds`, at least once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while True:
                t0 = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t0
                self.starts.append(t0)
                self.times.append(dt)
                spent += dt
                if spent >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference host speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        near = self.times[lo:hi] or self.times[max(0, lo - 1):lo + 1]
        return seconds * REF_S / statistics.median(near)


def summary(times: list[float]) -> dict:
    """Spread of kernel timings, for the run record."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"kernel_samples": len(times), "kernel_s_median": median,
            "kernel_s_q1": q1, "kernel_s_q3": q3, "ref_s": REF_S, "window_s": WINDOW_S}
