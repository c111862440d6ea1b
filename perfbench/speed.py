"""Machine-speed calibration for the benchmark's time metrics.

The benchmark is meant for small shared virtual machines, whose CPU speed
can change by a factor of two from one minute to the next as other tenants
load the host.  On a 2-vCPU KVM guest, a fixed pure-Python loop took 22 ms
in one minute and 39 ms in another, and a deterministic report entry took
from 316 to 572 ms within one process.  Raw times of unchanged code then spread
by more than any useful bound.

So a fixed pure-Python kernel, which touches nothing in greenbox, is timed
between jobs (outside every job's timing).  Each job's time is scaled by
``REFERENCE_S`` over the median kernel time within ``HALF_WIDTH_S`` of the
job: the metrics read as seconds on a machine where the kernel takes
``REFERENCE_S``.  The window holds about 15 samples, enough that the noise of
single kernel samples does not reach the percentiles, and short enough to
follow the host's swings.  A change to greenbox moves the scaled times as it
moves the raw ones; a change in the machine's speed moves the kernel too and
cancels.  Raw times are kept in the result file beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Kernel time at reference speed: about its median time on the 2-vCPU host
# the benchmark was built on.
REFERENCE_S = 0.0025
# Kernel samples taken this long before a job starts or after it ends set
# its speed.
HALF_WIDTH_S = 1.0


def kernel() -> int:
    """Dictionary, tuple, list and small-call work, as greenbox does."""
    table: dict = {}
    order: list = []
    acc = 0
    for i in range(4500):
        key = (i & 63, (i >> 6) & 7)
        seen = table.get(key)
        if seen is None:
            table[key] = len(order)
            order.append(key)
        else:
            acc += _mix(seen, i)
    order.sort(key=lambda k: (k[1], k[0]))
    return acc + len(order)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 1023


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibration:
    """Kernel samples taken between jobs, with the times they ended."""

    def __init__(self):
        self.samples: list = []
        self.times: list = []
        self.tick()

    def tick(self) -> None:
        self.samples.append(sample())
        self.times.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Time factor for a job that ran from ``start`` to ``end``.  A
        sample is taken just before and just after every job, so the window
        is never empty."""
        lo = bisect.bisect_left(self.times, start - HALF_WIDTH_S)
        hi = bisect.bisect_right(self.times, end + HALF_WIDTH_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
