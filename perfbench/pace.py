"""Machine pace: how fast this CPU runs Python right now.

The 2-CPU boxes this benchmark runs on share their cores with other
tenants, and their speed drifts by up to 1.8x over seconds to minutes, the
same for every process.  Timings divided by the pace measured beside them
(``normalise``) report seconds at a fixed reference pace, so that a run in
a slow phase and a run in a fast phase of the machine read alike.

A pace sample times two fixed pure-Python loops that allocate no tracked
object and touch no preproj code, so no change to the program can change
them: an arithmetic loop, and a loop of byte reads spread over more memory
than the first-level cache holds.  The sample is their geometric mean with
weight MEM_SHARE on the reads; on series of rounds of both workloads that
tracked the program's slowdowns best (see README.md).  Workers sample the
pace between items, every SAMPLE_EVERY_S at most, and measure each item
against the samples around it (``Pace.around``); sampling costs about 2%
of a round, which no reported time includes.
"""
from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

SAMPLE_EVERY_S = 0.02
LOOP = 2500          # iterations of the arithmetic loop, about 0.25 ms
READS = 1500         # byte reads of the memory loop, about 0.1 ms
SPAN = 1 << 18       # bytes they are spread over: more than L1, less than L2
MEM_SHARE = 0.25
LOCAL = 5            # samples a time is measured against
# a sample's value in the fast phases of the 2-CPU box (Python 3.11.7) on
# which the benchmark was defined; normalised times are seconds at this pace
REFERENCE_S = 0.00017


def loop_kernel(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def read_kernel(buf: bytes, offsets: list[int]) -> int:
    total = 0
    for i in offsets:
        total += buf[i]
    return total


class Pace:
    """Pace samples of one process, with the time each was taken; ``spent``
    is the time they took."""

    def __init__(self):
        rng = random.Random(0)
        self.buf = bytes(range(256)) * (SPAN // 256)
        self.offsets = [rng.randrange(SPAN) for _ in range(READS)]
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and self.at and now - self.at[-1] < SAMPLE_EVERY_S:
            return
        loop_kernel(LOOP // 10)   # warm the loop after the program ran
        t0 = perf_counter()
        loop_kernel(LOOP)
        t1 = perf_counter()
        read_kernel(self.buf, self.offsets)   # bring the lines it reads into cache
        t2 = perf_counter()
        read_kernel(self.buf, self.offsets)
        t3 = perf_counter()
        self.at.append(t3)
        self.samples.append((t1 - t0) ** (1 - MEM_SHARE) * (t3 - t2) ** MEM_SHARE)
        self.spent += t3 - now

    def median(self) -> float:
        return statistics.median(self.samples)

    def around(self, t: float) -> float:
        """The pace near time t: the median of the LOCAL samples nearest to
        it, most of them taken before it.  The machine's speed changes
        within a round, so an item is measured against the pace of its own
        stretch of the round rather than the round's."""
        j = bisect.bisect_right(self.at, t)
        lo = max(0, min(j - LOCAL // 2 - 1, len(self.at) - LOCAL))
        return statistics.median(self.samples[lo:lo + LOCAL])


def normalise(seconds: float, pace_s: float) -> float:
    """Seconds at the reference pace."""
    return seconds * REFERENCE_S / pace_s
