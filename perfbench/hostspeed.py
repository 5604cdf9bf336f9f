"""Host speed, sampled with a fixed reference kernel between ops.

On a small shared VM (2 vCPUs, Intel Xeon) the speed of the same Python
code switches between levels up to 2x apart, every ~0.1 s and over minutes.
Raw op times from two runs a few minutes apart differ there by 10-30%, more
than any bound a benchmark can set. So the timed pass runs a
fixed kernel, independent of xpay but made of the same kind of work (exact
rationals, frozen dataclasses, hashing, a heap, string formatting), every
`interval` seconds between ops. Each op's time is divided by the slowdown
the kernel saw around it: the median of the `NEAR` kernel times closest to
the op, over `NOMINAL_S`. Kernel time is excluded from every op time. Raw
host times are printed beside the scaled ones.
"""
from __future__ import annotations

import bisect
import heapq
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Mean kernel time on the reference host (a 2-vCPU Intel Xeon VM running
# Python 3.11) at its usual speed. It only sets the scale: scaled times read
# as times on that host.
NOMINAL_S = 0.0010
NEAR = 3


@dataclass(frozen=True)
class _Item:
    t: Fraction
    k: int
    name: str


def kernel() -> int:
    heap, seen = [], {}
    t = Fraction(0)
    for i in range(40):
        t += Fraction(i % 7 + 1, 4)
        item = _Item(t * Fraction(11, 10), i, f"p{i % 9}")
        heapq.heappush(heap, (item.t, i, item))
        seen[item] = f"t={item.t.numerator}/{item.t.denominator} k={item.k} n={item.name}"
    out = []
    while heap:
        _, _, item = heapq.heappop(heap)
        out.append(seen[item])
    return len("\n".join(out))


class HostSpeed:
    """Kernel samples spread evenly in time over a pass."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.times: list[float] = []    # midpoint of each sample, ascending
        self.samples: list[float] = []  # seconds one kernel run took
        self.spent = 0.0                # seconds spent sampling, timing included
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)
        self._last = time.perf_counter()
        self.spent += self._last - start

    def tick(self) -> None:
        """Sample if `interval` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def slowdown(self) -> float:
        """Mean kernel time over nominal: 2 means the host ran at half speed."""
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples) / NOMINAL_S

    def around(self, t: float) -> float:
        """Slowdown at perf_counter time `t`, from the samples nearest to it."""
        if not self.samples:
            self.sample()
        i = bisect.bisect_left(self.times, t)
        window = range(max(0, i - NEAR), min(len(self.times), i + NEAR))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - t))[:NEAR]
        return statistics.median(self.samples[j] for j in nearest) / NOMINAL_S
