"""A fixed reference mix that measures how fast the machine runs right now.

The benchmark's machine shares its cores with other tenants and runs the
same Python-bound code at speeds up to 2x apart, switching within seconds.
Wall times taken over a whole run therefore follow the share of slow seconds
more than the code. The benchmark runs this mix between the operations it
times (outside their timed intervals) and divides each time by the machine's
speed at that moment: the mix's median time over the ticks nearest to it,
relative to ``REF_NS``. A reported time is thus "ms at reference speed".

The mix uses none of lahn's code, so a change to lahn cannot move it, and it
blends the kinds of work lahn's steps are made of: interpreter loops, small
numpy calls on 64-wide vectors, 16x64 @ 64x64 products and elementwise
passes that allocate 256 KB temporaries. On the machine the benchmark was
built on, over ten seeds with the machine between 1.2x and 2.2x slow, the
median step or request time at reference speed spread by 0.015-0.05 (first
to third quartile over the median) where the raw time spread by 0.17-0.26.

It draws no random numbers after construction and touches no lahn state,
so it cannot change what the benchmark measures.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from statistics import median

import numpy as np

# Nominal time of one tick of the mix, the "reference speed" that reported
# times are scaled to: about its median on the 2-core machine the benchmark
# was built on, so reported times read close to raw ones there.
REF_NS = 400_000
# A time is scaled by the median tick among the 2 * WINDOW ticks nearest it.
WINDOW = 8


class Reference:
    """Ticks of the reference mix: when each ran and how long it took."""

    def __init__(self):
        rng = np.random.default_rng(0x72656621)  # "ref!"
        self._w = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((16, 64))
        self._v = rng.standard_normal(64)
        self._big = rng.standard_normal((512, 64))
        self._g = rng.standard_normal((512, 64))
        self.starts: list[int] = []
        self.durations: list[int] = []

    def _mix(self) -> float:
        s = 0
        for i in range(1500):
            s += i * i % 7
        acc = float(s)
        v = self._v
        for _ in range(20):
            a = v * 2.0
            acc += float(np.dot(a, a + v))
        for _ in range(5):
            acc += float(np.maximum(self._x @ self._w, 0.0).sum())
        m = self._big * 0.9 + 0.1 * self._g
        acc += float((m / np.sqrt(m * m + 1e-8)).sum())
        return acc

    def tick(self) -> None:
        t0 = time.perf_counter_ns()
        self._mix()
        self.starts.append(t0)
        self.durations.append(time.perf_counter_ns() - t0)

    def tick_window(self) -> None:
        """WINDOW ticks in a row: one side of the window that speed() reads."""
        for _ in range(WINDOW):
            self.tick()

    def slowdowns(self) -> list[float]:
        """Every tick's time relative to the reference: >1 is slower."""
        return [d / REF_NS for d in self.durations]

    def speed(self, t_ns: int) -> float:
        """Machine speed around time ``t_ns`` relative to the reference: >1 is slower."""
        if not self.durations:
            raise ValueError("no reference tick was run")
        k = bisect_left(self.starts, t_ns)
        lo = max(0, k - WINDOW)
        hi = min(len(self.durations), k + WINDOW)
        return median(self.durations[lo:hi]) / REF_NS

    def scaled_ns(self, start_ns: int, end_ns: int) -> float:
        """The interval's length at reference speed."""
        return (end_ns - start_ns) / self.speed((start_ns + end_ns) // 2)

    def busy_ns(self, start_ns: int, end_ns: int, scaled: bool = True) -> float:
        """The interval's length less the ticks run inside it, at reference
        speed unless ``scaled`` is false.

        Each stretch between two ticks is scaled by the speed where it starts.
        """
        i = bisect_left(self.starts, start_ns)
        j = bisect_left(self.starts, end_ns)
        total = 0.0
        lo = start_ns
        for k in range(i, j + 1):
            hi = self.starts[k] if k < j else end_ns
            if hi > lo:
                total += (hi - lo) / (self.speed(lo) if scaled else 1.0)
            if k < j:
                lo = self.starts[k] + self.durations[k]
        return total
