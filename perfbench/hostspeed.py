"""Host-speed calibration interleaved with the timed instances.

On a shared machine the speed of the same code drifts, on time scales from
under a second to minutes: on the 2-core x86_64 sandbox this benchmark was
written on, one unchanged day-tariff solve took 0.64 s to 1.15 s within a
single minute, with CPU time equal to wall time, so the drift is the host and
not waiting.  Unscaled medians of runs minutes apart differed by 20-40 %.

A fixed calibration kernel, independent of besched, runs every quarter of a
second between instances.  Each instance's wall time is scaled by the
kernel's nominal time over the mean of the two kernel samples around it, so
a reported time reads as seconds on the host at nominal speed.  The raw
times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Kernel time taken as nominal speed: the middle of the 0.022-0.035 s
# range it read on the machine above.
NOMINAL_S = 0.03
# Wall time between two calibration samples.
EVERY_S = 0.25


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.0, 1.0, (100, 200))
        self._b = self._a.sum(axis=1) * 0.5
        self._c = -rng.uniform(0.0, 1.0, 200)
        self.samples: list = []  # (midpoint time, kernel seconds), in time order
        self._kernel()  # the first call pays scipy's lazy set-up

    def _kernel(self) -> float:
        """The same mix as besched's work: a HiGHS LP through scipy, then
        interpreted dict arithmetic, in about equal parts."""
        t0 = time.perf_counter()
        linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0.0, 1.0), method="highs")
        acc: dict = {}
        for i in range(50_000):
            acc[i % 997] = acc.get(i % 997, 0.0) + i * 0.5
        return time.perf_counter() - t0

    def sample(self) -> None:
        t0 = time.perf_counter()
        d = self._kernel()
        self.samples.append((t0 + d / 2.0, d))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that turns a wall time measured at ``t`` into nominal-speed
        seconds: nominal kernel time over the mean of the samples just
        before and just after ``t``."""
        mids = [m for m, _ in self.samples]
        i = bisect.bisect(mids, t)
        near = [d for _, d in self.samples[max(0, i - 1):i + 1]]
        return NOMINAL_S / statistics.fmean(near)

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
