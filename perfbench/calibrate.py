"""Machine-speed probe that the end-to-end timings are normalized by.

The host this benchmark was built on is shared with other tenants.  Each of
its vCPUs alternates, for a fraction of a second up to a minute at a time,
between a fast state and one about 1.7 times slower, and the share of slow
time differs from one run to the next by more than any end-to-end bound: raw
wall times of the same code spread by a quarter or more over ten runs.

So the harness runs a fixed probe after every CLI command, for about
``SHARE`` of that command's time, which samples the machine's state in
proportion to the time the program ran in it.  A run's slowdown is the
probe's mean time over ``REFERENCE_S``, and each end-to-end time is divided
by it.  The probe belongs to the benchmark, not to the program, so a change
to the program moves a normalized time as it moves the raw one.

One probe set mixes the kinds of work the CLI does: an interpreted per-step
loop (the sampler), many small numpy calls (per-step sampling and DP
bookkeeping), matrix-vector products (propagation) and matrix products (the
Cesaro scan).  The interpreted parts, which the slow state slows most, take
about a third of its time: with half of it they over-corrected the
vectorized workloads.
"""

from __future__ import annotations

import bisect
import random
import time

import numpy as np

# Fastest time of one probe set on the machine the benchmark was built on
# (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11, numpy 2.4, one OpenBLAS
# thread).  It only sets the scale: a normalized time is the time the run
# would have taken at this probe speed.
REFERENCE_S = 0.025
SHARE = 0.1  # probe time per second of CLI time
SIZE = 300  # state-space size of the matrix work, as in the workloads' families


class Probe:
    """Accumulates probe time over one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        cdf = np.cumsum(rng.random(1000))
        self._cdf = cdf / cdf[-1]
        self._cdf_list = self._cdf.tolist()
        kernel = rng.random((SIZE, SIZE))
        self._kernel = kernel / kernel.sum(axis=1, keepdims=True)
        self._vector = rng.random(SIZE)
        self.seconds = 0.0
        self.sets = 0

    def run_set(self) -> float:
        """One probe set; returns its wall time and adds it to the run's total."""
        start = time.perf_counter()
        stream = random.Random(1)
        acc = 0.0
        for _ in range(10000):
            acc += bisect.bisect_left(self._cdf_list, stream.random())
        rng = np.random.default_rng(1)
        for _ in range(750):
            acc += float(np.searchsorted(self._cdf, rng.random(8))[0])
            acc += float((self._cdf * 0.5 + 1.0)[-1])
        x = self._vector
        for _ in range(400):
            x = self._kernel.T @ x
        product = self._kernel
        for _ in range(12):
            product = product @ self._kernel
        acc += float(x[0] + product[0, 0])
        if not np.isfinite(acc):
            raise ArithmeticError("probe produced a non-finite value")
        seconds = time.perf_counter() - start
        self.seconds += seconds
        self.sets += 1
        return seconds

    def follow(self, seconds: float) -> None:
        """Probe for ``SHARE`` of ``seconds`` just spent in the program (one set at least)."""
        spent = self.run_set()
        while spent < SHARE * seconds:
            spent += self.run_set()

    def slowdown(self) -> float:
        """Mean probe time over its reference: 1.0 is the reference speed."""
        return self.seconds / (self.sets * REFERENCE_S)
