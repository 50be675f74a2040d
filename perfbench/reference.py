"""Host-speed reference for the end-to-end timings.

On a shared 2-vCPU x86_64 virtual machine, identical passes were measured
to change speed by up to 1.7x over tens of seconds as other tenants load
the cores, so raw times drift far more than any bound worth enforcing.
A fixed kernel owned by the benchmark is therefore timed between tasks
throughout the run, at most every `MIN_GAP_S` (median of `REPEATS`
kernel runs per sample), and the run's pass times are rescaled to a
nominal host on which the kernel takes `NOMINAL_S`:

    nominal seconds = measured seconds * NOMINAL_S / median kernel time

The median over the whole run follows the slow changes of host speed
that move whole runs, without adding the kernel's own short-term jitter
to each pass.

The kernel never calls the package, so making the package faster or
slower leaves it unchanged. A change that kept the cores busy between its
own calls (a thread left spinning) would slow the kernel too and hide
part of that cost. Raw seconds are kept in every run record beside the
nominal ones.
"""

import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU x86_64 host the benchmark was set up on.
NOMINAL_S = 0.065
MIN_GAP_S = 1.0
REPEATS = 5

_RATES = np.linspace(0.1, 1.0, 4096)
_MATRIX = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)


def kernel():
    """Time the three kinds of work the workloads do: an interpreter loop
    over a dict, cumsum/searchsorted over 4096 rates, dense 256x256
    products."""
    t0 = time.perf_counter()
    d = {}
    for i in range(160_000):
        k = (i * 2654435761) & 1023
        d[k] = d.get(k, 0) + 1
    for _ in range(1200):
        np.searchsorted(np.cumsum(_RATES), 100.0)
    for _ in range(16):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


class Clock:
    """Kernel samples taken during one run, in order."""

    def __init__(self):
        for _ in range(REPEATS):  # first calls pay cold caches
            kernel()
        self.samples = []
        self._last = -float("inf")

    def sample(self, force=False):
        """Take a sample (the median of REPEATS kernel times) if forced or
        if the last is older than MIN_GAP_S."""
        if force or time.perf_counter() - self._last >= MIN_GAP_S:
            self.samples.append(statistics.median(kernel() for _ in range(REPEATS)))
            self._last = time.perf_counter()

    def factor(self):
        """Factor from this run's raw seconds to nominal seconds."""
        return NOMINAL_S / statistics.median(self.samples)
