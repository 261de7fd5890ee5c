"""Fixed reference kernels that follow the host's speed between commands.

The benchmark runs on shared hosts whose speed drifts by 1.3-1.5x for
seconds to minutes at a time, which moves every wall time of a run. The
kernels here do the same work in every run. They depend on numpy only,
never on polarops, so a change to the program cannot change them. A run
times them just before and just after each command, and reports the
command's time divided by how much slower than on the reference machine
they ran: the command's time on a host running at the reference speed.

Work of different kinds slows down by different amounts, so each workload
names the parts of the kernel that do work like its own:

* ``small``: a Python loop of SVDs of 5x5 complex matrices, the mix of
  interpreter overhead and tiny LAPACK calls of ``verify-theorems``;
* ``large``: one SVD of a 160x160 complex matrix, the dense LAPACK work
  (on every BLAS thread) of commands on dimensions 69-256.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Part name: (SVDs per pass, matrix dimension, seconds per pass on the
# reference machine). The reference is a 2-vCPU x86-64 host with numpy 2.4
# and OpenBLAS 0.3.31, and its time is the median of 1,200 passes over
# seven minutes. Only ratios of scaled times matter.
PARTS = {
    "small": (60, 5, 0.0013),
    "large": (1, 160, 0.0112),
}
# Samples taken up to this many seconds before or after a timed interval
# also describe the host's speed during it.
WINDOW_S = 2.0


class SpeedProbe:
    """Times the named kernel parts and keeps every sample in run order.

    A sample is the host's slowness: each part's time over its reference
    time, averaged over the parts, so 1.0 at the reference speed."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        rng = np.random.default_rng(20181806)
        self._parts = []
        for name in parts:
            count, dim, ref_s = PARTS[name]
            shape = (dim, dim)
            inputs = [
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(count)
            ]
            self._parts.append((inputs, ref_s))
        # Bound now, so that a tracer patching numpy.linalg later is bypassed.
        self._svd = np.linalg.svd
        self._slowness()  # the first pass pays numpy's lazy set-up
        self.samples: list[float] = []
        self.at: list[float] = []  # perf_counter() at the start of each sample

    def _slowness(self) -> float:
        """One pass of every part, with the garbage collector off so that
        the size of the program's heap does not enter the times."""
        svd = self._svd
        ratios = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for inputs, ref_s in self._parts:
                start = time.perf_counter()
                for matrix in inputs:
                    svd(matrix)
                ratios.append((time.perf_counter() - start) / ref_s)
        finally:
            if enabled:
                gc.enable()
        return statistics.fmean(ratios)

    def mark(self) -> int:
        """Take one sample; return its index."""
        self.at.append(time.perf_counter())
        self.samples.append(self._slowness())
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor that turns a time measured between samples ``before`` and
        ``after`` into a time at the reference speed: one over the median
        of the samples taken from ``WINDOW_S`` before the interval to
        ``WINDOW_S`` after it, and at least of those two and the one on
        each side of them. The median damps the jitter of single
        millisecond samples."""
        lo, hi = self.at[before] - WINDOW_S, self.at[after] + WINDOW_S
        first, last = max(0, before - 1), min(len(self.samples) - 1, after + 1)
        while first > 0 and self.at[first - 1] >= lo:
            first -= 1
        while last < len(self.samples) - 1 and self.at[last + 1] <= hi:
            last += 1
        return 1.0 / statistics.median(self.samples[first : last + 1])
