"""Machine-speed calibration interleaved with an untraced run.

On a shared host the CPU's speed drifts by 20% and more over a few
seconds, the same for any code that runs, so the wall time of a run says
as much about the neighbours as about the lab. To take that drift out, a
fixed reference loop (benchmark code, never the lab's) is timed in short
slices: one just before `run_experiment`, one every EVERY_S seconds while
it runs, from a SIGALRM handler (Python runs it between two bytecodes of
the lab, or when a long numpy call returns), and one just after. Each stretch of run time between two slices is
scaled by NOMINAL_SLICE_S over the mean time of its two bounding slices;
the scaled stretches add up to the run's time on a host that runs the
reference loop in NOMINAL_SLICE_S. The slices themselves are not run time.

The reference loop mixes what the lab's steps do: small BLAS matmuls,
Adam-like element-wise updates, a strided einsum like the CNN's
convolutions, and a Python loop of scalar dot products like the Jacobi
SVD. Nothing in it depends on the lab, so a change to the lab moves the
scaled time exactly as it moves the wall time at a fixed machine speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EVERY_S = 0.1
WARM_UP = 5  # untimed loops first: the first einsum plans its path, arrays fault in
# Median slice time on a 2-core shared x86-64 host (numpy 2, OpenBLAS, 1 thread).
NOMINAL_SLICE_S = 5.5e-3


class Calibrator:
    """Times slices of the reference loop and scales run time by them."""

    def __init__(self):
        gen = np.random.Generator(np.random.PCG64(20230822))
        self.x = gen.standard_normal((16, 784))
        self.w = gen.standard_normal((784, 100))
        self.m = np.zeros((784, 100))
        self.v = np.zeros((784, 100))
        self.img = gen.standard_normal((4, 3, 32, 32))
        self.ker = gen.standard_normal((16, 3, 5, 5))
        self.cols = [gen.standard_normal(100) for _ in range(50)]
        self.slices: list[tuple[float, float]] = []
        self._previous = None
        for _ in range(WARM_UP):
            self._loop()

    def _loop(self) -> None:
        g = self.x.T @ np.maximum(self.x @ self.w, 0.0) / 16.0
        self.m *= 0.9
        self.m += 0.1 * g
        self.v *= 0.999
        self.v += 0.001 * g * g
        self.w -= 1e-4 * self.m / (np.sqrt(self.v) + 1e-8)
        windows = sliding_window_view(self.img, (5, 5), axis=(2, 3))
        for _ in range(3):
            np.einsum("nchwuv,fcuv->nfhw", windows, self.ker, optimize=True)
        cols = self.cols
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                float(cols[i] @ cols[j])

    def slice(self) -> None:
        start = time.perf_counter()
        self._loop()
        self.slices.append((start, time.perf_counter()))

    def start(self) -> None:
        """Slice now and then every EVERY_S seconds, from a SIGALRM timer."""
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.slice())
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        """Stop the timer and slice once more."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slice()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(wall, scaled) seconds of [start, end] outside the slices.

        Needs a slice that ends at or before `start` and one that starts at
        or after `end`."""
        wall = scaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.slices[:-1], self.slices[1:]):
            lo, hi = max(e0, start), min(s1, end)
            if hi <= lo:
                continue
            local = ((e0 - s0) + (e1 - s1)) / 2
            wall += hi - lo
            scaled += (hi - lo) * NOMINAL_SLICE_S / local
        return wall, scaled
