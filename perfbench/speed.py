"""Machine-speed probe: a fixed kernel timed next to every measured unit.

On a shared host the same work takes up to ~1.6x longer at some times
than at others, in stretches from a fraction of a second to minutes.  The
benchmark times this fixed kernel after every op and solve and reports
each of them scaled to the speed at which the kernel takes REFERENCE_S:
raw time * REFERENCE_S / (mean of the kernel times just before and
after).  A set-up launch, too long for one sample beside it, is scaled by
the median of the samples over a stretch of the run instead
(factor_since).  The raw values are printed next to the scaled ones.

The kernel is plain numpy and Python in the shapes qtomo's hot paths use
(4x4 transfer matrices, 2x2 blocks, small batched eigensolves) and calls
nothing from qtomo.  A change to qtomo does not change the kernel's work,
but it runs right after each op, in the cache and allocator state the op
leaves, so a change in that state can still move it a little.  Scaled
times are normalised, not wall times; compare them with the raw ones
before claiming a gain (BASELINE.md).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Roughly the kernel's time on a 2-vCPU Intel Xeon VM in its faster
# stretches (Python 3.11, numpy 2.4, OpenBLAS on one thread).  It only
# fixes the scale of the reported times.
REFERENCE_S = 6.0e-4


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._tmat = rng.uniform(0.0, 0.5, size=(4, 4))
        self._vec = rng.normal(size=4)
        blocks = rng.normal(size=(64, 3, 3))
        self._blocks = blocks @ blocks.transpose(0, 2, 1)
        self._pair = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.samples: list[float] = []
        self.last = self.sample()

    def _kernel(self) -> float:
        acc = 0.0
        w = self._vec.copy()
        for _ in range(60):
            w = self._tmat @ w
            w /= np.abs(w).sum()
            m = self._pair @ self._pair.conj().T
            acc += float(np.einsum("i,i->", w, w)) + float(m[0, 0].real)
        return acc + float(np.linalg.eigvalsh(self._blocks).sum())

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def factor_since(self, start: int) -> float:
        """REFERENCE_S over the median kernel time of samples[start:], or
        of all samples if there are none since start (every call raised)."""
        return REFERENCE_S / statistics.median(self.samples[start:] or self.samples)

    def timed(self, call) -> tuple[float, float]:
        """Run call(); return its time raw and at the reference speed.

        The kernel runs right after the call; with the sample taken right
        before it (the previous call's closing sample), their mean is the
        machine's speed around the call.
        """
        t0 = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        before, self.last = self.last, self.sample()
        return elapsed, elapsed * REFERENCE_S / (0.5 * (before + self.last))
