"""Wall time corrected for the speed the shared host ran at while it was spent.

On the 2-vCPU host this benchmark was built on, the same forward call ran
up to 2x faster or slower from one second to the next, in CPU time as well
as wall time, and whole runs minutes apart differed by about 30%: faster
and slower stretches moved interpreter-bound and BLAS-bound code by about
the same factor.  A fixed reference kernel, run between pieces of work (a
tick), measures that speed.  Time between two ticks is scaled by
REFERENCE_S over the mean of the two ticks' reference times, so a program
that gets x% faster reads x% faster whatever speed the host ran at; the
ticks' own time is left out.  REFERENCE_S is about the kernel's median time
on the baseline host (the median of per-run medians was 4.1 and 4.2 ms in
two sets of 30 runs), so corrected times read as that host's usual wall
time.
The kernel is the benchmark's own code: no change to swpnet moves it.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 4.1e-3

# The kernel mixes what the program spends its time on: interpreter work,
# numpy calls on tiny arrays (per-op dispatch, as in a batch-1 forward),
# float32 GEMM (im2col convolution) and an elementwise pass over an array
# larger than L1 (batchnorm, relu, copies).  With all four parts, the
# forward and training-step times divided by the kernel's varied less over
# time than with any subset tried.
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 288), dtype=np.float32)
_B = _rng.standard_normal((288, 256), dtype=np.float32)
_X = _rng.standard_normal(128 * 1024, dtype=np.float32)
_TINY = np.ones(16, dtype=np.float32)


def reference() -> None:
    total = 0
    for i in range(13_000):
        total += i * i % 7
    for _ in range(120):
        np.maximum(_TINY + _TINY, 0).reshape(4, 4).sum(axis=0)
    for _ in range(3):
        _A @ _B
    np.maximum(_X, 0) * 0.5 + _X


class HostClock:
    """Collects ticks and converts perf_counter intervals to corrected seconds.

    With correct=False, tick() does nothing and seconds() is plain wall time
    (the traced run, whose overhead is measured against raw time)."""

    def __init__(self, correct: bool = True):
        self.correct = correct
        self.scale = True                  # False: tick time left out, wall time not scaled
        self.starts: list[float] = []      # tick i ran from starts[i] to ends[i]
        self.ends: list[float] = []
        self.refs: list[float] = []        # reference seconds measured by tick i
        if correct:
            reference()                    # first call allocates

    def unscaled(self) -> "HostClock":
        """The same ticks, reading wall time with the ticks left out."""
        view = copy.copy(self)
        view.scale = False
        return view

    def tick(self) -> None:
        if not self.correct:
            return
        start = perf_counter()
        reference()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(end - start)

    def seconds(self, start: float, end: float) -> float:
        """Corrected length of [start, end], tick time excluded.  A gap
        between ticks is scaled by the mean reference time of the ticks at
        its two ends; time before the first tick or after the last by that
        tick's alone."""
        if not self.correct:
            return end - start
        if not self.refs:
            raise RuntimeError("HostClock.seconds needs at least one tick")
        starts, ends, refs = self.starts, self.ends, self.refs
        total = 0.0
        i = bisect_right(ends, start) - 1          # last tick ended by `start`
        while True:
            gap_start = ends[i] if i >= 0 else float("-inf")
            gap_end = starts[i + 1] if i + 1 < len(starts) else float("inf")
            if i < 0:
                ref = refs[0]
            elif i + 1 == len(refs):
                ref = refs[-1]
            else:
                ref = (refs[i] + refs[i + 1]) / 2
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap * REFERENCE_S / ref if self.scale else overlap
            if gap_end >= end:
                return total
            i += 1
