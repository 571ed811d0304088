"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over tens of seconds to minutes.  The drift moves CPU
time as much as wall time, so it is the processor that slows, not the
scheduler.

The probe is run between the legs of every pass, and the pass's time is
scaled by ``REFERENCE_S`` over the median of those runs.  A pass that
took 13 s while the probe ran 1.3 times slower than its reference counts
as 10 s.  The probe uses only numpy and scipy, never adsdirac, so a
change to the program moves the scaled times exactly as it moves the raw
ones.

The kernel is the operation the Cayley step repeats: SuperLU solves of a
complex tridiagonal system.  Of the kernels tried (banded LAPACK solves,
dense products, array streaming, a scalar Python loop and mixes of them),
it tracked the drift of both ``channel-scan`` and ``scatter`` best; the
scalar loop tracked ``channel-scan`` slightly better but ``scatter`` much
worse.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: median seconds of one ``Probe.once`` on the 2-core Intel Xeon VM the
#: bounds of ``BENCHMARK.json`` were tuned on (OpenBLAS with 1 thread)
REFERENCE_S = 0.010

#: kernel runs a pass takes at least, spread over the gaps around its legs
#: (three per gap at least), so that a burst during one gap does not set
#: the pass's median
PASS_RUNS = 30


class Probe:
    """Times the reference kernel.  Build it once per process."""

    def __init__(self, n: int = 8192, solves: int = 36):
        off = np.full(n - 1, 0.3j)
        matrix = sp.diags([off, np.full(n, 2.0 + 0.0j), off], [-1, 0, 1], format="csc")
        self._lu = splu(matrix)
        self._rhs = np.random.default_rng(0).standard_normal(n) + 0.0j
        self._solves = solves

    def once(self) -> float:
        """Seconds of one kernel run."""
        t0 = time.perf_counter()
        x = self._rhs
        for _ in range(self._solves):
            x = self._lu.solve(x)
        return time.perf_counter() - t0

    def runs(self, n: int) -> List[float]:
        """Seconds of each of ``n`` kernel runs."""
        return [self.once() for _ in range(n)]


def runs_per_gap(legs: int) -> int:
    """Kernel runs in each of the ``legs + 1`` gaps of a pass."""
    return max(3, math.ceil(PASS_RUNS / (legs + 1)))


def scaled(seconds: float, runs: Sequence[float]) -> float:
    """``seconds`` at the reference speed: scaled by ``REFERENCE_S`` over
    the median of the kernel ``runs`` made while they elapsed."""
    return seconds * REFERENCE_S / statistics.median(runs)
