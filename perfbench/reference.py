"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same op can take 1.6 times longer for minutes at a
time, because of other tenants, not of the code under test.  The benchmark
therefore times this kernel between its ops and reports every time scaled
to the speed at which the kernel takes ``NOMINAL_MS``.  The kernel is exact
Gaussian elimination over ``Fraction`` and over GF(p) on fixed inputs, the
two kinds of arithmetic the library does, written here with the standard
library only: no change to the library can change its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

NOMINAL_MS = 5.0
INTERVAL_S = 0.25   # at most one sample per interval between ops
WINDOW_S = 1.0      # samples this close to a timed interval scale it
BURST = 5           # samples taken together around set-up reps
P = 7

_rng = random.Random(20160317)
_FRAC = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)]
         for _ in range(9)]
_MODP = [[_rng.randrange(P) for _ in range(24)] for _ in range(48)]


def _fraction_elimination():
    M = [list(r) for r in _FRAC]
    n = len(M)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            continue
        M[c], M[p] = M[p], M[c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] * inv
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return M


def _modp_rref():
    M = [list(r) for r in _MODP]
    nrows, ncols = len(M), len(M[0])
    pr = 0
    for c in range(ncols):
        p = next((i for i in range(pr, nrows) if M[i][c]), None)
        if p is None:
            continue
        M[pr], M[p] = M[p], M[pr]
        inv = pow(M[pr][c], -1, P)
        M[pr] = [a * inv % P for a in M[pr]]
        for i in range(nrows):
            f = M[i][c]
            if i != pr and f:
                M[i] = [(a - f * b) % P for a, b in zip(M[i], M[pr])]
        pr += 1
    return M


def kernel():
    _fraction_elimination()
    _fraction_elimination()
    _modp_rref()


class SpeedProbe:
    """Reference-kernel times sampled through a run.  The machine's speed
    changes within seconds, so a timed interval is scaled by the samples
    taken within ``WINDOW_S`` of it."""

    def __init__(self):
        self.samples = []           # (perf_counter at the end, kernel ms)
        self._last = float("-inf")

    def sample(self):
        # with the collector off, the size of the process's heap (say, a
        # trace's spans or a cache in the library) cannot change the sample
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((t1, (t1 - t0) * 1e3))
        self._last = t1

    def spent_s(self):
        return sum(ms for _, ms in self.samples) / 1e3

    def sample_burst(self):
        for _ in range(BURST):
            self.sample()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown(self, t0=None, t1=None):
        """How many times slower than nominal the machine ran: the median
        kernel time over ``NOMINAL_MS``.  Given an interval, only samples
        within ``WINDOW_S`` of it count, or the nearest one if none is."""
        near = self.samples
        if t0 is not None:
            near = [s for s in self.samples
                    if t0 - WINDOW_S <= s[0] <= t1 + WINDOW_S]
            if not near:
                near = [min(self.samples,
                            key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))]
        return statistics.median(ms for _, ms in near) / NOMINAL_MS
