"""Host speed reference for a shared, noisy machine.

On a VM whose physical cores are shared, the same op on the same matrix
runs up to 1.8 times slower for stretches of seconds to minutes, and CPU
time slows with wall time.  ``HostSpeed`` times a fixed kernel owned by the
benchmark (never by the package, so a change to aolab cannot move it)
between ops.  The kernel does the same kind of work as aolab's hot loops:
small complex matmuls, 2-norms by SVD, batched matrix-vector steps with
column norms, window statistics over a norm sequence, an eigenvalue solve
and a pairwise Python loop.  The mean of its times over a phase, divided by
``NOMINAL_S``, is that phase's host factor; dividing a phase's times by it
gives them at the nominal host speed.  The mean, not the median, is used
because the slow spells come and go faster than a long op lasts, so the
op times average over them too.  A single op's time is divided instead by
its local factor, the mean of the samples taken within ``LOCAL_S`` of it,
or within its own duration of it if that is longer (no sample runs during
an op, and a long op averages the host over its whole span), since the
host speed also drifts by 10 to 20% within one phase.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Kernel time at host factor 1, per matrix size: about its time on the
# 2.0 GHz Xeon VM the benchmark was calibrated on, in that VM's fast state.
# Any fixed value would do; it only sets the scale.
NOMINAL_S = {8: 0.0125, 64: 0.025}

# One kernel sample per this much elapsed time (about 5% of a phase).
EVERY_S = 0.4

# Samples this close to an op, before its start or after its end, give its
# local factor (or as close as the op lasts, if it lasts longer).
LOCAL_S = 1.0


class HostSpeed:
    def __init__(self, dim: int):
        rng = np.random.default_rng(0)
        self.dim = dim
        self._A = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
        self._H = rng.standard_normal((dim, 24)) + 0j
        self.samples = []
        # perf_counter() at the end of each sample, ascending.
        self.times = []
        self._last = time.perf_counter()

    def _kernel(self):
        A = self._A
        M = np.eye(self.dim, dtype=complex)
        acc = 0.0
        for _ in range(1600 // self.dim):
            M = A @ M
            s = float(np.linalg.norm(M, 2))
            M = M / s
            acc += math.log(s)
        V = self._H.copy()
        steps = 3200 // self.dim
        norms = np.empty((steps, V.shape[1]))
        for n in range(steps):
            V = A @ V
            col = np.linalg.norm(V, axis=0)
            norms[n] = col
            V = V / col
        for j in range(norms.shape[1]):
            for d in range(1, 5):
                tail = norms[-50:, j] / d
                acc += float(np.max(np.abs(tail - np.mean(tail))))
        ev = np.linalg.eigvals(A)
        close = sum(abs(ev[i] - ev[k]) <= 1e-8 for i in range(self.dim) for k in range(i + 1, self.dim))
        return acc + close

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.times.append(t1)
        self._last = time.perf_counter()

    def keep_up(self):
        """Before an op: one sample per EVERY_S elapsed since the last ones."""
        behind = int((time.perf_counter() - self._last) / EVERY_S)
        if behind:
            self.sample(min(behind, 25))

    def factor(self):
        return statistics.fmean(self.samples) / NOMINAL_S[self.dim]

    def local_factor(self, start, end):
        """Host factor of the samples within LOCAL_S, or within the op's
        duration if longer, of [start, end]; the phase's factor when there
        are none."""
        pad = max(LOCAL_S, end - start)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if lo == hi:
            return self.factor()
        return statistics.fmean(self.samples[lo:hi]) / NOMINAL_S[self.dim]
