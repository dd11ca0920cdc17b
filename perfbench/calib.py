"""Machine-speed calibration for the timed passes.

The benchmark shares its cores with other tenants, and the same verdict can
take twice as long from one minute to the next.  A fixed exact-rational
elimination kernel, written here and independent of logfol, is timed
between verdicts; each verdict's seconds are scaled by REFERENCE_S over the
median of the kernel timings around it.  A slower machine slows both, so
the scaled value tracks the program and not the neighbours.  run.py prints
the raw seconds too.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Kernel seconds on the reference machine (2-core Xeon VM, Python 3.11.7)
# when it is not contended; scaled times are seconds on that machine.
REFERENCE_S = 0.0035

# Verdict seconds between two kernel timings.
PROBE_EVERY_S = 0.1

_N = 10
_A = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) + (5 if i == j else 0)
       for j in range(_N)] for i in range(_N)]


def kernel_seconds():
    """Time one Gauss-Jordan elimination of a fixed 10 x 10 rational matrix."""
    t0 = perf_counter()
    m = [row[:] for row in _A]
    for col in range(_N):
        piv = next(i for i in range(col, _N) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(_N):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return perf_counter() - t0


class Calibrator:
    """Kernel timings taken every PROBE_EVERY_S seconds of timed work."""

    def __init__(self):
        self.samples = [kernel_seconds()]
        self._since = 0.0

    def after(self, seconds):
        """Account for timed work; returns the index of the next sample."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.samples.append(kernel_seconds())
            self._since = 0.0
        return len(self.samples)

    def scale(self, position):
        """REFERENCE_S over the median of the eight kernel timings around a
        sample index: about 0.8 s of work, shorter than the machine's slow
        spells and long enough to smooth the kernel's own jitter."""
        window = self.samples[max(0, position - 4):position + 4]
        return REFERENCE_S / statistics.median(window)
