"""How fast this machine runs right now, from a fixed reference computation.

Other tenants make a shared machine's speed drift by 15-100% over seconds
to minutes, and a whole run can fall into a slow stretch, so the median of
a run's passes still moves with the machine.  The benchmark therefore times
this fixed computation, which does not touch the package, around its
passes, and scales the run's times by REFERENCE_S / (the median reference
time of the run): times are reported in seconds at the reference speed.
A change to the package cannot change the reference computation, so it
cannot change the scale.

The computation mixes interpreted small-integer and float loops,
big-integer Fraction arithmetic and passes over a 4 MB array.  A variant
that added a sparse LU solve and a bisect-driven random walk swung more
than the workloads did and widened their spread, so it was not kept.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# The median reference time on the machine the baseline was measured on
# (2-vCPU Intel Xeon VM), so reported times read as seconds there.
REFERENCE_S = 0.030
SAMPLES = 5


def _kernel(array) -> float:
    acc = 0
    for i in range(120000):
        acc = (acc + i * i) % 1000003
    x = Fraction(1, 3)
    for i in range(1, 600):
        x = x * Fraction(i, i + 7) + Fraction(1, i)
    y = 0.5
    for i in range(90000):
        y = y * 0.999 + 1.0 / (i + 1)
    return float(acc) + float(x.numerator % 7) + y + sum(float(array.sum()) for _ in range(8))


def reference_samples(clock=time.monotonic) -> list:
    """SAMPLES timings of the reference computation, in seconds."""
    array = np.ones(1 << 19)
    out = []
    for _ in range(SAMPLES):
        start = clock()
        _kernel(array)
        out.append(clock() - start)
    return out
