"""Host-speed reference that the benchmark's end-to-end timings are corrected by.

The 2-vCPU host this benchmark was built on switches between two speeds,
about 1.8x apart, every few tens of milliseconds, and the share of time
spent in the slow one drifts between about 30% and 95% over minutes.  No
statistic of raw timings of a 20-second run survives that: the same code
read 1.4x slower from one minute to the next.

A fixed computation that runs no qrd code (a 4x4 eigvalsh and a little
interpreter work, the instruction mix of qrd's small-operator calls) is
timed at every operation boundary.  An operation's corrected latency is
its wall latency times ``REFERENCE_S`` over the mean of the reference
timings on either side of it: what the operation takes when the host runs
at the speed at which the reference takes ``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the reference's time at the host's fast speed (2-vCPU Intel Xeon, numpy 2.4,
#: OpenBLAS with one thread): the 5th percentile of 20000 timings
REFERENCE_S = 0.36e-3
_REPS = 60
_MATRIX = np.array([[2.0, 0.3, -0.1, 0.0],
                    [0.3, 1.0, 0.2, 0.4],
                    [-0.1, 0.2, 0.5, -0.3],
                    [0.0, 0.4, -0.3, 1.5]])


def at_reference_speed(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at the reference speed, from the reference timings on either side."""
    return wall_s * 2.0 * REFERENCE_S / (before_s + after_s)


def reference_s() -> float:
    """Seconds one run of the reference computation takes now."""
    np.linalg.eigvalsh(_MATRIX)  # untimed: reload the code a long operation evicted
    t0 = perf_counter()
    for _ in range(_REPS):
        np.linalg.eigvalsh(_MATRIX)
        sum(range(50))
    return perf_counter() - t0
