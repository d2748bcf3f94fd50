"""Times scaled to a reference machine speed.

On a shared machine the CPU's speed drifts by 10-20% over tens of
seconds, as other tenants load it, and a process's raw times drift with
it.  The benchmark therefore times a short fixed loop of small-array
numpy calls -- the kind of work that dominates both the slot simulator
and the QoS search -- before a round and after each of its operations,
and scales the round's times by REFERENCE_S over the mean of those
loop times.  The result is the time at the speed at which the loop takes
REFERENCE_S (about its median on the machine the reference figures in
README.md come from).  Over 30 s windows on that machine, scaling cut
the drift of the medians of a QoS search and of a simulation from about
10% to 2-3%.  A single short operation is not tracked that closely: the
speed also moves within a second.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0030
_LOOPS = 170
_BLOCKS = 3


def calibration_s() -> float:
    """Seconds the reference loop takes now: the median of a few short
    blocks, so that one interrupted block does not count."""
    v = np.linspace(0.1, 0.9, 3)
    blocks = []
    for _ in range(_BLOCKS):
        start = perf_counter()
        for _ in range(_LOOPS):
            w = np.asarray(v, dtype=float)
            bool(np.any(w < 0) or np.any(w > 1))
            float(w.sum()) + float(np.prod(1.0 - w))
        blocks.append(perf_counter() - start)
    return sorted(blocks)[_BLOCKS // 2]


def scale(samples) -> float:
    """Factor that takes raw seconds to seconds at the reference speed,
    from the loop's times taken around the timed work."""
    return REFERENCE_S / (sum(samples) / len(samples))
