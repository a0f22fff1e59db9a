"""A fixed reference computation that tracks how fast the host runs right now.

A shared host's speed drifts by tens of percent over seconds to minutes,
and the package's own work slows with it.  The probe below mixes numpy
array arithmetic on arrays of the sizes the quadrature ladder uses with
plain interpreter work, as the package does.  It is timed right before and
right after every op, and an op's time is scaled by ``REFERENCE_S`` over
the mean of those two probe times: the op's time at the reference speed.
The probe lives in the benchmark, so a change to the package cannot move
it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# typical in-run probe time on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6);
# a time metric in ms or s means time at this probe speed
REFERENCE_S = 0.005

_SMALL = np.linspace(0.0, 6.0, 1 << 12)
_LARGE = np.linspace(0.0, 6.0, 1 << 17)


def probe():
    """Run the reference computation once; returns its wall time in seconds."""
    start = perf_counter()
    acc = 0.0
    for x in (_LARGE, _SMALL, _SMALL, _SMALL):
        y = np.cos(x * 1.5) / (1.25 - np.sin(x))
        acc += float(np.sum(np.diff(y[::2])))
    k = 0
    for i in range(6000):
        k += i * i % 7
    if not np.isfinite(acc) or k < 0:
        raise RuntimeError("reference probe computed a wrong value")
    return perf_counter() - start


def speed_factors(probes):
    """Per op, ``REFERENCE_S`` over the mean of the probes on either side of it.

    ``probes`` holds one time more than there are ops: probe i ran right
    before op i, probe i + 1 right after it.
    """
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
