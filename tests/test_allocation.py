"""Allocation tripwire: the peak bytes one hot-path call allocates.

Each kernel row, the grid map and the cotangent kernel write into arrays
they own.  These tests pin the peak that ``tracemalloc`` traces during one
call on N points, in units of one array of N doubles, so that a change that
brings back a full-size temporary fails here.  Unlike page-fault counts the
peak is deterministic.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stieltjes import DiskPoint, boundary_cot_kernel
from stieltjes.quadrature import _graded_map
from stieltjes.transforms import KERNELS

N = 2 ** 15
# the array headers and ufunc bookkeeping of one call, independent of N
OBJECT_BYTES = 1024


def _peak_bytes(fn, arg):
    """Peak bytes traced during ``fn(arg)`` above what was live before it, result included."""
    fn(arg)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(arg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    del out
    return peak


_Z = DiskPoint(0.9, 0.3)
_LAM = math.asinh(4.0 / 0.1)
CALLS = {
    **{which: KERNELS[which](_Z) for which in "UVSC"},
    "graded_map": lambda v: _graded_map(v, 0.3, _LAM),
    "boundary_cot_kernel": lambda t: boundary_cot_kernel(0.31, t),
}


# arrays of N doubles at the peak, the result included: a complex array counts two
@pytest.mark.parametrize("name, arrays", [
    ("U", 3), ("V", 3), ("S", 5), ("C", 5), ("graded_map", 2), ("boundary_cot_kernel", 2.2),
])
def test_peak_allocation_of_one_call(name, arrays):
    peak = _peak_bytes(CALLS[name], np.linspace(-3.0, 3.0, N))
    assert peak <= arrays * 8 * N + OBJECT_BYTES, f"{name}: {peak / (8 * N):.3f} arrays of {N} doubles"
