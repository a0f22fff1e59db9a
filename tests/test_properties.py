"""Property tests: invariants checked on generated inputs, not only on examples.

Every property runs a fixed number of derandomized examples and keeps no
example database, so the suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjes import BoundaryFunction, DiskPoint, poisson_stieltjes, reduce_angle
from stieltjes.core import ATOM_GUARD
from stieltjes.quadrature import _graded_map, _graded_preimage

from oracles import poisson_reference

TWO_PI = 2 * math.pi


def fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@fixed(300)
# the quotient of these rounds onto a whole turn
@example(float(np.nextafter(-math.pi, 0.0)))
@example(-27.0 * math.pi)
@example(-math.pi)
@example(math.pi)
@example(3.0 * math.pi)
@given(st.floats(min_value=-1e6, max_value=1e6))
def test_reduce_angle_lands_in_principal_window(x):
    y = reduce_angle(x)
    assert -math.pi < y <= math.pi
    assert reduce_angle(y) == y
    turns = (x - y) / TWO_PI
    assert abs(turns - round(turns)) <= 1e-9


@fixed(200)
@given(
    center=st.floats(min_value=-math.pi, max_value=math.pi),
    # far below 1e-9 the cells at the center fall under the spacing of doubles
    distance=st.floats(min_value=1e-9, max_value=1.0),
    u=st.floats(min_value=-2.0, max_value=2.0),
)
def test_graded_map_is_an_increasing_inverse_of_its_preimage(center, distance, u):
    lam = math.asinh(4.0 / distance)
    t = center + u * math.pi
    assert abs(_graded_map(_graded_preimage(t, center, lam), center, lam) - t) <= 1e-12
    # two turns on either side of the center, as the transform and PV windows use
    lo, hi = _graded_preimage(center - TWO_PI, center, lam), _graded_preimage(center + TWO_PI, center, lam)
    assert np.all(np.diff(_graded_map(np.linspace(lo, hi, 257), center, lam)) > 0.0)


def _apart_on_circle(jumps):
    locs = [loc for loc, _h in jumps]
    return all(abs(reduce_angle(a - b)) > ATOM_GUARD for i, a in enumerate(locs) for b in locs[:i])


@fixed(40)
@given(
    jumps=st.lists(
        st.tuples(
            st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=1,
        max_size=4,
    ).filter(_apart_on_circle),
    r=st.floats(min_value=0.0, max_value=0.9),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_staircase_collapses_to_its_atoms(jumps, r, theta):
    phi = BoundaryFunction(name="staircase", kind="step", jumps=tuple(jumps))
    res = poisson_stieltjes(phi, DiskPoint(r, theta))
    assert res.converged and len(res.levels) == 2
    want = sum(h * poisson_reference(r, theta - loc) for loc, h in jumps) / TWO_PI
    assert abs(res.value - want) <= 1e-12
