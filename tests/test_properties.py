"""Property tests: invariants checked on generated inputs, not only on examples.

Every property runs a fixed number of derandomized examples and keeps no
example database, so the suite stays deterministic.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stieltjes import (
    ApproachPath,
    BoundaryFunction,
    DiskPoint,
    DomainError,
    QuadratureOptions,
    analytic_kernel,
    angular_limit,
    cauchy_kernel,
    conj_poisson,
    harmonicity_diagnostics,
    hilbert_stieltjes,
    make,
    poisson,
    poisson_stieltjes,
    reduce_angle,
    rs_integral,
)
from stieltjes.accel import TAIL_WINDOW
from stieltjes.core import ATOM_GUARD, _cantor_staircase, _reduced, principal_angle
from stieltjes.kernels import COT_GUARD, boundary_cot_kernel
from stieltjes.quadrature import (
    K_MIN,
    _NestedLevels,
    _graded_map,
    _graded_preimage,
    _monotone_rest,
    _odd_points,
    _split,
)
from stieltjes.transforms import KERNELS
from stieltjes.zoo import NAMES

from oracles import (
    _level_points,
    analytic_exp,
    cantor_recursive,
    cauchy_exp,
    conj_poisson_sin,
    cot_half_expression,
    den_sin,
    eager_rs_integral,
    full_path_limit,
    graded_map_expression,
    piecewise_staircase,
    poisson_reference,
    poisson_sin,
)

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


@fixed(300)
@example(-0.0)
@example(-math.pi)
@example(1e17)
@given(st.floats(min_value=-1e300, max_value=1e300))
def test_reduce_angle_of_a_scalar_is_its_principal_angle(x):
    assert repr(reduce_angle(x)) == repr(principal_angle(x))


@fixed(300)
@example([-0.0])
@example([math.pi, float(np.nextafter(-math.pi, 0.0)), float(np.nextafter(math.pi, 0.0))])
@example([-math.pi])
@example([math.nan, 0.5])
@example([])
# lists wholly inside the window take the fast path, the others the full one
@given(st.one_of(st.lists(st.floats(min_value=-math.pi, max_value=math.pi), max_size=20),
                 st.lists(st.floats(), max_size=20)))
def test_reduce_angle_fast_path_is_the_full_reduction_bit_for_bit(xs):
    arr = np.array(xs, dtype=float)
    with np.errstate(invalid="ignore"):
        want = _reduced(arr)
        got = reduce_angle(arr)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


@fixed(40)
# the reproducer of a left-continuous cell between two atoms on adjacent points
@example([(2.0, -1.5), (2.4, 0.8)], 0.0, 11, 3.0 - 2.0 ** -11)
@example([(2.0, -1.5), (2.4, 0.8)], 0.0, 12, 3.0 - 2.0 ** -12)
@given(
    jumps=st.lists(
        st.tuples(
            st.floats(min_value=-3.1, max_value=3.1),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda j: round(j[0], 3),
    ).map(sorted),
    tau=st.floats(min_value=-math.pi, max_value=math.pi),
    u=st.integers(min_value=3, max_value=16),
    width=st.floats(min_value=0.1, max_value=3.0),
)
def test_left_continuous_staircase_collapses_to_its_atoms(jumps, tau, u, width):
    # one side of a principal-value truncation at tau, graded steeply there
    phi = piecewise_staircase(jumps)
    d = 2.0 ** -u
    a, b = tau + d, tau + d + width
    images = [(loc + TWO_PI * k, h) for loc, h in phi.jumps for k in (-1, 0, 1)]
    assume(all(min(abs(t - a), abs(t - b)) > 1e-9 for t, _h in images))
    res = rs_integral(lambda s: boundary_cot_kernel(tau, s), phi, a, b, grading=(tau, d))
    # the jump of a left-continuous atom on [a, b) lies inside
    terms = [h / math.tan((tau - t) / 2.0) for t, h in images if a <= t < b]
    assert res.converged
    assert abs(res.value - sum(terms)) <= 1e-12 * (1.0 + sum(abs(x) for x in terms))


def _split_counts(f, a, b, loc):
    return loc in _split(f, None, a, b)[0]


def _check_side(f):
    """Each atom: f takes the value after its jump for a step, before it otherwise, and _split agrees."""
    for loc, h in f.jumps:
        before, at, after = f(np.array([loc - 1e-9, loc, loc + 1e-9]))
        assert abs(after - before - h) <= 1e-6
        want = after if f.kind == "step" else before
        assert abs(at - want) <= 1e-6
        # an atom on an end counts only when its jump lies inside the window
        assert _split_counts(f, loc, loc + 1.0, loc) == (f.kind != "step")
        assert _split_counts(f, loc - 1.0, loc, loc) == (f.kind == "step")


@pytest.mark.parametrize("name", [n for n in NAMES if make(n).jumps])
def test_each_catalog_atom_takes_the_side_its_kind_declares(name):
    _check_side(make(name))


@fixed(40)
@given(
    jumps=st.lists(
        st.tuples(
            st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
            st.floats(min_value=1e-3, max_value=3.0) | st.floats(min_value=-3.0, max_value=-1e-3),
        ),
        min_size=1,
        max_size=4,
    ).filter(_apart_on_circle),
    base=st.floats(min_value=-3.0, max_value=3.0),
)
def test_file_step_atoms_take_the_value_after_their_jump(jumps, base):
    # built as the CLI builds a file: spec of kind step
    _check_side(BoundaryFunction(name="file_step", kind="step", jumps=tuple(jumps), base=base))


finite_complex = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@fixed(200)
@given(
    r=st.floats(min_value=0.0, max_value=0.95),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    h=st.floats(min_value=1e-3, max_value=0.1),
    a=finite_complex,
    b=finite_complex,
    c=finite_complex,
)
def test_harmonicity_defect_is_exact_on_cubics_and_pins_the_laplacian(r, theta, h, a, b, c):
    assume(r + 2.0 * h < 1.0)
    z = DiskPoint(r, theta)
    # the five-point stencil is exact on cubics, so a harmonic one leaves only rounding
    cubic = lambda w: (a * w.z ** 3 + b * w.z ** 2 + c * w.z).real
    assert harmonicity_diagnostics(cubic, z, h) <= 1e-12 * (1.0 + abs(a) + abs(b) + abs(c))
    # the Laplacian of |z|^2 is 4
    assert harmonicity_diagnostics(lambda w: abs(w.z) ** 2, z, h) == pytest.approx(4.0 * h * h, rel=1e-9)


@fixed(30)
@given(
    name=st.sampled_from(["sin", "linear", "multi_step", "cbv_demo"]),
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
def test_reversed_ends_flip_the_sign_exactly(name, a, b):
    phi = make(name)
    forward, backward = rs_integral(np.cos, phi, a, b), rs_integral(np.cos, phi, b, a)
    assert backward.value == -forward.value
    assert backward.status is forward.status
    assert backward.est_error == forward.est_error


@fixed(60)
@given(
    jumps=st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=1,
        max_size=3,
    ).filter(_apart_on_circle),
    split=st.integers(min_value=0, max_value=2),
    left=st.floats(min_value=0.1, max_value=3.0),
    right=st.floats(min_value=0.1, max_value=3.0),
)
def test_additive_across_an_atom_on_the_split_point(jumps, split, left, right):
    phi = BoundaryFunction(name="staircase", kind="step", jumps=tuple(jumps))
    c = jumps[split % len(jumps)][0]
    opts = QuadratureOptions(rel_tol=1e-10)
    whole = rs_integral(np.cos, phi, c - left, c + right, opts)
    parts = rs_integral(np.cos, phi, c - left, c, opts).value + rs_integral(np.cos, phi, c, c + right, opts).value
    assert abs(whole.value - parts) <= 1e-12 * max(1.0, abs(whole.value))


def _sin2(t):
    return np.sin(2.0 * np.asarray(t, dtype=float))


@fixed(30)
@given(
    name=st.sampled_from(["sin", "linear", "multi_step", "cbv_demo", "cantor"]),
    a=st.floats(min_value=-3.0, max_value=0.0),
    b=st.floats(min_value=0.1, max_value=3.0),
    c1=st.floats(min_value=-3.0, max_value=3.0),
    c2=finite_complex,
)
def test_linear_in_the_integrand(name, a, b, c1, c2):
    phi = make(name)
    opts = QuadratureOptions(rel_tol=1e-6, abs_tol=1e-9)
    one, two = rs_integral(np.cos, phi, a, b, opts), rs_integral(_sin2, phi, a, b, opts)
    both = rs_integral(lambda t: c1 * np.cos(t) + c2 * _sin2(t), phi, a, b, opts)
    scale = 1e-12 * (1.0 + abs(c1) + abs(c2)) * (1.0 + abs(one.value) + abs(two.value))
    # the same partitions and tags on every level, so each level's sum is linear
    for (_m, s), (_m1, s1), (_m2, s2) in zip(both.levels, one.levels, two.levels):
        assert abs(s - (c1 * s1 + c2 * s2)) <= scale
    combined = c1 * one.value + c2 * two.value
    if len(both.levels) == len(one.levels) == len(two.levels):
        assert both.status is one.status is two.status
        assert abs(both.value - combined) <= scale
    elif both.converged and one.converged and two.converged:
        bound = both.est_error + abs(c1) * one.est_error + abs(c2) * two.est_error
        assert abs(both.value - combined) <= bound + scale


@fixed(30)
@given(
    name=st.sampled_from(["sin", "linear", "multi_step", "cbv_demo", "cantor"]),
    c=st.floats(min_value=-3.0, max_value=3.0),
    left=st.floats(min_value=0.1, max_value=6.0),
    right=st.floats(min_value=0.1, max_value=6.0),
)
def test_additive_over_adjacent_intervals(name, c, left, right):
    phi = make(name)
    assume(all(abs(reduce_angle(c - loc)) > 1e-3 for loc, _h in phi.jumps))
    opts = QuadratureOptions(rel_tol=1e-7, abs_tol=1e-10)
    runs = [rs_integral(np.cos, phi, lo, hi, opts) for lo, hi in ((c - left, c + right), (c - left, c), (c, c + right))]
    assume(all(run.converged for run in runs))
    whole, lower, upper = runs
    bound = sum(run.est_error for run in runs)
    assert abs(whole.value - (lower.value + upper.value)) <= bound + 1e-12


@fixed(300)
@given(
    r=st.floats(min_value=0.0, max_value=0.99),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    t=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_kernel_identities(r, theta, t):
    z = r * complex(math.cos(theta), math.sin(theta))
    analytic = analytic_kernel(z, t)
    split = complex(poisson(r, theta - t), conj_poisson(r, theta - t))
    assert abs(analytic - split) <= 1e-12 * abs(analytic)
    assert abs(cauchy_kernel(z, t) - (analytic + 1.0) / 2.0) <= 1e-12 * abs(analytic + 1.0)


@fixed(400)
@example(0.0, 1.0)
@example(0.0, math.pi)
@example(1.0 - 2.0 ** -52, 0.0)
@example(1.0 - 2.0 ** -52, math.pi)
@example(1.0 - 2.0 ** -52, -math.pi)
@example(1.0 - 2.0 ** -52, TWO_PI - 1e-9)
@example(1.0 - 2.0 ** -52, -(TWO_PI - 1e-9))
@example(0.999, 1e-9)
@given(
    r=st.floats(min_value=0.0, max_value=1.0 - 2.0 ** -52),
    x=st.floats(min_value=-TWO_PI, max_value=TWO_PI, exclude_min=True, exclude_max=True),
)
def test_kernels_match_their_sine_and_exponential_forms(r, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # z = r and t = -x put the complex kernels at radius r and angle x
        p, q, s, c = poisson(r, x), conj_poisson(r, x), analytic_kernel(r, -x), cauchy_kernel(r, -x)
        want_p, want_q = poisson_sin(r, x), conj_poisson_sin(r, x)
        want_s, want_c = analytic_exp(r, -x), cauchy_exp(r, -x)
    assert all(math.isfinite(v) for v in (p, q, s.real, s.imag, c.real, c.imag))
    assert abs(p - want_p) <= 1e-14 * want_p
    assert abs(q - want_q) <= 1e-14 * abs(want_q)
    for got, want in ((s, complex(want_p, want_q)), (c, complex((want_p + 1) / 2, want_q / 2))):
        assert abs(got.real - want.real) <= 1e-14 * abs(want.real)
        assert abs(got.imag - want.imag) <= 1e-14 * abs(want.imag)
    # the exponential forms round e^{-ix}, an error of relative size about
    # 2 r eps / |1 - r^2 e^{2ix}| in S and below that in C
    cond = 1.0 + 2.0 * r / math.sqrt(den_sin(r, x) * den_sin(r, x + math.pi))
    assert abs(s - want_s) <= 1e-14 * cond * abs(s)
    assert abs(c - want_c) <= 1e-14 * cond * abs(c)


@fixed(200)
@example([0.0, 1.0, -0.5, 1.5, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0, 0.25], 53)
@given(
    xs=st.lists(st.floats(min_value=-0.1, max_value=1.1), min_size=1, max_size=20),
    depth=st.integers(min_value=1, max_value=53),
)
def test_cantor_staircase_matches_the_recursive_oracle(xs, depth):
    x = np.array(xs)
    got = _cantor_staircase(x, depth)
    assert np.array_equal(x, np.array(xs))
    want = np.array([cantor_recursive(v, depth) for v in xs])
    # a point still unresolved after ``depth`` digits carries the oracle's
    # identity seed x * 0.5**depth, so every point agrees to rounding
    assert np.all(np.abs(want - got) <= 1e-15)


def _atom_cotangents(phi, tau):
    return sum(h / math.tan((tau - loc) / 2.0) for loc, h in phi.jumps) / TWO_PI


# (1/2 pi) PV int cot((tau - t)/2) dphi(t) in closed form: the conjugate of
# cos is sin and of -sin is cos; a constant density adds nothing, so the
# other entries reduce to the cotangents of their atoms
PV_CLOSED_FORMS = {
    "sin": lambda phi, tau: math.sin(tau),
    "cos": lambda phi, tau: math.cos(tau),
    "sawtooth": _atom_cotangents,
    "linear": _atom_cotangents,
    "step2pi": _atom_cotangents,
    "multi_step": _atom_cotangents,
    "const": _atom_cotangents,
}


@fixed(40)
@example("linear", 0.0, math.pi - 0.05)
@example("step2pi", 0.5, 0.45)
@given(
    name=st.sampled_from(sorted(PV_CLOSED_FORMS)),
    t0=st.floats(min_value=-math.pi, max_value=math.pi),
    tau=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_principal_value_is_within_est_error_of_its_closed_form(name, t0, tau):
    phi = make(name, t0) if name == "step2pi" else make(name)
    assume(all(abs(reduce_angle(tau - loc)) >= 0.05 for loc, _h in phi.jumps))
    want = PV_CLOSED_FORMS[name](phi, tau)
    got = hilbert_stieltjes(phi, tau)
    assert abs(got.value - want) <= got.est_error + 1e-12 * max(1.0, abs(want))


def _identity(t):
    return np.asarray(t, dtype=float)


def _one_on_dyadics(t):
    """1 on dyadic rationals of at most 20 bits, NaN elsewhere."""
    t = np.asarray(t, dtype=float)
    return np.where(t * 2.0 ** 20 == np.round(t * 2.0 ** 20), 1.0, np.nan)


def _spikes_nan_window(t):
    """The spikes integrand, but NaN at tags off the dyadics in (0.3, 0.3 + 2**-9)."""
    t = np.asarray(t, dtype=float)
    window = (t > 0.3) & (t < 0.3 + 2.0 ** -9) & (t * 2.0 ** 20 != np.round(t * 2.0 ** 20))
    return np.where(window, np.nan, make("spikes")(t))


# the step of the heavy-tailed run's midpoint sums and its abs_tol
HEAVY_STEP = 2.0 ** -30


def _heavy_tailed(t):
    """Heavy-tailed off the dyadics, 0 on them but for one spike per level from 13 to 16.

    Off the dyadics it is 1/u**2, u the bits of the tag below 2**-24, so its
    random-tag sums have no mean and jump about by orders of magnitude.  On
    [0, 1] against dt, level k's midpoint sum is 0 up to level 12 and
    (2**(k - 12) - 1) * HEAVY_STEP from level 13 on, so the level
    differences double from 13 on.
    """
    t = np.asarray(t, dtype=float)
    out = 1.0 / (np.modf(t * 2.0 ** 24)[0] + 2.0 ** -30) ** 2
    out[t * 2.0 ** 20 == np.round(t * 2.0 ** 20)] = 0.0
    for k in range(13, 17):
        # the first midpoint tag of level k and of no other level
        out[t == 2.0 ** -(k + 1)] = (2.0 ** (k - 12) - 1.0) * HEAVY_STEP * 2.0 ** k
    return out


def _disk_run(name, which, r, theta, seed, rel_tol, k_max):
    """The arguments of the ladder behind ``disk_transform(which, make(name), (r, theta))``."""
    opts = QuadratureOptions(k_max=k_max, rel_tol=rel_tol, abs_tol=1e-9, seed=seed)
    return KERNELS[which](DiskPoint(r, theta)), make(name), -math.pi, math.pi, opts, (theta, 1.0 - r)


@fixed(60)
# diverged, decided on spreads of levels that skipped their replicas
@example((make("spikes"), _identity, 0.0, 1.0, QuadratureOptions(), None))
# level 13 passes its difference and its block is cut short; at level 16
# the differences have doubled three times, and only level 13's whole block
# shows that the spreads have not
@example((_heavy_tailed, _identity, 0.0, 1.0, QuadratureOptions(rel_tol=0.0, abs_tol=HEAVY_STEP, k_max=16, seed=2),
          None))
# level 4's replicas miss the NaN window and level 5's hit it: the run ends
# at level 5, whose block runs only when level 8 completes the spreads
@example((_spikes_nan_window, _identity, 0.0, 1.0, QuadratureOptions(seed=2), None))
# NaN replica sums on the first level
@example((_one_on_dyadics, _identity, 0.0, 1.0, QuadratureOptions(), None))
# integrand and integrator jump at 0.5: every level makes a probe sum
@example((make("step2pi", 0.5), make("step2pi", 0.5), -math.pi, math.pi,
          QuadratureOptions(rel_tol=1e-4, k_max=10), None))
@example(_disk_run("cantor", "V", 0.9, 1.0, 0, 1e-5, K_MIN))
# runs out of levels at 2**16 cells, past the one-replica-per-call width
@example((np.cos, make("sin"), 0.0, 1.0, QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=16), None))
# the Cantor staircase is at most half live from level 6 on; its last level,
# 2**16 cells, gathers the live columns of uncached draws, one row per chunk
@example((np.cos, make("cantor"), -3.0, 3.0, QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=16), None))
# a staircase's rest is flat: every level evaluates g on no cell and runs no block
@example(_disk_run("multi_step", "S", 0.9, 0.3, 1, 1e-6, 10))
# every level live: the dense path
@example(_disk_run("cbv_demo", "C", 0.95, -2.0, 3, 1e-7, 14))
@given(st.builds(
    _disk_run,
    # the catalog but spikes, which lives on [0, 1] only
    name=st.sampled_from(["const", "linear", "sin", "cos", "step2pi", "multi_step", "cantor", "sawtooth",
                          "cbv_demo"]),
    which=st.sampled_from(sorted(KERNELS)),
    r=st.floats(min_value=0.0, max_value=0.999),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    seed=st.integers(min_value=0, max_value=4),
    rel_tol=st.floats(min_value=-8.0, max_value=-3.0).map(lambda e: 10.0 ** e),
    k_max=st.integers(min_value=K_MIN, max_value=14),
))
def test_lazy_replicas_give_the_eager_ladder_bit_for_bit(run):
    g, f, a, b, opts, grading = run
    got = rs_integral(g, f, a, b, opts, grading=grading)
    want = eager_rs_integral(g, f, a, b, opts, grading=grading)
    assert (repr(got.value), repr(got.est_error), got.status, repr(got.levels)) == (
        repr(want.value), repr(want.est_error), want.status, repr(want.levels))


@st.composite
def _nested_case(draw):
    """A window, an optional grading, an elementwise f and a depth k."""
    k = draw(st.integers(min_value=K_MIN, max_value=18))
    kind = draw(st.sampled_from(["period", "window", "pv"]))
    center = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    if kind == "period":
        a, b = -math.pi, math.pi
    elif kind == "window":
        a = draw(st.floats(min_value=-4.0, max_value=4.0))
        b = a + draw(st.floats(min_value=1e-3, max_value=7.0))
    else:
        # one side of a principal-value truncation at center
        delta = 2.0 ** -draw(st.floats(min_value=1.0, max_value=40.0))
        a, b = (center + delta, center + math.pi) if draw(st.booleans()) else (center - math.pi, center - delta)
    grading = None
    if draw(st.booleans()):
        grading = (center, 2.0 ** -draw(st.floats(min_value=0.0, max_value=50.0)))
    f = draw(st.sampled_from([np.sin, make("cantor"), make("cbv_demo"), make("multi_step")]))
    return f, a, b, grading, k


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@fixed(40)
# distance 2**-50 at the centre of the period: thousands of cells of width
# 0 or under 1e-13
@example((make("cantor"), -math.pi, math.pi, (0.7, 2.0 ** -50), 18))
@example((np.sin, 0.3, 0.3 + math.pi, (0.3, 2.0 ** -45), 16))
@example((make("cbv_demo"), -math.pi, math.pi, None, K_MIN))
@given(_nested_case())
def test_nested_levels_equal_the_levels_built_from_scratch(case):
    f, a, b, grading, k = case
    nested = _NestedLevels(f, a, b, grading)

    def check(j):
        pts, widths, df = nested.level(j)
        want = _level_points(a, b, 2 ** j, grading)
        assert _same_bits(pts, want)
        assert _same_bits(widths, np.diff(want))
        assert _same_bits(df, np.diff(np.asarray(f(want), dtype=float)))

    # each level as the ladder reads it right after building it ...
    check(K_MIN)
    for j in range(K_MIN + 1, k + 1):
        nested.refine()
        check(j)
    # ... and again from the finest grid, as the divergence rule re-runs it
    for j in range(K_MIN, k):
        check(j)


@fixed(25)
@example(-math.pi, math.pi, 2 ** 22)
@example(-2.9673, 3.0125, 2 ** 21)
@example(0.0, 0.0, 2 ** 10)
@example(5.0, -1e-300, 3 ** 9)
@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6),
       st.integers(min_value=1, max_value=2 ** 22))
def test_linspace_halves_nest(p, q, n):
    # the nested levels rest on this: a numpy whose linspace breaks it must
    # fail here, not move values
    assert _same_bits(np.linspace(p, q, 2 * n + 1)[::2], np.linspace(p, q, n + 1))


@fixed(25)
@example(-math.pi, math.pi, 2 ** 21)
@example(-2.9673, 3.0125, 2 ** 20)
@example(0.0, 0.0, 2 ** 10)
@example(5.0, -1e-300, 3 ** 9)
# a span of one subnormal: linspace's step underflows to 0
@example(0.0, 5e-324, 2 ** 10)
@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6),
       st.integers(min_value=1, max_value=2 ** 21))
def test_odd_points_are_linspace_s(p, q, n):
    # each refinement computes only its new points: a numpy whose linspace
    # computes them otherwise must fail here, not move values
    assert _same_bits(_odd_points(p, q, n), np.linspace(p, q, 2 * n + 1)[1::2])


# a Cantor plateau edge: x = 1/3 of the staircase, past the 5% margin
CANTOR_EDGE = TWO_PI * (0.05 + 0.9 / 3.0) - math.pi


@st.composite
def _rest_case(draw):
    """A window over the Cantor staircase or cbv_demo, an optional grading and a depth k."""
    k = draw(st.integers(min_value=K_MIN, max_value=16))
    kind = draw(st.sampled_from(["period", "pv", "turns"]))
    center = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    if kind == "period":
        a, b = center - math.pi, center + math.pi
    elif kind == "pv":
        # one side of a truncation at center; about half of them cross the seam
        delta = 2.0 ** -draw(st.floats(min_value=1.0, max_value=40.0))
        a, b = (center + delta, center + math.pi) if draw(st.booleans()) else (center - math.pi, center - delta)
    else:
        a = draw(st.floats(min_value=-4.0, max_value=4.0))
        b = a + TWO_PI * draw(st.floats(min_value=1.0, max_value=4.0))
    grading = None
    if draw(st.booleans()):
        grading = (center, 2.0 ** -draw(st.floats(min_value=0.0, max_value=50.0)))
    return draw(st.sampled_from(["cantor", "cbv_demo"])), a, b, grading, k


@fixed(40)
@example(("cantor", -math.pi, math.pi, (CANTOR_EDGE, 2.0 ** -50), 18))
@example(("cantor", 0.0, 3.0 * TWO_PI, (math.pi, 2.0 ** -50), 14))
# the level-4 cell [pi/2 - 1e-3, pi/2 + 1e-3] has equal ends about the top of
# -0.4 sin, so a skip there moves the new point's value
@example(("cbv_demo", math.pi / 2 - 1e-3, math.pi / 2 + 31e-3, None, K_MIN + 1))
@given(_rest_case())
def test_rest_skips_only_cells_where_it_is_flat(case):
    name, a, b, grading, k = case
    f = make(name)
    assert _monotone_rest(f) == (name == "cantor")
    rest = _split(f, np.cos, a, b)[2]
    nested = _NestedLevels(rest, a, b, grading, _monotone_rest(f))
    for j in range(K_MIN, k + 1):
        if j > K_MIN:
            nested.refine()
        pts, widths, df = nested.level(j)
        want = _level_points(a, b, 2 ** j, grading)
        assert _same_bits(pts, want)
        assert _same_bits(widths, np.diff(want))
        # the rest on every point of the level, flat cells' new points included
        assert _same_bits(df, np.diff(np.asarray(rest(want), dtype=float)))


# the in-place kernels, grid map and ladder


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _tag_forms(ts):
    """A 1-D array of the tags and three 0-d forms of the first: 0-d array, numpy and Python scalar."""
    return np.array(ts), np.asarray(ts[0]), np.float64(ts[0]), ts[0]


@fixed(150)
@example(0.0, 0.4, [-math.pi, 0.0, 0.4, math.pi])
@example(1.0 - 2.0 ** -40, 3.0, [3.0, 3.0 + 1e-12, -math.pi, 3.0 - TWO_PI])
@given(
    r=st.floats(min_value=0.0, max_value=0.9999),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    ts=st.lists(st.floats(min_value=-TWO_PI, max_value=TWO_PI), min_size=1, max_size=64),
)
def test_kernel_rows_equal_the_public_kernels_bit_for_bit(r, theta, ts):
    w = r * complex(math.cos(theta), math.sin(theta))
    assume(abs(w) < 1.0)
    # the rows read z.r and z.theta, the analytic kernel |w| and arg w: the same floats
    z = DiskPoint.from_complex(w)
    for t in _tag_forms(ts):
        t_before = _bits(t)
        x = np.subtract(z.theta, t)
        x_before = _bits(x)
        want = {"U": poisson(z.r, x), "V": conj_poisson(z.r, x),
                "S": analytic_kernel(w, t), "C": (analytic_kernel(w, t) + 1) / 2}
        assert _bits(x) == x_before
        for which, row in KERNELS.items():
            assert _bits(row(z)(t)) == _bits(want[which]), which
        assert _bits(t) == t_before


@fixed(150)
@given(
    center=st.floats(min_value=-math.pi, max_value=math.pi),
    distance=st.floats(min_value=1e-9, max_value=1.0),
    vs=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=64),
)
def test_graded_map_and_cot_kernel_equal_their_expressions_bit_for_bit(center, distance, vs):
    lam = math.asinh(4.0 / distance)
    for v in _tag_forms(vs):
        before = _bits(v)
        assert _bits(_graded_map(v, center, lam)) == _bits(graded_map_expression(v, center, lam))
        assert _bits(v) == before
        assume(np.all(np.abs(np.tan(0.5 * (center - np.asarray(v)))) >= 0.5 * COT_GUARD))
        # scalar in, Python float out; the expression gives a numpy scalar of the same bits
        assert _bits(boundary_cot_kernel(center, v)) == _bits(cot_half_expression(center, v))
        assert _bits(v) == before


class _AtomicIntegrand(BoundaryFunction):
    """An integrand that declares jump locations, so it shares the integrator's atoms, and returns ``fn(t)`` as is."""

    def __call__(self, t):
        return self.fn(t)


def _read_only_cos(t):
    v = np.cos(t)
    v.flags.writeable = False
    return v


# integrands the ladder must not be fooled by when it writes its products
# over the tags: one that returns its argument, a Python scalar, a read-only
# array, complex values
_OWNERSHIP_INTEGRANDS = {
    "argument": lambda t: t,
    "python_scalar": lambda t: 0.75,
    "read_only": _read_only_cos,
    "complex": lambda t: np.exp(1j * t),
}


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("kind", sorted(_OWNERSHIP_INTEGRANDS))
@fixed(8)
@given(
    name=st.sampled_from(["cbv_demo", "multi_step"]),
    seed=st.integers(min_value=0, max_value=4),
    rel_tol=st.floats(min_value=-10.0, max_value=-3.0).map(lambda e: 10.0 ** e),
    k_max=st.integers(min_value=K_MIN, max_value=12),
)
def test_ladder_may_overwrite_the_tags_it_owns(kind, shared, name, seed, rel_tol, k_max):
    f = make(name)
    g = _OWNERSHIP_INTEGRANDS[kind]
    if shared:
        g = _AtomicIntegrand(kind, "step", fn=g, jumps=f.jumps)
    opts = QuadratureOptions(k_max=k_max, rel_tol=rel_tol, abs_tol=1e-12, seed=seed)
    got = rs_integral(g, f, -math.pi, math.pi, opts)
    want = eager_rs_integral(g, f, -math.pi, math.pi, opts)
    assert (repr(got.value), repr(got.est_error), got.status, repr(got.levels)) == (
        repr(want.value), repr(want.est_error), want.status, repr(want.levels))


def _limit_field(z):
    # harmonic, and not geometric in s_k: the Aitken tail extrapolates it
    w = z.z
    return (w ** 3).real + math.log(abs(2.0 - w))


@fixed(200)
@example(k_max=14, alpha=0.0, target=0.3)
@example(k_max=3, alpha=0.0, target=0.3)
@example(k_max=8, alpha=-1.5, target=-2.0)
@example(k_max=14, alpha=1.56, target=3.0)
@given(
    k_max=st.integers(min_value=1, max_value=14),
    alpha=st.floats(min_value=-1.5707, max_value=1.5707),
    target=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_angular_limit_equals_the_full_path_oracle(k_max, alpha, target):
    # wide openings clip their first points, and short paths have fewer than TAIL_WINDOW
    try:
        path = ApproachPath(target, alpha, k_max=k_max)
        path.indexed_points()
    except DomainError:
        assume(False)
    est = angular_limit(_limit_field, path)
    trace, limit, resid, converged = full_path_limit(_limit_field, path)
    assert est.trace == trace[-TAIL_WINDOW:]
    assert (est.extrapolated, est.residual, est.converged) == (limit, resid, converged)
