import cmath
import math
import sys
from collections import Counter

import numpy as np
import pytest

from concurrent.futures import ThreadPoolExecutor

from stieltjes import (
    BoundaryFunction,
    DiskPoint,
    NonConvergentError,
    QuadratureOptions,
    RSStatus,
    by_parts_residual,
    conj_poisson_stieltjes,
    make,
    poisson_stieltjes,
    require_converged,
    rs_integral,
)
from stieltjes.accel import aitken_step, aitken_tail
from stieltjes.kernels import boundary_cot_kernel
from stieltjes import quadrature, transforms
from stieltjes.quadrature import CHUNK_POINTS, K_MIN, REPLICAS, _cached_draws, _draws
from stieltjes.transforms import disk_transform

from oracles import _level_points, eager_rs_integral, piecewise_staircase, rs_brute, rs_tagged_sum

TWO_PI = 2 * math.pi


class TestAitken:
    def test_kills_geometric_error(self):
        # x_k = L + c q^k is mapped exactly onto L
        L, c, q = 0.7, 0.3, 0.5
        x = [L + c * q ** k for k in range(3)]
        assert aitken_step(*x) == pytest.approx(L, abs=1e-13)

    def test_complex_componentwise(self):
        L = 0.2 + 0.9j
        x = [L + (0.1 + 0.05j) * 0.5 ** k for k in range(3)]
        assert aitken_step(*x) == pytest.approx(L, abs=1e-12)

    def test_flat_sequence_falls_back(self):
        assert aitken_step(1.0, 1.0, 1.0) == 1.0

    def test_tail_estimate(self):
        vals = [1.0 + 2.0 * 0.25 ** k for k in range(8)]
        est, resid = aitken_tail(vals)
        assert est == pytest.approx(1.0, abs=1e-10)
        assert resid < 1e-9

    def test_tail_short_sequences(self):
        est, resid = aitken_tail([3.0])
        assert est == 3.0 and math.isinf(resid)
        est, resid = aitken_tail([3.0, 3.5])
        assert est == 3.5 and resid == pytest.approx(0.5)

    def test_tail_of_three_takes_one_step(self):
        vals = [0.7 + 0.3 * 0.5 ** k for k in range(3)]
        est, resid = aitken_tail(vals)
        assert est == aitken_step(*vals)
        assert resid == abs(est - vals[-1])

    def test_tail_empty_rejected(self):
        with pytest.raises(ValueError):
            aitken_tail([])


class TestRSIntegral:
    def test_polynomial_exact_limit(self):
        res = rs_integral(lambda t: np.asarray(t), lambda t: np.asarray(t) ** 2,
                          0.0, 1.0, QuadratureOptions(rel_tol=1e-6))
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("g,f,a,b", [
        (lambda t: np.asarray(t) ** 2, np.sin, -1.0, 2.0),
        (lambda t: np.exp(-np.asarray(t)), lambda t: np.asarray(t) ** 3 - t, -1.0, 2.0),
        (lambda t: np.cos(2 * np.asarray(t)), np.tanh, 0.0, 3.0),
    ])
    def test_matches_brute_force(self, g, f, a, b):
        res = rs_integral(g, f, a, b, QuadratureOptions(rel_tol=1e-6))
        want, tol = rs_brute(g, f, a, b)
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(want, abs=max(1e-6, 10 * tol))

    def test_complex_integrand(self):
        res = rs_integral(lambda t: np.exp(1j * np.asarray(t)), np.sin,
                          -1.0, 1.0, QuadratureOptions(rel_tol=1e-7))
        want = rs_tagged_sum(lambda t: np.exp(1j * np.asarray(t)), np.sin,
                             -1.0, 1.0, 2 ** 15)
        assert res.status is RSStatus.CONVERGED
        assert isinstance(res.value, complex)
        assert abs(res.value - want) < 1e-6

    def test_orientation_flip(self):
        fwd = rs_integral(np.cos, np.sin, 0.0, 2.0)
        rev = rs_integral(np.cos, np.sin, 2.0, 0.0)
        assert rev.value == pytest.approx(-fwd.value, abs=1e-12)

    def test_empty_interval(self):
        res = rs_integral(np.cos, np.sin, 1.0, 1.0)
        assert res.status is RSStatus.CONVERGED
        assert res.value == 0.0

    def test_deterministic_across_runs(self):
        opts = QuadratureOptions(rel_tol=1e-7, seed=11)
        a = rs_integral(np.cos, np.sin, 0.0, 2.0, opts)
        b = rs_integral(np.cos, np.sin, 0.0, 2.0, opts)
        assert a.value == b.value
        assert a.levels == b.levels
        assert a.est_error == b.est_error

    def test_seed_changes_replicas_not_value_much(self):
        a = rs_integral(np.cos, np.sin, 0.0, 2.0, QuadratureOptions(seed=1, rel_tol=1e-7))
        b = rs_integral(np.cos, np.sin, 0.0, 2.0, QuadratureOptions(seed=2, rel_tol=1e-7))
        assert a.value == pytest.approx(b.value, abs=1e-8)

    def test_levels_record_dyadic_refinement(self):
        res = rs_integral(np.cos, np.sin, 0.0, 1.0, QuadratureOptions(rel_tol=1e-10))
        meshes = [m for m, _ in res.levels]
        for coarse, fine in zip(meshes, meshes[1:]):
            assert fine == pytest.approx(coarse / 2, rel=1e-12)

    def test_est_error_is_honest(self):
        res = rs_integral(lambda t: np.asarray(t), lambda t: np.asarray(t) ** 2,
                          0.0, 1.0, QuadratureOptions(rel_tol=1e-6))
        assert abs(res.value - 2.0 / 3.0) <= res.est_error


class TestDeclaredJumps:
    def test_pure_step_collapses_exactly(self):
        phi = make("step2pi", 0.7)
        res = rs_integral(np.cos, phi, -math.pi, math.pi,
                          QuadratureOptions(rel_tol=1e-12))
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(TWO_PI * math.cos(0.7), abs=1e-12)
        assert len(res.levels) == 2  # exact from the first level on

    def test_atom_at_right_window_edge_counted(self):
        phi = make("step2pi", 0.7)
        res = rs_integral(np.cos, phi, 0.7 - TWO_PI, 0.7,
                          QuadratureOptions(rel_tol=1e-12))
        assert res.value == pytest.approx(TWO_PI * math.cos(0.7), abs=1e-12)

    def test_atom_at_left_window_edge_not_counted(self):
        phi = make("step2pi", 0.7)
        res = rs_integral(np.cos, phi, 0.7, 2.0, QuadratureOptions(rel_tol=1e-12))
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(0.0, abs=1e-13)

    def test_mixed_steps_weighted_sum(self):
        phi = make("multi_step")
        res = rs_integral(np.sin, phi, -math.pi, math.pi,
                          QuadratureOptions(rel_tol=1e-12))
        want = sum(h * math.sin(loc) for loc, h in phi.jumps)
        assert res.value == pytest.approx(want, abs=1e-12)

    def test_undeclared_step_still_converges(self):
        f = lambda t: np.where(np.asarray(t) >= 0.3, 1.5, 0.0) + np.asarray(t)
        res = rs_integral(np.cos, f, -1.0, 1.0, QuadratureOptions(rel_tol=1e-4))
        want = 1.5 * math.cos(0.3) + (math.sin(1.0) - math.sin(-1.0))
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(want, abs=5e-4)

    @pytest.mark.parametrize("d", [2.0 ** -11, 2.0 ** -12])
    def test_left_continuous_atoms_on_adjacent_points(self, d):
        # under this grading the atoms at 2.0 and 2.4 are adjacent points of
        # the coarse levels; a left-continuous cell between them carries the
        # jump at 2.0, not the one at 2.4
        f = piecewise_staircase([(2.0, -1.5), (2.4, 0.8)])
        res = rs_integral(lambda s: boundary_cot_kernel(0.0, s), f, d, 3.0, grading=(0.0, d))
        want = -1.5 / math.tan(-1.0) + 0.8 / math.tan(-1.2)
        assert repr(want) == "0.652115268406932"
        assert res.converged
        assert abs(res.value - want) <= 1e-12

    def test_shared_discontinuity_never_certified(self):
        # integrand and integrator both jump at 0.5: the Stieltjes sums
        # genuinely depend on the tags, so no certificate may be issued
        g = make("step2pi", 0.5)
        f = make("step2pi", 0.5)
        res = rs_integral(g, f, -math.pi, math.pi,
                          QuadratureOptions(rel_tol=1e-4, k_max=10))
        assert res.status is not RSStatus.CONVERGED

    def test_nearby_but_distinct_jumps_fine(self):
        g = make("step2pi", 0.5)
        f = make("step2pi", 1.5)
        res = rs_integral(g, f, -math.pi, math.pi, QuadratureOptions(rel_tol=1e-9))
        # dPhi puts 2pi at 1.5, where g (jump at 0.5) already sits on its plateau
        assert res.status is RSStatus.CONVERGED
        assert res.value == pytest.approx(TWO_PI * float(g(1.5)), abs=1e-9)


class TestDivergence:
    def test_spike_construction_diverges(self):
        spikes = make("spikes")
        res = rs_integral(spikes, lambda t: np.asarray(t), 0.0, 1.0)
        assert res.status is RSStatus.DIVERGED

    def test_divergence_reports_growing_spread(self):
        spikes = make("spikes")
        res = rs_integral(spikes, lambda t: np.asarray(t), 0.0, 1.0)
        sums = [abs(s) for _, s in res.levels]
        assert sums == sorted(sums)
        assert res.est_error > 1.0

    def test_unresolved_kernel_peak_is_not_divergence(self):
        # r = 0.99 next to the seam atom: while the mesh is coarser than the
        # peak the replica spread jumps about, but the level difference
        # does not grow with it, so the sums are not blowing up
        res = poisson_stieltjes(make("linear"), DiskPoint(0.99, -3.052))
        assert res.status is not RSStatus.DIVERGED
        assert res.value == pytest.approx(-1.4747362168, abs=1e-9)

    def test_smooth_case_never_flags_divergence(self):
        # an uncertifiable tolerance may end inconclusive, never diverged
        res = rs_integral(np.cos, np.sin, -3.0, 3.0, QuadratureOptions(rel_tol=1e-12))
        assert res.status is not RSStatus.DIVERGED
        assert res.value == pytest.approx(3 + math.sin(6.0) / 2, abs=1e-9)


class TestByParts:
    @pytest.mark.parametrize("g,f", [
        (np.sin, np.cos),
        (lambda t: np.asarray(t), lambda t: np.asarray(t) ** 2),
        (lambda t: np.exp(np.asarray(t) / 2), np.sin),
    ])
    def test_smooth_pairs(self, g, f):
        assert by_parts_residual(g, f, 0.0, 2.0, QuadratureOptions(rel_tol=1e-7)) < 1e-8

    def test_raises_on_divergent_member(self):
        spikes = make("spikes")
        with pytest.raises(NonConvergentError):
            by_parts_residual(spikes, lambda t: np.asarray(t), 0.0, 1.0)

    def test_error_carries_result(self):
        spikes = make("spikes")
        try:
            require_converged(rs_integral(spikes, lambda t: np.asarray(t), 0.0, 1.0),
                              "spike run")
        except NonConvergentError as exc:
            assert exc.result.status is RSStatus.DIVERGED
        else:
            pytest.fail("expected NonConvergentError")


class TestCyclic:
    def test_sin_against_cos(self):
        opts = QuadratureOptions(rel_tol=1e-9)
        g_df = rs_integral(make("sin"), make("cos"), -math.pi, math.pi, opts)
        f_dg = rs_integral(make("cos"), make("sin"), -math.pi, math.pi, opts)
        # int sin d(cos) = -int sin^2 = -pi; int cos d(sin) = +pi
        assert g_df.value == pytest.approx(-math.pi, abs=1e-8)
        assert f_dg.value == pytest.approx(math.pi, abs=1e-8)
        assert abs(g_df.value + f_dg.value) < 1e-9

    def test_residual_vanishes_for_periodic_pairs(self):
        opts = QuadratureOptions(rel_tol=1e-5, abs_tol=1e-7)
        g_df = rs_integral(make("cos"), make("cantor"), -math.pi, math.pi, opts)
        f_dg = rs_integral(make("cantor"), make("cos"), -math.pi, math.pi, opts)
        assert abs(g_df.value + f_dg.value) < 1e-5


class TestGrading:
    def test_points_sorted_inside_window(self):
        for a, b in ((-math.pi, math.pi), (0.3 - math.pi, 0.3 - 1e-3), (0.301, 0.3 + math.pi)):
            pts = _level_points(a, b, 64, (0.3, 1e-3))
            assert np.all(np.diff(pts) > 0)
            assert pts[0] == a and pts[-1] == b

    def test_refines_near_center(self):
        for distance in (1e-2, 1e-3, 1e-5):
            pts = _level_points(-math.pi, math.pi, 256, (0.0, distance))
            near = pts[np.abs(pts) < 4.0 * distance]
            assert near.size > 2
            assert np.diff(near).max() < distance / 2.0

    def test_periodic_center_images(self):
        n = 256
        gaps = np.diff(_level_points(-math.pi, math.pi, n, (math.pi, 1e-2)))
        # a center at pi grades both ends of (-pi, pi]
        assert gaps[0] < 0.1 * TWO_PI / n
        assert gaps[-1] < 0.1 * TWO_PI / n

    def test_center_stays_resolved_far_below_1e9(self):
        # at distance 2^-45 the kernel peak is 2.8e-14 wide: the cell over
        # the center must stay narrower than 1e-13, not be merged away
        pts = _level_points(-math.pi, math.pi, 2 ** 18, (0.7, 2.0 ** -45))
        i = int(np.searchsorted(pts, 0.7))
        assert pts[i] - pts[i - 1] < 1e-13
        assert pts[0] == -math.pi and pts[-1] == math.pi

    @pytest.mark.parametrize("distance", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_distance(self, distance):
        with pytest.raises(ValueError):
            rs_integral(lambda t: t, lambda t: t, 0.0, 1.0, grading=(0.5, distance))

    @pytest.mark.parametrize(
        "grading", [(math.nan, 0.1), (math.inf, 0.1), (0.3,), (0.3, 0.1, 0.2), 0.3],
        ids=["nan_center", "inf_center", "one_entry", "three_entries", "scalar"],
    )
    def test_rejects_bad_grading_before_f_is_called(self, grading):
        seen = []

        def f(t):
            seen.append(t)
            return t

        with pytest.raises(ValueError, match="grading"):
            rs_integral(lambda t: t, f, 0.0, 1.0, grading=grading)
        assert seen == []

    def test_options_reject_too_few_levels(self):
        with pytest.raises(ValueError):
            QuadratureOptions(k_max=3)

    def test_options_tolerance_floor(self):
        opts = QuadratureOptions(rel_tol=1e-6, abs_tol=1e-9)
        assert opts.tolerance(0.0) == 1e-9
        assert opts.tolerance(10.0) == pytest.approx(1e-5)


class TestOptions:
    @pytest.mark.parametrize("tols", [
        {"rel_tol": -1.0},
        {"rel_tol": math.nan},
        {"rel_tol": math.inf},
        {"rel_tol": 0.0, "abs_tol": 0.0},
    ])
    def test_rejects_bad_tolerances(self, tols):
        with pytest.raises(ValueError):
            QuadratureOptions(**tols)

    def test_one_zero_tolerance_is_fine(self):
        assert QuadratureOptions(rel_tol=0.0).tolerance(5.0) == 1e-12

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "0", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            QuadratureOptions(seed=seed)

    @pytest.mark.parametrize("k_max", [3, 23, 100, 5.5, True, None])
    def test_rejects_bad_k_max(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            QuadratureOptions(k_max=k_max)

    def test_accepts_integral_seed_and_k_max(self):
        assert QuadratureOptions(k_max=np.int64(22), seed=np.int64(3)).seed == 3


def _one_on_dyadics(t):
    """1 on dyadic rationals of at most 20 bits, NaN elsewhere."""
    t = np.asarray(t, dtype=float)
    return np.where(t * 2.0 ** 20 == np.round(t * 2.0 ** 20), 1.0, np.nan)


class TestNonFinite:
    def test_nan_replica_sum_is_not_certified(self):
        # midpoint tags are dyadic and see 1; random tags see NaN
        res = rs_integral(_one_on_dyadics, lambda t: np.asarray(t, dtype=float), 0.0, 1.0)
        assert res.status is RSStatus.INCONCLUSIVE
        assert res.est_error == math.inf
        assert len(res.levels) == 1

    def test_all_nan_integrand_stops_at_first_level(self):
        res = rs_integral(lambda t: np.full(np.shape(t), np.nan), np.sin, 0.0, 1.0)
        assert res.status is RSStatus.INCONCLUSIVE
        assert res.est_error == math.inf
        assert len(res.levels) == 1

    def test_nan_where_f_is_flat_is_never_evaluated(self):
        # f is flat on [0, 0.75], three quarters of every level's cells, so g
        # is evaluated on the live cells in [0.75, 1] alone
        g = lambda t: np.where(t >= 0.75, np.cos(t), np.nan)
        res = rs_integral(g, lambda t: np.maximum(t - 0.75, 0.0), 0.0, 1.0, QuadratureOptions(rel_tol=1e-6))
        assert res.status is RSStatus.CONVERGED
        assert abs(res.value - (math.sin(1.0) - math.sin(0.75))) <= res.est_error

    @pytest.mark.parametrize("c, unit", [(0.25, 1.0), (0.25, 1j), (0.75, 1j)],
                             ids=["dense-real", "dense-complex", "gathered-complex"])
    def test_nan_where_f_is_flat_gives_the_live_integral_at_any_live_share(self, c, unit):
        # f is flat on [0, c]: at c = 0.75 a quarter of every level's cells
        # are live and g is evaluated on them alone; at c = 0.25 three
        # quarters are, so g is evaluated on the flat cells too, and their
        # NaN products count as exact zeros
        g = lambda t: np.where(t >= c, np.exp(unit * t), np.nan)
        res = rs_integral(g, lambda t: np.maximum(t - c, 0.0), 0.0, 1.0, QuadratureOptions(rel_tol=1e-6))
        assert res.status is RSStatus.CONVERGED
        assert abs(res.value - (cmath.exp(unit) - cmath.exp(unit * c)) / unit) <= res.est_error

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.75])
    def test_nan_where_f_is_flat_gives_the_eager_ladder(self, c):
        # at c = 0.1 a live cell of every level straddles c, so a tag left of
        # c in it makes a live product NaN and the run ends inconclusive
        g = lambda t: np.where(t >= c, np.cos(t), np.nan)
        f = lambda t: np.maximum(t - c, 0.0)
        opts = QuadratureOptions(rel_tol=1e-6)
        got, want = rs_integral(g, f, 0.0, 1.0, opts), eager_rs_integral(g, f, 0.0, 1.0, opts)
        assert (repr(got.value), repr(got.est_error), got.status, repr(got.levels)) == (
            repr(want.value), repr(want.est_error), want.status, repr(want.levels))
        assert got.status is (RSStatus.INCONCLUSIVE if c == 0.1 else RSStatus.CONVERGED)

    def test_nan_in_f_is_a_live_cell(self):
        # f is flat but for NaN on (0.9, 1]: the cells there are live, and g
        # is evaluated on them
        res = rs_integral(np.cos, lambda t: np.where(t > 0.9, np.nan, 0.0), 0.0, 1.0)
        assert res.status is RSStatus.INCONCLUSIVE
        assert res.est_error == math.inf
        assert len(res.levels) == 1

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_rejects_non_finite_ends(self, a, b):
        with pytest.raises(ValueError):
            rs_integral(np.cos, np.sin, a, b)


class TestReplicaBlock:
    """Ladders whose values, errors, statuses and depths the replica draws decide, pinned bit for bit."""

    @pytest.mark.parametrize("run, value, est_error, status, depth", [
        (lambda: rs_integral(np.cos, make("sin"), 0.0, 1.0),
         "0.7273243567064205", "3.6715891438277026e-09", RSStatus.CONVERGED, 14),
        (lambda: conj_poisson_stieltjes(make("cantor"), DiskPoint(0.9, 1.0)),
         "-0.08437145383334291", "8.080457996850513e-07", RSStatus.CONVERGED, 13),
        # integrand and integrator jump at 0.5: the atom sums to 2pi * g(0.5), and
        # the shared spread |2pi * 2pi| seeds every level's replica spread
        (lambda: rs_integral(make("step2pi", 0.5), make("step2pi", 0.5), -math.pi, math.pi,
                             QuadratureOptions(rel_tol=1e-4, k_max=10)),
         "39.47841760435743", "39.47841760435743", RSStatus.INCONCLUSIVE, 7),
        # atoms on adjacent partition points: the cell between them is the right one's
        (lambda: poisson_stieltjes(
            BoundaryFunction(name="staircase", kind="step", jumps=((2.0, 1.0), (1.875, 0.0))),
            DiskPoint(0.5, 0.0)),
         "0.07164206941465698", "0.0", RSStatus.CONVERGED, 2),
        # runs to 2**16 cells, past the one-replica-per-call width
        (lambda: rs_integral(np.cos, make("sin"), 0.0, 1.0,
                             QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=16)),
         "0.7273243567081858", "1.182078879224946e-08", RSStatus.INCONCLUSIVE, 13),
    ], ids=["cos-dsin", "cantor-V", "shared-atom", "adjacent-atoms", "deep"])
    def test_ladder_is_pinned(self, run, value, est_error, status, depth):
        res = run()
        assert (repr(res.value), repr(res.est_error), res.status, len(res.levels)) == (
            value, est_error, status, depth)


class TestLadderWork:
    """The kernel points of fixed transform ladders at TRANSFORM_OPTS, pinned with their depths."""

    @pytest.mark.parametrize("which, name, z, points, depth", [
        ("V", "sin", (0.9, 0.3), 358_512, 12),
        ("S", "cos", (0.97, 0.3), 227_440, 11),
    ], ids=["V-sin", "S-cos"])
    def test_kernel_points_are_pinned(self, monkeypatch, which, name, z, points, depth):
        sizes = []
        row = transforms.KERNELS[which]

        def counted(zz):
            g = row(zz)

            def sized(t):
                sizes.append(t.size)
                return g(t)
            return sized

        monkeypatch.setitem(transforms.KERNELS, which, counted)
        res = disk_transform(which, make(name), DiskPoint(*z))
        assert res.status is RSStatus.CONVERGED
        assert (sum(sizes), len(res.levels)) == (points, depth)


def _counting(g, calls):
    def counted(t):
        calls.append(np.ndim(t))
        return g(t)
    return counted


def _counting_draws(monkeypatch):
    """Record ``(k, len(reps), n)`` of every ``_draws`` call from here on."""
    drawn = []
    draws = quadrature._draws

    def counted(seed, k, reps, n):
        drawn.append((k, len(reps), n))
        return draws(seed, k, reps, n)

    monkeypatch.setattr(quadrature, "_draws", counted)
    return drawn


class TestReplicaDraws:
    def test_scalar_integrand_broadcasts(self):
        res = rs_integral(lambda t: 2.0, np.sin, 0.0, 1.0)
        assert res.status is RSStatus.CONVERGED and len(res.levels) == 2
        assert repr(res.value) == "1.682941969615793"

    def test_small_level_makes_two_g_calls_on_1d_arrays(self):
        calls = []
        res = rs_integral(_counting(np.cos, calls), np.sin, 0.0, 1.0,
                          QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=12))
        # levels of 2**4 to 2**12 cells: one midpoint call each; no level
        # difference passes, so only the first and the last level run their
        # replica block, one call each
        assert len(res.levels) == 9
        assert calls == [1] * 11

    def test_probe_adds_one_g_call(self, monkeypatch):
        g = make("step2pi", 0.5)
        f = make("step2pi", 0.5)
        calls = []
        call = BoundaryFunction.__call__

        def counted(self, t):
            if self is g:
                calls.append(np.ndim(t))
            return call(self, t)

        monkeypatch.setattr(BoundaryFunction, "__call__", counted)
        res = rs_integral(g, f, -math.pi, math.pi, QuadratureOptions(rel_tol=1e-4, k_max=10))
        # one call at the atoms, then per level one midpoint call, on no tags:
        # the rest of a step is flat, so no level runs a replica block
        assert calls == [1] * (1 + len(res.levels))

    def test_sparse_levels_evaluate_their_live_cells_alone(self):
        tags = []

        def g(t):
            tags.append(t.copy())
            return np.cos(t)

        f = make("cantor")
        # inside the seam atom's images, so every g call is a level's
        res = rs_integral(g, f, -3.0, 3.0, QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=16))
        # no level difference passes: only the first level and the last run
        # their replica block, the last in REPLICAS chunks of one row each
        assert len(res.levels) == 13
        cells = {}
        for k in range(K_MIN, 17):
            pts = _level_points(-3.0, 3.0, 2 ** k, None)
            cells[k] = pts, np.flatnonzero(np.diff(f(pts)))
        # levels 4 and 5 are more than half live and evaluate every cell
        assert [2 * live.size <= pts.size - 1 for pts, live in cells.values()] == [False] * 2 + [True] * 11
        assert [t.size for t in tags] == ([2 ** K_MIN, REPLICAS * 2 ** K_MIN, 2 ** (K_MIN + 1)]
                                          + [cells[k][1].size for k in range(K_MIN + 2, 17)]
                                          + [cells[16][1].size] * REPLICAS)
        for k, t in zip(range(K_MIN + 2, 17), tags[3:]):
            pts, live = cells[k]
            assert np.array_equal(t, (pts[:-1][live] + pts[1:][live]) * 0.5)
        # the last level's chunks: its replica streams, gathered by column
        pts, live = cells[16]
        for rep, t in enumerate(tags[-REPLICAS:]):
            u = np.random.default_rng((0, 16, rep)).random(2 ** 16)
            assert np.array_equal(t, u[live] * np.diff(pts)[live] + pts[:-1][live])

    def test_wider_levels_split_the_block(self):
        calls = []
        res = rs_integral(_counting(np.cos, calls), np.sin, 0.0, 1.0,
                          QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=15))
        # one midpoint call per level; only the first and the last level run
        # their block, in chunks of at most 2**15 tags: 1 chunk at 2**4 cells
        # and REPLICAS at 2**15
        assert len(res.levels) == 12
        assert len(calls) == 12 + 1 + REPLICAS
        assert set(calls) == {1}

    def test_passed_level_stops_at_its_first_wide_chunk(self):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.cos(t)

        res = rs_integral(g, np.sin, 0.0, 1.0, QuadratureOptions(rel_tol=1e-10, abs_tol=0.0, k_max=16))
        # level 15 (2**15 cells, one replica per chunk) passes its difference
        # but not its first replica, so its block stops there; level 16 is the
        # last and runs all of its own
        (_, s14), (_, s15) = res.levels[-3:-1]
        assert abs(s15 - s14) <= 1e-10 * abs(s15)
        # one midpoint call per level; the first level's block is one chunk
        assert sizes == ([2 ** K_MIN, REPLICAS * 2 ** K_MIN] + [2 ** k for k in range(K_MIN + 1, 15)]
                         + [2 ** 15] * 2 + [2 ** 16] * (1 + REPLICAS))

    def test_passed_narrow_level_stops_at_its_first_row_over_the_tolerance(self):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.cos(t)

        opts = QuadratureOptions(rel_tol=1e-8, abs_tol=0.0, k_max=14)
        res = rs_integral(g, np.sin, 0.0, 1.0, opts)
        # levels 2**11 to 2**13 pass their difference, each far narrower than
        # CHUNK_POINTS, but not their first replica row: each makes one
        # replica call, of its n tags; level 2**14 is the last and runs its
        # whole block in chunks of CHUNK_POINTS // n rows
        sums = dict(zip(range(K_MIN, 15), (s for _mesh, s in res.levels)))
        assert all(abs(sums[k] - sums[k - 1]) <= opts.tolerance(abs(sums[k])) for k in (11, 12, 13))
        assert sizes == ([2 ** K_MIN, REPLICAS * 2 ** K_MIN] + [2 ** k for k in range(K_MIN + 1, 11)]
                         + [2 ** 11] * 2 + [2 ** 12] * 2 + [2 ** 13] * 2
                         + [2 ** 14] + [CHUNK_POINTS] * (REPLICAS * 2 ** 14 // CHUNK_POINTS))
        # replica 0 of level 2**11 alone leaves its spread above the tolerance
        pts = _level_points(0.0, 1.0, 2 ** 11, None)
        tags = pts[:-1] + _draws(0, 11, [0], 2 ** 11)[0] * np.diff(pts)
        assert abs(np.sum(np.cos(tags) * np.diff(np.sin(pts))) - sums[11]) > opts.tolerance(abs(sums[11]))

    def test_sparse_cut_block_is_one_call(self):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return np.cos(t)

        f = make("cantor")
        # inside the seam atom's images, so every g call is a level's
        res = rs_integral(g, f, -3.0, 3.0, QuadratureOptions(rel_tol=1e-3, abs_tol=0.0, k_max=14))
        assert res.status is RSStatus.CONVERGED and len(res.levels) == 7
        live = {k: np.count_nonzero(np.diff(f(_level_points(-3.0, 3.0, 2 ** k, None)))) for k in range(K_MIN, 11)}
        # levels 2**7, 2**9 and 2**10 pass their difference and gather at most
        # 154 live cells: each cut block is one call of all REPLICAS rows
        assert [live[k] for k in (7, 9, 10)] == [40, 96, 154]
        want = []
        for k in range(K_MIN, 11):
            want.append(live[k] if 2 * live[k] <= 2 ** k else 2 ** k)
            if k in (K_MIN, 7, 9, 10):
                want.append(REPLICAS * want[-1])
        assert sizes == want

    def test_rows_are_the_seeded_streams_on_interleaved_threads(self):
        # _draws builds one generator per row, so interleaved threads must
        # still get each row's own stream
        jobs = [(seed, k, n) for seed in (70101, 70102) for k, n in ((5, 3), (11, 40), (17, 7))]
        want = {(seed, k): np.array([np.random.default_rng((seed, k, rep)).random(n) for rep in range(REPLICAS)])
                for seed, k, n in jobs}

        def run(job):
            seed, k, n = job
            # every row alone, then pairs of rows, then the whole block
            blocks = [range(rep, rep + 1) for rep in range(REPLICAS)] + [range(r0, r0 + 2) for r0 in (0, 3, 6)]
            return [(reps, _draws(seed, k, reps, n)) for _ in range(5) for reps in blocks + [range(REPLICAS)]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(run, jobs * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (seed, k, n), rows in zip(jobs * 2, results):
            for reps, u in rows:
                assert np.array_equal(u, want[seed, k][reps.start:reps.stop])

    def test_cached_rows_are_the_seeded_streams_and_read_only(self):
        u = _cached_draws(7, 5, 33)
        assert u.shape == (REPLICAS, 33)
        for rep in range(REPLICAS):
            assert np.array_equal(u[rep], np.random.default_rng((7, 5, rep)).random(33))
        with pytest.raises(ValueError):
            u[0, 0] = 0.5
        assert _cached_draws(7, 5, 33) is u

    def test_cache_stays_bounded(self):
        # three entries more than the cache holds, all at the widest sizes
        maxsize = _cached_draws.cache_info().maxsize
        for n in range(CHUNK_POINTS - maxsize - 2, CHUNK_POINTS + 1):
            _cached_draws(8, 10, n)
        info = _cached_draws.cache_info()
        assert info.currsize == info.maxsize
        largest = _cached_draws(8, 10, CHUNK_POINTS).nbytes
        assert info.maxsize * largest <= quadrature.DRAW_CACHE_BYTES

    def test_widest_cached_rows_are_the_seeded_streams_and_read_only(self):
        u = _cached_draws(11, 15, CHUNK_POINTS)
        assert u.shape == (REPLICAS, CHUNK_POINTS)
        for rep in range(REPLICAS):
            assert np.array_equal(u[rep], np.random.default_rng((11, 15, rep)).random(CHUNK_POINTS))
        assert not u.flags.writeable

    def test_level_past_the_cache_draws_afresh(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        # level 16 has twice CHUNK_POINTS cells, so each replica is a chunk of its own
        rs_integral(np.cos, make("sawtooth"), 0.0, 4.0,
                    QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=16, seed=70103))
        assert [d for d in drawn if d[0] == 16] == [(16, 1, 2 ** 16)] * REPLICAS

    def test_repeated_ladder_draws_nothing(self, monkeypatch):
        # a seed no other test uses, so the first run fills the cache itself
        opts = QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=15, seed=70104)
        first = rs_integral(np.cos, np.sin, 0.0, 1.0, opts)
        drawn = _counting_draws(monkeypatch)
        again = rs_integral(np.cos, np.sin, 0.0, 1.0, opts)
        assert drawn == []
        assert len(first.levels) == 12
        assert repr(again) == repr(first)

    def test_threads_get_the_serial_values(self):
        # a seed no other test uses, so the threads fill the cache themselves
        opts = QuadratureOptions(rel_tol=1e-5, abs_tol=1e-9, seed=90210)
        jobs = [(w, make(name), DiskPoint(r, 0.7)) for w in ("U", "V")
                for name in ("sin", "cantor") for r in (0.5, 0.9)]

        def run(job):
            res = disk_transform(*job, opts)
            return repr((res.value, res.est_error, res.status, len(res.levels)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(run, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [run(job) for job in jobs]


class TestNestedLevels:
    def _f_sizes(self, monkeypatch, phi):
        sizes = []
        call = BoundaryFunction.__call__

        def counted(self, t):
            if self is phi:
                sizes.append(np.size(t))
            return call(self, t)

        monkeypatch.setattr(BoundaryFunction, "__call__", counted)
        return sizes

    @staticmethod
    def _one_call_per_level(levels):
        # the first level's grid and both ends, then each level's new half
        return [2 ** K_MIN + 1 + 2] + [2 ** (k - 1) for k in range(K_MIN + 1, K_MIN + levels)]

    @pytest.mark.parametrize("grading", [None, (0.5, 1e-3)])
    def test_f_sees_each_level_s_new_points_once(self, monkeypatch, grading):
        # atoms at -1 and 0.5 inside the window and on both of its ends
        phi = make("cbv_demo")
        sizes = self._f_sizes(monkeypatch, phi)
        res = rs_integral(np.cos, phi, -math.pi, math.pi, QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=10),
                          grading=grading)
        assert len(res.levels) == 7
        assert sizes == self._one_call_per_level(7)

    @pytest.mark.parametrize("a, b, grading", [(-3.0, 3.0, None), (0.0, TWO_PI, (math.pi, 1e-3))])
    def test_cantor_ladder_calls_f_on_the_new_points_of_live_cells(self, monkeypatch, a, b, grading):
        # [0, 2 pi] holds the seam atom at pi, so f is called through the rest
        phi = make("cantor")
        rest = quadrature._split(phi, np.cos, a, b)[2]
        levels = [_level_points(a, b, 2 ** k, grading) for k in range(K_MIN, 13)]
        live = [np.flatnonzero(np.diff(rest(pts))) for pts in levels]
        seen = []
        call = BoundaryFunction.__call__

        def recorded(self, t):
            if self is phi:
                seen.append(np.array(t, copy=True))
            return call(self, t)

        monkeypatch.setattr(BoundaryFunction, "__call__", recorded)
        res = rs_integral(np.cos, phi, a, b, QuadratureOptions(rel_tol=1e-15, abs_tol=0.0, k_max=12), grading=grading)
        assert len(res.levels) == len(seen) == len(levels)
        assert seen[0].size == 2 ** K_MIN + 1 + 2
        for pts, prev_live, t in zip(levels[1:], live, seen[1:]):
            # a flat cell's new point is not evaluated
            assert np.array_equal(t, pts[1::2][prev_live])
        assert seen[-1].size < 2 ** 10

    def test_cantor_kind_without_its_seam_drop_gives_the_eager_ladder(self):
        # undeclared, the seam drop stays in the rest, which then falls: over
        # many turns a cell whose ends agree can span a whole rise
        phi = BoundaryFunction(name="seamless", kind="cantor", depth=24, margin=0.05)
        opts = QuadratureOptions(rel_tol=1e-4, k_max=12)
        got = rs_integral(np.cos, phi, -50.0, 50.0, opts)
        want = eager_rs_integral(np.cos, phi, -50.0, 50.0, opts)
        assert (repr(got.value), repr(got.est_error), got.status, repr(got.levels)) == (
            repr(want.value), repr(want.est_error), want.status, repr(want.levels))

    def test_rerun_levels_call_no_f(self):
        # the divergence rule of the spikes run evaluates three earlier
        # levels again, from the finest grid and its f values
        sizes = []

        def identity(t):
            sizes.append(np.size(t))
            return np.asarray(t, dtype=float)

        res = rs_integral(make("spikes"), identity, 0.0, 1.0)
        assert res.status is RSStatus.DIVERGED
        assert sizes == self._one_call_per_level(len(res.levels))

    def test_each_level_is_built_once_plus_once_per_back_filled_block(self, monkeypatch):
        # the spikes run's divergence rule completes blocks its earlier levels
        # skipped; nothing else may build a level a second time
        built, back_filled = Counter(), Counter()
        level, replica_spread = quadrature._NestedLevels.level, quadrature._replica_spread

        def counted_level(self, k):
            built[k] += 1
            return level(self, k)

        def counted_spread(g, lv, seed, k, *rest):
            if k < max(built):
                back_filled[k] += 1
            return replica_spread(g, lv, seed, k, *rest)

        monkeypatch.setattr(quadrature._NestedLevels, "level", counted_level)
        monkeypatch.setattr(quadrature, "_replica_spread", counted_spread)
        res = rs_integral(make("spikes"), lambda t: np.asarray(t, dtype=float), 0.0, 1.0)
        assert res.status is RSStatus.DIVERGED
        assert sum(back_filled.values()) > 0
        assert dict(built) == {k: 1 + back_filled[k] for k in range(K_MIN, K_MIN + len(res.levels))}
