import cmath
import math

import numpy as np
import pytest

from stieltjes import (
    ApproachPath,
    BoundaryFunction,
    DiskPoint,
    DomainError,
    cauchy_identity_residual,
    duality_residual,
    reduce_angle,
)
from stieltjes.core import _cantor_plateau_flag, _cantor_staircase, jump_images, principal_angle

from oracles import cantor_recursive

TWO_PI = 2 * math.pi


class TestReduceAngle:
    def test_identity_inside(self):
        t = np.array([-3.0, -0.5, 0.0, 1.0, 3.1])
        assert np.allclose(reduce_angle(t), t, atol=0)

    def test_half_open_convention(self):
        # pi stays, -pi folds to pi
        assert reduce_angle(math.pi) == pytest.approx(math.pi, abs=0)
        assert reduce_angle(-math.pi) == pytest.approx(math.pi, abs=0)

    def test_periodicity(self):
        t = np.linspace(-3, 3, 41)
        for shift in (-2, -1, 1, 3):
            assert np.allclose(reduce_angle(t + shift * TWO_PI), t, atol=1e-12)

    def test_range(self):
        t = np.linspace(-40, 40, 100003)
        out = reduce_angle(t)
        assert out.max() <= math.pi
        assert out.min() > -math.pi

    @pytest.mark.parametrize("t", [1e16, 1e17])
    def test_far_scalar_of_any_type_is_its_exact_residue(self, t):
        # one rounded subtraction of 2*pi puts 1e17 at 0.0
        want = principal_angle(t)
        assert reduce_angle(t) == want
        assert reduce_angle(np.float64(t)) == want
        assert reduce_angle(np.array(t)) == want

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_scalar_is_nan(self, t):
        assert math.isnan(reduce_angle(t))

    def test_scalar_keeps_the_sign_of_zero_and_arrays_do_not(self):
        assert math.copysign(1.0, reduce_angle(-0.0)) == -1.0
        assert math.copysign(1.0, reduce_angle(np.array([-0.0]))[0]) == 1.0


class TestPrincipalAngle:
    @pytest.mark.parametrize("t", [-0.0, 0.0, math.pi, -3.0, 1e-300])
    def test_window_passes_through(self, t):
        assert repr(principal_angle(t)) == repr(t)

    def test_minus_pi_folds_to_pi(self):
        assert principal_angle(-math.pi) == math.pi

    @pytest.mark.parametrize("t", [7.0, -40.0, 5e15, 1e16, -3e16, 1e17, 1e300])
    def test_far_angle_is_its_exact_residue(self, t):
        # one rounded subtraction of 2*pi misses 1e17's residue by about 2.7
        a = principal_angle(t)
        assert -math.pi < a <= math.pi
        assert math.cos(a) == pytest.approx(math.cos(t), abs=1e-15)
        assert math.sin(a) == pytest.approx(math.sin(t), abs=1e-15)
        assert a == cmath.phase(DiskPoint(0.5, t).z)


class TestBoundaryFunctionKinds:
    def test_closed_form_reduces_argument(self):
        phi = BoundaryFunction(name="s", kind="closed_form", fn=np.sin)
        assert phi(1.0 + TWO_PI) == pytest.approx(math.sin(1.0), abs=1e-15)

    def test_step_right_continuity_and_accumulation(self):
        phi = BoundaryFunction(name="st", kind="step", jumps=((0.5, 2.0),),
                               base=1.0, period_increment=2.0)
        assert phi(0.5 - 1e-9) == pytest.approx(1.0)
        assert phi(0.5) == pytest.approx(3.0)  # right-continuous at the atom
        assert phi(0.5 + 1e-9) == pytest.approx(3.0)
        # accumulates across periods rather than repeating values
        for t in (-2.0, 0.1, 2.9):
            assert phi(t + TWO_PI) - phi(t) == pytest.approx(2.0, abs=1e-12)

    def test_step_multiple_atoms(self):
        phi = BoundaryFunction(name="m", kind="step",
                               jumps=((-2.0, 1.5), (0.5, -2.2), (2.4, 0.8)),
                               base=0.3, period_increment=0.1)
        assert phi(-3.0) == pytest.approx(0.3)  # between 2.4 - 2pi and -2.0
        assert phi(-4.0) == pytest.approx(0.3 - 0.8)  # below the 2.4 - 2pi image
        assert phi(0.0) == pytest.approx(0.3 + 1.5)
        assert phi(1.0) == pytest.approx(0.3 + 1.5 - 2.2)
        assert phi(3.0) == pytest.approx(0.3 + 0.1)

    def test_piecewise_left_continuous_interior(self):
        pieces = ((-math.pi, 0.0, lambda t: np.zeros_like(t), None),
                  (0.0, math.pi, lambda t: np.ones_like(t), None))
        phi = BoundaryFunction(name="pw", kind="piecewise", pieces=pieces,
                               jumps=((0.0, 1.0),))
        assert phi(0.0) == pytest.approx(0.0)  # (lo, hi]: 0 belongs to the first piece
        assert phi(1e-12) == pytest.approx(1.0)

    def test_pathological_domain_checked(self):
        phi = BoundaryFunction(name="p", kind="pathological",
                               fn=lambda t: np.asarray(t), domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            phi(np.array([0.5, 1.5]))

    def test_derivative_known_value(self):
        phi = BoundaryFunction(name="s", kind="closed_form", fn=np.sin, dfn=np.cos)
        assert phi.derivative(0.7) == pytest.approx(math.cos(0.7), abs=1e-12)

    def test_derivative_refused_at_jump(self):
        phi = BoundaryFunction(name="st", kind="step", jumps=((0.5, 2.0),),
                               period_increment=2.0)
        assert phi.derivative(0.5) is None
        assert phi.derivative(0.5 + TWO_PI) is None
        assert phi.derivative(2.0) == 0.0

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown boundary function kind"):
            BoundaryFunction(name="x", kind="smooth", fn=np.sin)

    def test_jump_at_minus_pi_refused(self):
        # -pi is pi on the circle, and atoms live in (-pi, pi]
        with pytest.raises(ValueError, match=r"jump locations must lie in \(-pi, pi\]"):
            BoundaryFunction(name="st", kind="step", jumps=((-math.pi, 1.0),))

    def test_charge_neutrality(self):
        step = BoundaryFunction(name="st", kind="step", jumps=((0.0, TWO_PI),),
                                period_increment=TWO_PI)
        assert not step.is_charge_neutral()
        flat = BoundaryFunction(name="c", kind="closed_form", fn=np.cos)
        assert flat.is_charge_neutral()

    def test_step_derives_increment_and_bound(self):
        phi = BoundaryFunction(name="st", kind="step", jumps=((0.5, 2.0), (1.0, -0.5)), base=-1.0)
        assert phi.period_increment == 1.5
        assert phi.bounded_by == 3.5
        # the derived increment is what makes the Cauchy identity hold
        assert cauchy_identity_residual(phi, DiskPoint(0.5, 0.3)) < 1e-12
        with pytest.raises(ValueError):
            duality_residual(phi, DiskPoint(0.5, 0.3))

    @pytest.mark.parametrize("kind, increment", [("step", 0.0), ("closed_form", 2.0)])
    def test_disagreeing_increment_refused(self, kind, increment):
        with pytest.raises(ValueError):
            BoundaryFunction(name="x", kind=kind, fn=np.sin, jumps=((0.5, 2.0),),
                             period_increment=increment)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            BoundaryFunction(name="st", kind="step", jumps=((0.5, 1.0), (1.0, bad)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_base_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            BoundaryFunction(name="st", kind="step", jumps=((0.5, 1.0),), base=bad)


class TestCantorStaircase:
    def test_against_recursive_oracle(self):
        xs = np.concatenate([np.linspace(0, 1, 97),
                             [1 / 3, 2 / 3, 0.25, 1 / 9, 8 / 9, 0.5]])
        got = _cantor_staircase(xs, 40)
        want = np.array([cantor_recursive(float(x)) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-11

    def test_exact_plateau_values(self):
        # 1/4 = 0.0202... and 3/4 = 0.2020... in ternary, so the digit map
        # gives exactly 1/3 and 2/3; tripling dyadics is float-exact, so a
        # deep cutoff costs nothing
        got = _cantor_staircase(np.array([0.5, 0.25, 0.75]), 50)
        assert got[0] == pytest.approx(0.5, abs=0)
        assert got[1] == pytest.approx(1 / 3, abs=1e-12)
        assert got[2] == pytest.approx(2 / 3, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0, 1, 20001)
        v = _cantor_staircase(xs, 30)
        assert np.all(np.diff(v) >= -1e-15)

    def test_endpoints(self):
        assert _cantor_staircase(np.array([0.0]), 20)[0] == 0.0
        assert _cantor_staircase(np.array([1.0]), 20)[0] == 1.0


class TestCantorPlateauFlag:
    # exact staircase coordinates; plateaus and margins are checked through
    # the angle map in tests/test_zoo.py
    @pytest.mark.parametrize("x", [1 / 3, 2 / 3, 1 / 9, 0.25, 0.0, 1.0])
    def test_edges_corners_and_cantor_set_points_are_not_flat(self, x):
        # 1/4 = 0.0202... in ternary never reaches the middle third
        assert not _cantor_plateau_flag(x, 24)


class TestJumpImages:
    def test_periodic_images_in_window(self):
        images = jump_images(((0.5, 1.0),), -math.pi, 3 * math.pi)
        locs = [loc for loc, _ in images]
        assert locs == pytest.approx([0.5, 0.5 + TWO_PI])

    def test_edges_included(self):
        images = jump_images(((math.pi, -1.0),), -math.pi, math.pi)
        locs = [loc for loc, _ in images]
        # the seam atom shows up at both window edges
        assert locs == pytest.approx([-math.pi, math.pi])

    def test_sorted_and_weighted(self):
        images = jump_images(((2.0, 0.3), (-1.0, 0.7)), 0.0, TWO_PI)
        assert images == sorted(images)
        assert {h for _, h in images} == {0.3, 0.7}


class TestAtoms:
    def test_periodic_images_in_window(self):
        phi = BoundaryFunction(name="st", kind="step", jumps=((0.5, 1.0), (math.pi, -1.0)))
        assert [loc for loc, _h in jump_images(phi.jumps, -math.pi, math.pi)] == [-math.pi, 0.5, math.pi]
        locs = [loc for loc, _h in jump_images(phi.jumps, 0.0, 2 * TWO_PI)]
        assert locs == pytest.approx([0.5, math.pi, 0.5 + TWO_PI, 3 * math.pi])

    def test_pathological_atoms_do_not_repeat(self):
        phi = BoundaryFunction(name="p", kind="pathological", fn=lambda t: t,
                               jumps=((0.5, 1.0),), domain=(-10.0, 10.0))
        assert [loc for loc, _h in jump_images(phi.jumps, -10.0, 10.0, periodic=False)] == [0.5]

    def test_atom_near_on_the_circle(self):
        phi = BoundaryFunction(name="st", kind="step", jumps=((math.pi, 1.0),))
        assert phi.atom_near(math.pi) == math.pi
        assert phi.atom_near(-math.pi + 1e-10) == math.pi
        assert phi.atom_near(math.pi + 3 * TWO_PI) == math.pi
        assert phi.atom_near(math.pi - 1e-8) is None

    @pytest.mark.parametrize("t", [1e16, 1e17])
    def test_atom_near_a_far_angle(self, t):
        # t - loc rounds to a multiple of t's ulp, far coarser than ATOM_GUARD
        loc = principal_angle(t)
        phi = BoundaryFunction(name="st", kind="step", jumps=((loc, 1.0),))
        assert phi.atom_near(t) == loc
        assert phi.derivative(t) is None

    def test_no_atoms(self):
        phi = BoundaryFunction(name="s", kind="closed_form", fn=np.sin, dfn=np.cos)
        assert jump_images(phi.jumps, -math.pi, math.pi) == []
        assert phi.atom_near(0.0) is None


class TestDiskPoint:
    def test_z_and_back(self):
        p = DiskPoint(0.5, 1.0)
        q = DiskPoint.from_complex(p.z)
        assert q.r == pytest.approx(0.5)
        assert q.theta == pytest.approx(1.0)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            DiskPoint(1.0, 0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError):
            DiskPoint(0.5, theta)


class TestApproachPath:
    def test_radial_schedule(self):
        path = ApproachPath(0.7, 0.0)
        pts = path.points()
        assert len(pts) == 14
        # z_k = (1 - 2^-k) e^{i 0.7} exactly for the radial path
        assert pts[0].r == pytest.approx(0.5)
        assert pts[-1].r == pytest.approx(1 - 2.0 ** -14)
        assert all(p.theta == pytest.approx(0.7) for p in pts)

    def test_stolz_stays_in_disk_and_converges(self):
        path = ApproachPath(0.0, math.pi / 3)
        pts = path.points()
        assert all(p.r < 1 for p in pts)
        d = [abs(p.z - 1.0) for p in pts]
        assert d == sorted(d, reverse=True)

    def test_indexed_points_skip_recorded(self):
        wide = ApproachPath(0.0, math.pi / 2 - 1e-3)
        ks = [k for k, _ in wide.indexed_points()]
        assert ks == sorted(ks)
        assert ks[0] >= 1

    def test_rejects_tangential(self):
        with pytest.raises(DomainError):
            ApproachPath(0.0, math.pi / 2)

    @pytest.mark.parametrize("alpha,k_max", [(0.0, 54), (1.5, 52)])
    def test_rejects_depth_that_rounds_onto_circle(self, alpha, k_max):
        with pytest.raises(DomainError, match="k_max"):
            ApproachPath(0.3, alpha, k_max=k_max)

    def test_rejects_k_max_below_one(self):
        with pytest.raises(ValueError, match="k_max"):
            ApproachPath(0.3, 0.0, k_max=0)

    @pytest.mark.parametrize("k_max", [5.5, 5.0, True])
    def test_rejects_k_max_that_is_not_an_int(self, k_max):
        with pytest.raises(ValueError, match="k_max must be an int"):
            ApproachPath(0.3, 0.0, k_max=k_max)

    @pytest.mark.parametrize("target,alpha,name", [
        (math.nan, 0.0, "target_angle nan"), (math.inf, 0.0, "target_angle inf"), (0.3, math.nan, "alpha nan"),
    ])
    def test_rejects_non_finite_angles(self, target, alpha, name):
        with pytest.raises(DomainError, match=name):
            ApproachPath(target, alpha)

    def test_deepest_representable_depth_yields_points(self):
        pts = ApproachPath(0.3, 0.0, k_max=53).points()
        assert len(pts) == 53
        assert all(p.r < 1.0 for p in pts)
