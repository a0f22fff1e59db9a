import math

import numpy as np
import pytest

from stieltjes import DiskPoint, DomainError, catalog, make, poisson_limit_check, poisson_stieltjes
from stieltjes.core import principal_angle
from stieltjes.zoo import NAMES

from oracles import cantor_recursive

TWO_PI = 2 * math.pi


class TestCatalog:
    def test_all_names_constructible(self):
        for name in NAMES:
            assert make(name).name == name

    def test_catalog_covers_names(self):
        assert tuple(phi.name for phi in catalog()) == NAMES

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="step2pi"):
            make("unknown_thing")

    def test_every_entry_is_bounded_with_declared_bound(self):
        t = np.linspace(-math.pi, math.pi, 4001)
        for phi in catalog():
            if phi.kind == "pathological":
                continue
            assert phi.bounded_by is not None
            assert np.max(np.abs(phi(t))) <= phi.bounded_by + 1e-9

    def test_evaluation_keeps_array_shape(self):
        # points inside [0, 1], the domain of spikes
        t = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        for phi in catalog():
            assert np.array_equal(phi(t), phi(t.ravel()).reshape(3, 4)), phi.name

    def test_finite_jump_lists(self):
        for phi in catalog():
            assert len(phi.jumps) < 10
            for loc, h in phi.jumps:
                assert -math.pi < loc <= math.pi
                assert h != 0


class TestSimpleEntries:
    def test_const_has_no_variation(self):
        phi = make("const")
        t = np.linspace(-10, 10, 101)
        assert np.ptp(phi(t)) == 0.0

    def test_linear_is_identity_on_the_period(self):
        phi = make("linear")
        t = np.linspace(-3, 3, 61)
        assert np.allclose(phi(t), t, atol=1e-12)
        assert phi.derivative(0.4) == 1.0

    def test_sin_cos_derivatives(self):
        assert make("sin").derivative(0.7) == pytest.approx(math.cos(0.7))
        assert make("cos").derivative(0.7) == pytest.approx(-math.sin(0.7))

    def test_derivative_at_a_far_angle(self):
        # cos at 1e17's exact residue, not at the 0.0 of one rounded subtraction
        assert make("sin").derivative(1e17) == pytest.approx(math.cos(1e17), abs=1e-15)

    def test_sawtooth_scaling(self):
        phi = make("sawtooth")
        assert phi(0.5) == pytest.approx(0.5 / math.pi)
        assert phi.derivative(1.0) == pytest.approx(1 / math.pi)
        assert phi(math.pi) == pytest.approx(1.0)


class TestSteps:
    def test_step2pi_jump_parameter(self):
        phi = make("step2pi", 1.2)
        assert phi.jumps == ((1.2, TWO_PI),)
        assert phi(1.2) - phi(1.2 - 1e-9) == pytest.approx(TWO_PI, rel=1e-6)

    def test_step2pi_angle_reduces(self):
        phi = make("step2pi", 1.2 + TWO_PI)
        assert phi.jumps[0][0] == pytest.approx(1.2)

    def test_step2pi_far_angle_is_its_exact_residue(self):
        t0 = principal_angle(1e16)
        phi = make("step2pi", 1e16)
        assert phi.jumps[0][0] == t0
        # the atom of mass 2*pi sits right under z: U is the kernel's peak (1 + r) / (1 - r)
        assert poisson_stieltjes(phi, DiskPoint(0.5, t0)).value == pytest.approx(3.0, abs=1e-6)

    def test_multi_step_mixed_signs(self):
        phi = make("multi_step")
        signs = {h > 0 for _, h in phi.jumps}
        assert signs == {True, False}
        assert len(phi.jumps) == 3
        assert phi.period_increment == pytest.approx(sum(h for _, h in phi.jumps))


class TestCantor:
    def test_matches_recursive_oracle_through_the_angle_map(self):
        phi = make("cantor")
        m = phi.margin
        for x in (0.1, 0.25, 1 / 3, 0.5, 0.7, 8 / 9):
            t = ((x * (1 - 2 * m) + m) - 0.5) * TWO_PI
            assert float(phi(t)) == pytest.approx(cantor_recursive(x), abs=2e-8)

    def test_flat_margins_at_seam(self):
        phi = make("cantor")
        assert float(phi(-math.pi + 1e-6)) == pytest.approx(0.0, abs=1e-12)
        assert float(phi(math.pi - 1e-6)) == pytest.approx(1.0, abs=1e-12)

    def test_total_rise_independent_of_depth(self):
        for depth in (8, 16, 24):
            phi = make("cantor", depth)
            rise = float(phi(math.pi - 1e-9)) - float(phi(-math.pi + 1e-9))
            assert rise == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_inside_period(self):
        phi = make("cantor")
        t = np.linspace(-math.pi + 1e-9, math.pi - 1e-9, 30001)
        assert np.all(np.diff(phi(t)) >= -1e-15)

    def test_depth_bounded(self):
        # construction only: a deep staircase is never evaluated here
        assert make("cantor", 53).depth == 53
        for depth in (0, 54, 1_000_000):
            with pytest.raises(ValueError):
                make("cantor", depth)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_depth_refused(self, bad):
        with pytest.raises(ValueError, match="cantor parameters must be finite"):
            make("cantor", bad)

    def test_plateau_derivative_is_zero(self):
        phi = make("cantor")
        assert phi.derivative(0.0) == 0.0

    @pytest.mark.parametrize("x", [1 / 6, 5 / 6, 1 / 18, 5 / 18, 13 / 18, 17 / 18, 1 / 54, -0.01, 1.01])
    def test_derivative_is_zero_on_plateaus_and_margins(self, x):
        phi = make("cantor")
        m = phi.margin
        assert phi.derivative(((x * (1 - 2 * m) + m) - 0.5) * TWO_PI) == 0.0

    def test_no_derivative_at_the_corners_of_the_rise(self):
        # U rises without bound along the radius at a corner, so no limit
        # check may expect 0 there; the margins just outside stay flat
        phi = make("cantor")
        lower, upper = -math.pi + 0.1 * math.pi, math.pi - 0.1 * math.pi
        assert phi.derivative(lower) is None
        assert phi.derivative(upper) is None
        assert phi.derivative(lower - 1e-3) == 0.0
        assert phi.derivative(upper + 1e-3) == 0.0
        with pytest.raises(ValueError, match="does not certify a derivative"):
            poisson_limit_check(phi, lower)

    def test_integral_float_depth_accepted(self):
        assert make("cantor", 24.0).depth == 24

    @pytest.mark.parametrize("name, value, what", [("cantor", 2.7, "cantor depth"), ("spikes", 2.5, "spikes n_max")])
    def test_fractional_integer_parameter_refused(self, name, value, what):
        with pytest.raises(ValueError, match=what):
            make(name, value)

    def test_seam_bookkeeping(self):
        phi = make("cantor")
        # the periodized staircase drops by its full rise crossing the seam,
        # recorded as a declared atom so quadrature can pin it
        assert phi.jumps == ((math.pi, -1.0),)
        assert phi.is_charge_neutral()


class TestSpikes:
    def test_reciprocal_grid_values(self):
        phi = make("spikes")
        for n in (1, 2, 7, 100):
            assert float(phi(1.0 / n)) == n * n

    def test_off_grid_values_vanish(self):
        phi = make("spikes")
        t = np.array([0.4, 0.3, 2 / 3, 0.9])
        assert np.all(phi(t) == 0.0)

    def test_domain_enforced(self):
        phi = make("spikes")
        with pytest.raises(DomainError):
            phi(np.array([-0.25]))

    def test_needs_at_least_one_spike(self):
        with pytest.raises(ValueError, match="n_max >= 1"):
            make("spikes", 0)

    def test_truncation_parameter(self):
        phi = make("spikes", 100)
        assert float(phi(1.0 / 101)) == 0.0
        assert float(phi(1.0 / 99)) == 99 * 99


class TestCbvDemo:
    def test_piece_functions_and_atoms_agree(self):
        phi = make("cbv_demo")
        # every declared atom must equal the actual left-right mismatch
        for loc, h in phi.jumps:
            if loc == math.pi:
                continue  # seam atom, checked via periodization below
            lo = float(phi(loc - 1e-9))
            hi = float(phi(loc + 1e-9))
            assert hi - lo == pytest.approx(h, abs=1e-6)

    def test_seam_atom_closes_the_period(self):
        phi = make("cbv_demo")
        seam = [h for loc, h in phi.jumps if loc == math.pi]
        assert len(seam) == 1
        wrap = float(phi(-math.pi + 1e-9)) - float(phi(math.pi - 1e-9))
        assert wrap == pytest.approx(seam[0], abs=1e-6)

    def test_charge_neutral(self):
        phi = make("cbv_demo")
        assert phi.is_charge_neutral()

    def test_derivative_inside_pieces_and_none_at_atoms(self):
        phi = make("cbv_demo")
        assert phi.derivative(-2.0) == -np.sin(-4.0)
        assert phi.derivative(0.0) == 0.3
        assert phi.derivative(2.0) == -0.4 * np.cos(2.0)
        assert phi.derivative(-1.0) is None
        assert phi.derivative(0.5) is None
