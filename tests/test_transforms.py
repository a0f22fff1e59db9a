import dataclasses
import math

import numpy as np
import pytest

from stieltjes import (
    DiskPoint,
    DomainError,
    NonConvergentError,
    RSStatus,
    cauchy_identity_residual,
    cauchy_stieltjes,
    conj_poisson,
    conj_poisson_stieltjes,
    conjugacy_residual,
    duality_residual,
    harmonicity_diagnostics,
    make,
    poisson,
    poisson_stieltjes,
    schwartz_stieltjes,
)
from stieltjes import transforms
from stieltjes.transforms import KERNELS, TRANSFORM_OPTS

from oracles import by_parts_poisson, tsin

TWO_PI = 2 * math.pi


def _bits(a):
    return np.asarray(a).tobytes()


class TestKernelTable:
    @pytest.mark.parametrize("z", [DiskPoint(0.0, 0.4), DiskPoint(0.7, 1.3), DiskPoint(0.9999, -2.4),
                                   DiskPoint(1.0 - 2.0 ** -52, 3.0)])
    def test_s_and_c_are_built_from_u_and_v_bit_for_bit(self, z):
        kernel = {which: KERNELS[which](z) for which in KERNELS}
        t = np.linspace(-math.pi, math.pi, 1001)
        u, v, s, c = (kernel[which](t) for which in "UVSC")
        assert _bits(s.real) == _bits(u) and _bits(s.imag) == _bits(v)
        assert _bits(c) == _bits((s + 1) / 2)
        for tag in (-math.pi, -1.0, 0.0, z.theta, 2.5, math.pi):
            u, v, s, c = (kernel[which](tag) for which in "UVSC")
            assert _bits(s) == _bits(complex(u, v))
            assert _bits(c) == _bits((s + 1) / 2)


class TestClosedFormFields:
    def test_constant_integrator_gives_zero_field(self):
        res = poisson_stieltjes(make("const"), DiskPoint(0.5, 1.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("z", [DiskPoint(0.3, 0.0), DiskPoint(0.7, 1.3),
                                   DiskPoint(0.9, -2.4)])
    def test_sin_poisson_field(self, z):
        # dPhi = cos t dt extends harmonically to r cos(theta)
        res = poisson_stieltjes(make("sin"), z)
        assert res.converged
        assert res.value == pytest.approx(z.r * math.cos(z.theta), abs=1e-7)

    @pytest.mark.parametrize("z", [DiskPoint(0.3, 0.4), DiskPoint(0.8, -1.0)])
    def test_sin_conjugate_field(self, z):
        res = conj_poisson_stieltjes(make("sin"), z)
        assert res.value == pytest.approx(z.r * math.sin(z.theta), abs=1e-7)

    def test_cos_fields(self):
        z = DiskPoint(0.6, 0.9)
        u = poisson_stieltjes(make("cos"), z)
        v = conj_poisson_stieltjes(make("cos"), z)
        # dPhi = -sin t dt: the analytic completion is i z
        assert u.value == pytest.approx(-0.6 * math.sin(0.9), abs=1e-7)
        assert v.value == pytest.approx(0.6 * math.cos(0.9), abs=1e-7)

    def test_schwartz_is_u_plus_iv(self):
        z = DiskPoint(0.55, 2.0)
        phi = make("cbv_demo")
        s = schwartz_stieltjes(phi, z)
        u = poisson_stieltjes(phi, z)
        v = conj_poisson_stieltjes(phi, z)
        # the three ladders stop at levels of their own: each value is
        # promised within its est_error alone
        assert s.converged and u.converged and v.converged
        assert abs(s.value - complex(u.value, v.value)) <= s.est_error + u.est_error + v.est_error

    def test_fields_at_origin(self):
        # U(0) is the total mass / 2pi; V(0) = 0 is the conjugate normalization
        phi = make("sin")
        assert poisson_stieltjes(phi, DiskPoint(0.0, 0.0)).value == pytest.approx(0.0, abs=1e-10)
        assert conj_poisson_stieltjes(phi, DiskPoint(0.0, 0.0)).value == pytest.approx(0.0, abs=1e-10)
        step = make("step2pi", 0.3)
        assert poisson_stieltjes(step, DiskPoint(0.0, 0.0)).value == pytest.approx(1.0, abs=1e-12)

    def test_accepts_plain_complex_argument(self):
        z = 0.4 + 0.2j
        res = poisson_stieltjes(make("sin"), z)
        assert res.value == pytest.approx(z.real, abs=1e-7)


class TestStepCollapse:
    def test_u_collapses_to_poisson_kernel(self):
        phi = make("step2pi", 0.5)
        for r, th in ((0.3, 1.0), (0.9, -2.0), (0.99, 0.51)):
            res = poisson_stieltjes(phi, DiskPoint(r, th))
            assert res.value == pytest.approx(poisson(r, th - 0.5), abs=1e-12)
            assert res.est_error == 0.0

    def test_v_collapses_to_conjugate_kernel(self):
        phi = make("step2pi", 0.5)
        for r, th in ((0.3, 1.0), (0.9, -2.0)):
            res = conj_poisson_stieltjes(phi, DiskPoint(r, th))
            assert res.value == pytest.approx(conj_poisson(r, th - 0.5), abs=1e-12)

    def test_multi_step_collapses_to_weighted_kernels(self):
        phi = make("multi_step")
        z = DiskPoint(0.7, 0.9)
        res = poisson_stieltjes(phi, z)
        want = sum(h * poisson(0.7, 0.9 - loc) for loc, h in phi.jumps) / TWO_PI
        assert res.value == pytest.approx(want, abs=1e-12)


class TestCauchyIdentity:
    def test_exact_for_neutral_integrators(self):
        z = DiskPoint(0.62, -0.7)
        for name in ("sin", "cantor", "cbv_demo"):
            assert cauchy_identity_residual(make(name), z) < 1e-12

    def test_accounting_term_for_staircases(self):
        z = DiskPoint(0.62, -0.7)
        phi = make("step2pi", 0.4)
        s = complex(poisson_stieltjes(phi, z).value, conj_poisson_stieltjes(phi, z).value)
        direct = cauchy_stieltjes(phi, z)
        # the raw Cauchy quadrature really does sit incr/(4 pi) above S/2
        assert direct.value == pytest.approx(s / 2 + 0.5, abs=1e-10)
        assert cauchy_identity_residual(phi, z) < 1e-10

    def test_unconverged_side_raises(self):
        # next to the middle plateau of the Cantor staircase both sides run
        # all 15 levels and end inconclusive
        with pytest.raises(NonConvergentError) as info:
            cauchy_identity_residual(make("cantor"), DiskPoint(0.9999, 0.0))
        assert info.value.result.status.value == "inconclusive"
        assert len(info.value.result.levels) == 15


class TestDuality:
    def test_sin_matches_ordinary_integral(self):
        assert duality_residual(make("sin"), DiskPoint(0.7, 1.2)) < 1e-7

    def test_cantor_matches_ordinary_integral(self):
        assert duality_residual(make("cantor"), DiskPoint(0.5, 0.8)) < 1e-5

    def test_rejects_non_neutral_integrator(self):
        with pytest.raises(ValueError):
            duality_residual(make("step2pi", 0.0), DiskPoint(0.5, 0.5))


class TestFieldDiagnostics:
    def test_poisson_field_is_harmonic(self):
        phi = make("sin")
        d = harmonicity_diagnostics(lambda z: poisson_stieltjes(phi, z).value,
                                    DiskPoint(0.5, 0.8))
        assert d < 1e-6

    def test_nonharmonic_field_is_flagged(self):
        # the diagnostic is the raw stencil defect h^2 * laplacian, and
        # the laplacian of |z|^2 is 4
        d = harmonicity_diagnostics(lambda z: abs(z.z) ** 2, DiskPoint(0.5, 0.8), h=1e-2)
        assert d == pytest.approx(4e-4, rel=0.05)

    def test_one_call_makes_five_field_evaluations(self):
        calls = []
        harmonicity_diagnostics(lambda z: calls.append(z) or 0.0, DiskPoint(0.5, 0.8))
        assert len(calls) == 5

    @pytest.mark.parametrize("h", [0.0, -1e-2, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, h):
        def field(z):
            raise AssertionError("the field was evaluated")

        with pytest.raises(ValueError, match="step h"):
            harmonicity_diagnostics(field, DiskPoint(0.5, 0.8), h=h)

    def test_conjugacy_of_sin_fields(self):
        assert conjugacy_residual(make("sin"), DiskPoint(0.6, 2.0)) < 1e-6

    def test_conjugacy_of_kernel_pair(self):
        assert conjugacy_residual(make("step2pi", 0.5), DiskPoint(0.6, 2.0)) < 1e-4

    @pytest.mark.parametrize("r", [0.05, 0.96, 0.99])
    def test_conjugacy_stencil_stays_in_annulus(self, r):
        with pytest.raises(DomainError, match="conjugacy probe"):
            conjugacy_residual(make("sin"), DiskPoint(r, 2.0))


class TestGradedDeepRadii:
    @pytest.mark.parametrize("r", [0.97, 0.985, 0.99, 0.9901, 0.995])
    @pytest.mark.parametrize("which", ["U", "V"])
    def test_no_status_cliff_across_radii(self, which, r):
        transform, closed = {"U": (poisson_stieltjes, math.cos), "V": (conj_poisson_stieltjes, math.sin)}[which]
        res = transform(make("sin"), DiskPoint(r, 0.7))
        assert res.converged
        assert abs(res.value - r * closed(0.7)) <= res.est_error

    @pytest.mark.parametrize("which", ["U", "V"])
    def test_converges_at_depth_2_pow_40(self, which):
        # 1 - r = 2^-40: the graded cells at the kernel peak sit near the
        # spacing of doubles, and a merge there would leave the peak unresolved
        transform, closed = {"U": (poisson_stieltjes, math.cos), "V": (conj_poisson_stieltjes, math.sin)}[which]
        r = 1.0 - 2.0 ** -40
        res = transform(make("sin"), DiskPoint(r, 0.7))
        assert res.converged
        assert abs(res.value - r * closed(0.7)) <= res.est_error

    def test_sin_field_stays_accurate_near_boundary(self):
        z = DiskPoint(0.9995, 0.7)
        res = poisson_stieltjes(make("sin"), z)
        assert res.value == pytest.approx(z.r * math.cos(z.theta), abs=1e-6)

    def test_step_field_near_boundary_peak(self):
        z = DiskPoint(0.999, 0.5 + 2e-3)
        res = conj_poisson_stieltjes(make("step2pi", 0.5), z)
        assert res.value == pytest.approx(conj_poisson(0.999, 2e-3), abs=1e-9)

    def test_seam_atom_survives_graded_ends(self):
        # the cantor seam atom sits on the window end -pi; a graded end point
        # a hair above -pi would reduce to the far side of the seam
        res = conj_poisson_stieltjes(make("cantor"), DiskPoint(0.9999, 0.8 * math.pi))
        assert res.converged
        assert res.value == pytest.approx(0.4767208, abs=1e-5)


def _linear_closed_form(which, z):
    """U, V, S or C of ``linear``: dPhi = dt less 2pi at the seam, so S = 1 - (1 - z) / (1 + z)."""
    w = z.z
    s = 2.0 * w / (1.0 + w)
    return {"U": s.real, "V": s.imag, "S": s, "C": s / 2.0}[which]


def _signature(res):
    return repr(res.value), repr(res.est_error), res.status, repr(res.levels)


class TestSlope:
    """disk_transform refines Phi(t) - Phi'(theta) t and adds Phi'(theta) m_K exactly."""

    @pytest.mark.parametrize("which", "UVSC")
    @pytest.mark.parametrize("z", [DiskPoint(0.99999, 1.868984836962194),
                                   DiskPoint(1.0 - 2.0 ** -20, 2.8907108261195082)])
    def test_linear_is_its_closed_form(self, which, z):
        # the slope comes out of f before the seam jump, so for U, S and C
        # the rest is exactly 2pi; taken out after it, the rest
        # (t + 2pi) - t rounds at the peak by more than any replica can see
        res = transforms.disk_transform(which, make("linear"), z)
        ref = _linear_closed_form(which, z)
        assert res.converged
        assert abs(res.value - ref) <= res.est_error + 1e-12 * max(1.0, abs(ref))
        if which != "V":
            assert res.est_error == 0.0

    @pytest.mark.parametrize("phi, theta", [
        *((dataclasses.replace(make("sin"), dfn=lambda t, bad=bad: bad), 0.7)
          for bad in (math.nan, math.inf, -math.inf)),
        # t sin(1/t) has no derivative at 0, and its dfn gives nan there
        (tsin(), 0.0),
    ], ids=["sin-nan", "sin-inf", "sin-minus-inf", "tsin-at-0"])
    @pytest.mark.parametrize("which", "UVSC")
    def test_non_finite_derivative_is_no_slope(self, which, phi, theta):
        z = DiskPoint(0.99, theta)
        got = transforms.disk_transform(which, phi, z)
        want = transforms.disk_transform(which, dataclasses.replace(phi, dfn=None), z)
        assert _signature(got) == _signature(want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r, theta", [(0.99, 0.1), (0.99, 0.05)])
    def test_tsin_meets_its_by_parts_reference(self, r, theta, seed):
        # the two fixed points of the tsin sample; without the slope, the
        # seed-1 run at (0.99, 0.1) certifies a value 3.2e-5 off with
        # est_error 2.2e-5
        coarse, fine = (by_parts_poisson(tsin(), r, theta, n) for n in (2 ** 20, 2 ** 21))
        res = poisson_stieltjes(tsin(), DiskPoint(r, theta), dataclasses.replace(TRANSFORM_OPTS, seed=seed))
        if res.converged:
            assert abs(res.value - fine) <= res.est_error + 10.0 * abs(fine - coarse)

    def test_only_kernels_of_nonzero_mean_take_the_slope(self, monkeypatch):
        slopes = []
        rs_integral = transforms.rs_integral

        def recorded(*args, slope, **kwargs):
            slopes.append(slope)
            return rs_integral(*args, slope=slope, **kwargs)

        monkeypatch.setattr(transforms, "rs_integral", recorded)
        for which in "UVSC":
            transforms.disk_transform(which, make("sin"), DiskPoint(0.5, 0.7))
        # c = cos(0.7), mass 2pi m_K; V's mean is 0, so its slope would add nothing
        assert slopes == [(math.cos(0.7), TWO_PI), None, (math.cos(0.7), TWO_PI), (math.cos(0.7), TWO_PI)]
        assert [KERNELS[which].mean for which in "UVSC"] == [1.0, 0.0, 1.0, 1.0]


class TestRefusals:
    def test_pathological_integrator_refused(self):
        with pytest.raises(DomainError):
            poisson_stieltjes(make("spikes"), DiskPoint(0.5, 0.0))

    def test_boundary_point_refused(self):
        with pytest.raises(DomainError):
            poisson_stieltjes(make("sin"), DiskPoint(0.3, 0.0).from_complex(1.0))


class TestAngleReduction:
    @pytest.mark.parametrize("theta", [7.0, 1e16, 1e17])
    def test_far_angle_gives_the_closed_form_at_that_angle(self, theta):
        # at theta = 1e17 the grading's preimage ends round onto one double,
        # so unreduced every level was one cell over the whole turn; one
        # rounded subtraction of 2*pi would land about 2.7 rad off
        far = poisson_stieltjes(make("sin"), DiskPoint(0.9, theta))
        assert far.status is RSStatus.CONVERGED
        assert far.value == pytest.approx(0.9 * math.cos(theta), abs=1e-5)
        assert 0.0 < far.est_error < 1e-4

    def test_angle_in_the_window_passes_through(self, monkeypatch):
        centers = []
        rs_integral = transforms.rs_integral

        def recorded(*args, grading, **kwargs):
            centers.append(grading[0])
            return rs_integral(*args, grading=grading, **kwargs)

        monkeypatch.setattr(transforms, "rs_integral", recorded)
        for theta in (-0.0, math.pi, -3.0):
            conj_poisson_stieltjes(make("sin"), DiskPoint(0.5, theta))
        assert [repr(c) for c in centers] == ["-0.0", repr(math.pi), "-3.0"]
