import cmath
import dataclasses
import math

import numpy as np
import pytest

from stieltjes import (
    DiskPoint,
    JumpAtEvaluationPoint,
    QuadratureOptions,
    RSStatus,
    SingularityError,
    conj_poisson_stieltjes,
    conjugate_truncation_trace,
    hilbert_stieltjes,
    make,
    singular_cauchy_consistency,
    singular_cauchy_stieltjes,
    truncated_conjugate_integral,
)
from stieltjes import singular
from stieltjes.accel import TAIL_WINDOW
from stieltjes.quadrature import DECAY_SLACK
from stieltjes.singular import DEFAULT_EPS_SCHEDULE

from oracles import pv_cot_density

TWO_PI = 2 * math.pi
# fourteen truncations, nine more than the extrapolation reads
LONG_SCHEDULE = tuple(2.0 ** -j for j in range(3, 17))


class TestHilbertClosedForms:
    @pytest.mark.parametrize("tau", [0.9, -1.7, 2.8])
    def test_sin_gives_sin(self, tau):
        h = hilbert_stieltjes(make("sin"), tau)
        assert h.value == pytest.approx(math.sin(tau), abs=2e-6)
        assert abs(h.value - math.sin(tau)) < max(h.est_error, 1e-9)
        assert h.extrapolated

    @pytest.mark.parametrize("tau", [0.9, -2.0])
    def test_sawtooth_gives_scaled_tangent(self, tau):
        # density 1/pi integrates to zero against the odd kernel; the seam
        # atom of -2 contributes -(1/pi) cot((tau - pi)/2) = tan(tau/2)/pi
        h = hilbert_stieltjes(make("sawtooth"), tau)
        assert h.value == pytest.approx(math.tan(tau / 2) / math.pi, abs=2e-6)
        assert abs(h.value - math.tan(tau / 2) / math.pi) < max(h.est_error, 1e-9)

    @pytest.mark.parametrize("name", ["linear", "sawtooth"])
    @pytest.mark.parametrize("tau", [1e-13, -4e-13])
    def test_seam_atom_a_hair_outside_a_window_stays_outside(self, name, tau):
        # the seam atom's image at -pi lies 1e-13 outside [tau - pi, tau - delta]
        # or inside it; counted at its true place, the value is tan(tau/2) ~ 0
        h = hilbert_stieltjes(make(name), tau)
        assert abs(h.value) <= h.est_error + 1e-12

    def test_linear_is_pi_times_sawtooth(self, tau=0.7):
        a = hilbert_stieltjes(make("linear"), tau)
        b = hilbert_stieltjes(make("sawtooth"), tau)
        assert a.value == pytest.approx(math.pi * b.value, abs=1e-8)

    def test_step_gives_cotangent(self):
        t0 = 0.5
        for tau in (0.9, 2.2, -3.0):
            h = hilbert_stieltjes(make("step2pi", t0), tau)
            assert h.value == pytest.approx(1 / math.tan((tau - t0) / 2), abs=1e-10)

    @pytest.mark.parametrize("t0, turn", [(-2.4, -1), (0.3, -1), (2.0, 1)])
    def test_step_at_its_antipode_gives_zero(self, t0, turn):
        # a window ends on the atom's image one turn away, where the step's
        # floor and a comparison with the image can round apart
        h = hilbert_stieltjes(make("step2pi", t0), t0 + turn * math.pi)
        assert abs(h.value) <= 1e-12

    def test_multi_step_weighted_cotangents(self):
        phi = make("multi_step")
        tau = 1.3
        want = sum(h / math.tan((tau - loc) / 2) for loc, h in phi.jumps) / TWO_PI
        got = hilbert_stieltjes(phi, tau)
        assert got.value == pytest.approx(want, abs=1e-10)

    def test_const_gives_zero(self):
        assert hilbert_stieltjes(make("const"), 1.1).value == pytest.approx(0.0, abs=1e-12)

    def test_cantor_odd_symmetry_center(self):
        # the staircase measure is symmetric about 0 and the kernel is odd,
        # while the seam atom sits antipodally where the kernel vanishes; the
        # value is promised within its est_error of 0, about 1e-5
        h = hilbert_stieltjes(make("cantor"), 0.0)
        assert h.status is RSStatus.CONVERGED
        assert abs(h.value) <= h.est_error < 1e-4

    def test_against_dense_pv_oracle(self):
        tau = 1.1
        want = pv_cot_density(np.cos, tau)
        got = hilbert_stieltjes(make("sin"), tau)
        assert got.value == pytest.approx(want, abs=1e-6)


class TestHilbertInterface:
    def test_trace_and_flags(self):
        h = hilbert_stieltjes(make("sin"), 0.9)
        assert len(h.eps_trace) == TAIL_WINDOW
        eps = [e for e, _ in h.eps_trace]
        assert eps == sorted(eps, reverse=True)
        # a window certifies up to DECAY_SLACK times its tolerance, and the
        # value is within what that promises of sin(0.9)
        assert h.est_error < DECAY_SLACK * 1e-4
        assert abs(h.value - math.sin(0.9)) <= h.est_error

    def test_refuses_evaluation_on_atom(self):
        with pytest.raises(JumpAtEvaluationPoint):
            hilbert_stieltjes(make("step2pi", 0.5), 0.5)

    def test_refuses_periodized_atom_image(self):
        with pytest.raises(JumpAtEvaluationPoint):
            hilbert_stieltjes(make("step2pi", 0.5), 0.5 + TWO_PI)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_refuses_non_finite_angle(self, tau):
        with pytest.raises(ValueError, match="not finite") as info:
            hilbert_stieltjes(make("sin"), tau)
        assert not isinstance(info.value, JumpAtEvaluationPoint)

    @pytest.mark.parametrize("tau", [7.0, 5e15, 1e16, 1e17])
    def test_far_angle_gives_the_closed_form_at_that_angle(self, tau):
        # unreduced, the exclusion's ends round onto one double: 5e15 and
        # 1e16 hit the kernel's pole, 1e17 gave empty windows and a zero
        h = hilbert_stieltjes(make("sin"), tau)
        assert h.value == pytest.approx(math.sin(tau), abs=1e-3)
        assert h.est_error > 0.0

    def test_far_angle_consistency_compares_one_point(self):
        # both sides must land on the same residue of tau, or the residual
        # measures the gap between two points instead of the quadratures
        con = singular_cauchy_consistency(make("sin"), 1e16)
        assert con.residual < 1e-4
        assert con.hilbert.value == pytest.approx(math.sin(1e16), abs=1e-3)

    def test_angle_in_the_window_passes_through(self, monkeypatch):
        # both _split windows are built from tau = -0.0 as it is, and each eps
        # runs one ladder over [delta, pi] graded at (0.0, delta)
        windows, ladders = [], []
        rs_integral, split = singular.rs_integral, singular._split

        def split_recorded(f, g, a, b):
            windows.append((a, b))
            return split(f, g, a, b)

        def recorded(g, f, a, b, opts, *, grading):
            ladders.append((a, b, grading))
            return rs_integral(g, f, a, b, opts, grading=grading)

        monkeypatch.setattr(singular, "_split", split_recorded)
        monkeypatch.setattr(singular, "rs_integral", recorded)
        hilbert_stieltjes(make("sin"), -0.0, eps_schedule=(0.5,))
        tau = -0.0
        assert [repr(e) for w in windows for e in w] == [
            repr(e) for e in (tau - math.pi, tau - 0.5, tau + 0.5, tau + math.pi)]
        assert [(a, b, repr(c), d) for a, b, (c, d) in ladders] == [(0.5, math.pi, "0.0", 0.5)]

    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError):
            hilbert_stieltjes(make("sin"), 0.9, eps_schedule=(0.1, 0.2))
        with pytest.raises(ValueError):
            hilbert_stieltjes(make("sin"), 0.9, eps_schedule=(0.1, -0.05))

    def test_schedule_must_stay_below_pi(self):
        # an exclusion of half-width eps >= pi leaves no window to integrate
        with pytest.raises(ValueError):
            hilbert_stieltjes(make("sin"), 0.9, eps_schedule=(4.0, 3.5, 3.2))
        with pytest.raises(ValueError):
            hilbert_stieltjes(make("sin"), 0.9, eps_schedule=(math.pi, 0.5, 0.25))


class TestDefaultSchedule:
    def test_is_the_extrapolation_tail_of_the_long_schedule(self):
        assert len(DEFAULT_EPS_SCHEDULE) == TAIL_WINDOW
        assert DEFAULT_EPS_SCHEDULE == LONG_SCHEDULE[-TAIL_WINDOW:]

    @pytest.mark.parametrize("schedule", [None, LONG_SCHEDULE])
    def test_runs_only_the_windows_the_extrapolation_reads(self, monkeypatch, schedule):
        # an explicit schedule is cut to its last TAIL_WINDOW entries: each
        # form runs one folded ladder over [delta, pi] for each default eps
        # and no other, and gives the default schedule's result bit for bit
        cases = [(hilbert_stieltjes, "sin", 0.8), (hilbert_stieltjes, "cantor", 0.7),
                 (hilbert_stieltjes, "cbv_demo", 0.3),
                 (singular_cauchy_stieltjes, "cbv_demo", complex(np.exp(0.3j)))]
        defaults = [pv(make(name), where) for pv, name, where in cases]
        runs = []
        rs_integral = singular.rs_integral

        def counted(*args, **kwargs):
            runs.append(args[2:4])
            return rs_integral(*args, **kwargs)

        monkeypatch.setattr(singular, "rs_integral", counted)
        for (pv, name, where), default in zip(cases, defaults):
            runs.clear()
            h = pv(make(name), where, schedule)
            assert len(runs) == TAIL_WINDOW
            assert all(b == math.pi for _a, b in runs)
            assert [e for e, _v in h.eps_trace] == list(DEFAULT_EPS_SCHEDULE)
            assert repr(h.value) == repr(default.value)
            assert h.eps_trace == default.eps_trace
            assert h.est_error == default.est_error
            assert h.status is default.status


class TestPVStatus:
    def test_converged_when_every_window_converges(self):
        assert hilbert_stieltjes(make("sin"), 0.9).status is RSStatus.CONVERGED
        assert singular_cauchy_stieltjes(make("sin"), complex(np.exp(0.9j))).status is RSStatus.CONVERGED

    def test_inconclusive_window_makes_the_limit_inconclusive(self):
        # at rel_tol 1e-6, 1 of the 4 folded cantor ladders at 0.7 ends inconclusive
        h = hilbert_stieltjes(make("cantor"), 0.7, opts=QuadratureOptions(rel_tol=1e-6))
        assert h.status is RSStatus.INCONCLUSIVE
        assert math.isfinite(h.est_error)

    def test_cauchy_form_carries_its_own_status(self, monkeypatch):
        # both forms fold onto nearly the same ladder, and no input scanned
        # leaves exactly one of them inconclusive; so a stub ends the
        # cotangent form's ladder at eps = 2^-13 inconclusive, while the
        # Cauchy form's ladders start at 2 asin(eps / 2) and all converge
        rs_integral = singular.rs_integral

        def stubbed(g, f, a, b, opts, **kwargs):
            res = rs_integral(g, f, a, b, opts, **kwargs)
            return dataclasses.replace(res, status=RSStatus.INCONCLUSIVE) if a == 2.0 ** -13 else res

        monkeypatch.setattr(singular, "rs_integral", stubbed)
        con = singular_cauchy_consistency(make("sin"), 1.75, opts=QuadratureOptions(rel_tol=1e-6))
        assert con.hilbert.status is RSStatus.INCONCLUSIVE
        assert con.cauchy.status is RSStatus.CONVERGED


class TestTruncatedConjugate:
    def test_truncation_approximates_disk_field(self):
        phi = make("sin")
        t0, r = 0.9, 1 - 2.0 ** -8
        trunc = truncated_conjugate_integral(phi, t0, r)
        disk = conj_poisson_stieltjes(phi, DiskPoint(r, t0))
        assert trunc == pytest.approx(disk.value, abs=5e-3)

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            truncated_conjugate_integral(make("sin"), 0.9, 1.0)

    def test_difference_trace_shrinks(self):
        trace = conjugate_truncation_trace(make("sin"), 0.9, ks=range(3, 11))
        diffs = [d for _, d in trace]
        assert diffs[-1] < 1e-2
        assert diffs[-1] < diffs[0]

    def test_trace_radii_follow_schedule(self):
        trace = conjugate_truncation_trace(make("sin"), 0.9, ks=range(3, 6))
        rs = [r for r, _ in trace]
        assert rs == pytest.approx([1 - 2.0 ** -3, 1 - 2.0 ** -4, 1 - 2.0 ** -5])


class TestSingularCauchy:
    def test_step_collapse_closed_form(self):
        t0, ang = 0.5, 2.0
        zeta0 = complex(np.exp(1j * ang))
        got = singular_cauchy_stieltjes(make("step2pi", t0), zeta0)
        want = -1j * np.exp(1j * t0) / (np.exp(1j * t0) - zeta0)
        assert got.value == pytest.approx(want, abs=1e-12)

    def test_step_imaginary_part_reflects_own_atom(self):
        # at the atom's own angle the window keeps swallowing mass 2 pi,
        # leaving Im I = -1/2 in the limit
        got = singular_cauchy_stieltjes(make("step2pi", 0.5), complex(np.exp(1j * 2.0)))
        assert got.value.imag == pytest.approx(-0.5, abs=1e-12)

    def test_schedule_must_decrease(self):
        zeta0 = complex(np.exp(0.9j))
        with pytest.raises(ValueError):
            singular_cauchy_stieltjes(make("sin"), zeta0, eps_schedule=(0.1, 0.2, 0.4))
        with pytest.raises(ValueError):
            singular_cauchy_stieltjes(make("sin"), zeta0, eps_schedule=(0.1, -0.05))

    def test_refuses_non_finite_point(self):
        with pytest.raises(ValueError, match="not finite"):
            singular_cauchy_stieltjes(make("sin"), complex(math.nan, 0.0))

    def test_requires_unit_modulus(self):
        with pytest.raises(ValueError):
            singular_cauchy_stieltjes(make("sin"), 0.5 + 0.1j)

    def test_charge_neutral_imaginary_part_is_rounding_only(self):
        # the integrand's constant imaginary part -1/2 weighs only the excluded
        # arc's mass, which the extrapolation takes to zero; rounding is left
        got = singular_cauchy_stieltjes(make("cos"), cmath.exp(-1.3j))
        assert abs(got.value.imag) < 1e-13

    def test_window_inside_the_pole_guard_raises_like_hilbert(self):
        with pytest.raises(SingularityError):
            hilbert_stieltjes(make("sin"), 0.8, eps_schedule=(1e-15,))
        with pytest.raises(SingularityError):
            singular_cauchy_stieltjes(make("sin"), cmath.exp(0.8j), eps_schedule=(1e-15,))

    @pytest.mark.parametrize("name,tau", [("sin", 0.9), ("sin", -2.1),
                                          ("sawtooth", 1.3), ("cantor", 0.0)])
    def test_real_part_is_half_hilbert(self, name, tau):
        con = singular_cauchy_consistency(make(name), tau)
        assert con.residual < 1e-4
        assert con.imag_magnitude < 1e-4

    def test_consistency_carries_both_traces(self):
        con = singular_cauchy_consistency(make("sin"), 0.9)
        assert con.hilbert.eps_trace and con.cauchy.eps_trace
        assert con.residual == pytest.approx(
            abs(con.hilbert.value - 2 * con.cauchy.value.real), abs=1e-15)
