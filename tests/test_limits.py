import math

import pytest

from stieltjes import (
    ApproachPath,
    DomainError,
    QuadratureOptions,
    RSStatus,
    analytic_limit_check,
    angular_limit,
    conjugate_limit_check,
    hilbert_stieltjes,
    limits,
    make,
    poisson_limit_check,
)
from stieltjes.accel import TAIL_WINDOW

TWO_PI = 2 * math.pi


class TestAngularLimit:
    def test_closed_form_harmonic_field(self):
        # Re z has angular limit cos(target) along every nontangential path
        target = 0.7
        for alpha in (0.0, math.pi / 4, -math.pi / 3):
            est = angular_limit(lambda z: z.z.real, ApproachPath(target, alpha))
            assert est.converged
            assert est.extrapolated == pytest.approx(math.cos(target), abs=1e-6)

    def test_trace_is_recorded_along_schedule(self):
        # the trace holds the points the extrapolant reads, the deepest of the schedule
        est = angular_limit(lambda z: z.z.real, ApproachPath(0.0, 0.0))
        assert [k for k, _ in est.trace] == list(range(15 - TAIL_WINDOW, 15))
        assert est.trace[-1][1] == pytest.approx(1 - 2.0 ** -14)

    @pytest.mark.parametrize("alpha, k_max", [(0.0, 14), (0.0, 3), (-1.5, 8), (1.56, 14)])
    def test_field_runs_only_on_the_deepest_points(self, alpha, k_max):
        # (-1.5, 8) and (1.56, 14) clip their first points: 6 and 9 points are left
        path = ApproachPath(0.4, alpha, k_max=k_max)
        seen = []

        def field(z):
            seen.append(z.z)
            return z.z.real

        angular_limit(field, path)
        pairs = path.indexed_points()
        assert len(seen) == min(TAIL_WINDOW, len(pairs))
        assert seen == [z.z for _k, z in pairs[len(pairs) - len(seen):]]

    def test_divergent_field_not_converged(self):
        # logarithmic blow-up has vanishing second differences, which the
        # accelerator cannot mistake for geometric convergence
        est = angular_limit(lambda z: math.log(1 - abs(z.z)), ApproachPath(0.0, 0.0))
        assert not est.converged

    def test_residual_bounds_truth(self):
        est = angular_limit(lambda z: z.z.real, ApproachPath(0.5, math.pi / 6))
        assert abs(est.extrapolated - math.cos(0.5)) <= 10 * max(est.residual, 1e-12)


class TestPoissonLimitCheck:
    def test_sin_all_approaches_pass(self):
        report = poisson_limit_check(make("sin"), 0.4)
        assert report.passed
        assert report.worst_grade == "pass"
        assert len(report.rows) == 5  # radial + two apertures, both signs
        for row in report.rows:
            assert row.expected == pytest.approx(math.cos(0.4))
            assert row.residual < 1e-3
        assert report.aperture_spread < 3e-3

    def test_step_antipodal_target_limit_zero(self):
        report = poisson_limit_check(make("step2pi", 0.0), math.pi)
        assert report.passed
        for row in report.rows:
            assert row.expected == 0.0

    def test_step_antipodal_radial_trace_monotone(self):
        # P_r(pi) decreases in r, so the radial trace must fall monotonically
        phi = make("step2pi", 0.0)
        report = poisson_limit_check(phi, math.pi)
        radial = [r for r in report.rows if r.approach == "radial"][0]
        vals = [v for _k, v in radial.estimate.trace]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cantor_plateau_limit_zero(self):
        report = poisson_limit_check(make("cantor"), 0.0)
        assert report.passed
        assert all(row.expected == 0.0 for row in report.rows)

    def test_refuses_target_without_derivative(self):
        with pytest.raises(ValueError):
            poisson_limit_check(make("step2pi", 0.5), 0.5)

    def test_grades_scale_with_tolerance(self):
        strict = poisson_limit_check(make("sin"), 0.4, tol=1e-15)
        assert not strict.passed
        assert strict.worst_grade == "fail"
        loose = poisson_limit_check(make("sin"), 0.4, tol=0.5)
        assert loose.worst_grade == "pass"


class TestConjugateLimitCheck:
    def test_step_matches_cotangent(self):
        t0 = 0.0
        tau = t0 + math.pi / 2
        report = conjugate_limit_check(make("step2pi", t0), tau)
        assert report.passed
        for row in report.rows:
            assert row.expected == pytest.approx(1.0, abs=1e-10)  # cot(pi/4)
            assert row.residual < 2e-3

    def test_cantor_plateau_angles_within_loose_band(self):
        phi = make("cantor")
        for tau in (0.0, -1.884955592153876):  # level-1 and level-2 plateau centers
            report = conjugate_limit_check(phi, tau, tol=1e-2)
            assert report.passed

    def test_refused_at_atom(self):
        from stieltjes import JumpAtEvaluationPoint
        with pytest.raises(JumpAtEvaluationPoint):
            conjugate_limit_check(make("step2pi", 0.5), 0.5)


class TestAnalyticLimitCheck:
    def test_step_at_antipode(self):
        # S-limit is 0 + i cot(pi/2) = 0; C adds the mass term 1/2
        t0 = 0.5
        report = analytic_limit_check(make("step2pi", t0), t0 + math.pi)
        assert report.passed
        s_rows = [r for r in report.rows if r.field == "S"]
        c_rows = [r for r in report.rows if r.field == "C"]
        assert s_rows and c_rows
        for row in s_rows:
            assert abs(row.expected) < 1e-12
        for row in c_rows:
            assert row.expected == pytest.approx(0.5, abs=1e-12)

    def test_expected_values_tie_to_derivative_and_hilbert(self):
        phi, tau = make("sin"), 1.1
        report = analytic_limit_check(phi, tau)
        h = hilbert_stieltjes(phi, tau)
        s_exp = complex([r for r in report.rows if r.field == "S"][0].expected)
        assert s_exp.real == pytest.approx(math.cos(tau), abs=1e-6)
        assert s_exp.imag == pytest.approx(h.value, abs=1e-4)


class TestReportStatuses:
    """A report carries the status of every quadrature it read."""

    def test_certified_check_lists_every_point(self):
        report = conjugate_limit_check(make("step2pi", 0.0), math.pi / 2)
        # the PV, then the deepest TAIL_WINDOW points of each of the five paths
        assert report.statuses == [RSStatus.CONVERGED] * (1 + 5 * TAIL_WINDOW)

    def test_uncertified_points_are_kept_under_passing_grades(self):
        # a level budget of 2^8 cells certifies none of the deep transforms
        phi, tau = make("sin"), 0.8
        report = analytic_limit_check(phi, tau, opts=QuadratureOptions(k_max=8))
        assert report.passed
        assert report.statuses[0] == hilbert_stieltjes(phi, tau).status == RSStatus.CONVERGED
        assert report.statuses[1:] == [RSStatus.INCONCLUSIVE] * (2 * 3 * TAIL_WINDOW)


class TestGrade:
    @pytest.mark.parametrize("residual, grade", [
        (1e-3, "pass"), (1.5e-3, "marginal"), (3e-3, "marginal"), (3.1e-3, "fail"),
    ])
    def test_bands(self, residual, grade):
        assert limits._grade(residual, 1e-3) == grade


class TestReportShape:
    def test_row_fields_and_labels(self):
        report = poisson_limit_check(make("step2pi", 0.0), math.pi,
                                     apertures=(math.pi / 6,))
        labels = {row.approach for row in report.rows}
        assert "radial" in labels
        assert len(labels) == 3
        assert all(row.grade in ("pass", "marginal", "fail") for row in report.rows)

    def test_aperture_spread_is_max_disagreement(self):
        report = poisson_limit_check(make("step2pi", 0.0), math.pi)
        ests = [complex(r.estimate.extrapolated) for r in report.rows]
        want = max(abs(a - b) for a in ests for b in ests)
        assert report.aperture_spread == pytest.approx(want, abs=1e-15)

    def test_analytic_report_keeps_fields_apart(self):
        # S rows then C rows, each in path order; the spread is taken within
        # a field, since S and C tend to different limits
        phi, tau = make("step2pi", 0.5), 2.0
        report = analytic_limit_check(phi, tau)
        labels = ["radial", "stolz+0.524", "stolz-0.524"]
        assert [(r.field, r.approach) for r in report.rows] == [
            (f, a) for f in ("S", "C") for a in labels
        ]

        def spread(rows):
            vals = [r.estimate.extrapolated for r in rows]
            return max(abs(a - b) for a in vals for b in vals)

        per_field = [spread([r for r in report.rows if r.field == f]) for f in ("S", "C")]
        assert report.aperture_spread == max(per_field)
        assert spread(report.rows) > 100 * report.aperture_spread
        assert all(type(r.estimate.extrapolated) is complex for r in report.rows)
        real = poisson_limit_check(phi, tau, apertures=(math.pi / 6,))
        assert all(type(r.estimate.extrapolated) is float for r in real.rows)

    def test_rejects_fractional_k_max(self):
        with pytest.raises(ValueError, match="k_max must be an int"):
            poisson_limit_check(make("sin"), 0.3, k_max=5.5)

    def test_rejects_tangential_aperture(self):
        with pytest.raises(DomainError):
            poisson_limit_check(make("sin"), 0.4, apertures=(math.pi / 2,))


class TestRefusesBadTolerance:
    """A tolerance that is not finite and positive is refused before any quadrature runs."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def ran(*_args, **_kwargs):
            raise AssertionError("a quadrature ran before the tolerance was checked")

        for name in ("hilbert_stieltjes", "poisson_stieltjes", "conj_poisson_stieltjes",
                     "schwartz_stieltjes", "cauchy_stieltjes"):
            monkeypatch.setattr(limits, name, ran)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("check", [poisson_limit_check, conjugate_limit_check, analytic_limit_check])
    def test_limit_checks(self, check, tol):
        with pytest.raises(ValueError, match="tolerance"):
            check(make("sin"), 0.9, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_angular_limit(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            angular_limit(lambda z: z.z.real, ApproachPath(0.0, 0.0), tol)
