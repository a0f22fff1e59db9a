import math

import numpy as np
import pytest

from stieltjes import (
    DiskPoint,
    DomainError,
    SingularityError,
    analytic_kernel,
    boundary_cot_kernel,
    cauchy_kernel,
    conj_poisson,
    conj_poisson_dt,
    make,
    poisson,
    poisson_dtheta,
)
from stieltjes.transforms import KERNELS

from oracles import (
    conj_poisson_reference,
    dense_integral,
    diff1,
    poisson_reference,
)


class TestPoisson:
    def test_spot_values(self):
        assert poisson(0.0, 1.3) == pytest.approx(1.0, abs=0)
        assert poisson(0.5, 0.0) == pytest.approx(3.0, abs=1e-15)
        assert poisson(0.5, math.pi) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_cosine_form(self):
        r = np.array([0.1, 0.5, 0.9])[:, None]
        x = np.linspace(-math.pi, math.pi, 31)[None, :]
        assert np.allclose(poisson(r, x), poisson_reference(r, x), rtol=1e-13)
        # near the peak at r close to 1 the cosine form itself cancels
        # catastrophically, so the reference only carries ~9 digits there
        assert np.allclose(poisson(0.999, x), poisson_reference(0.999, x), rtol=5e-9)

    def test_positive_and_even(self):
        x = np.linspace(-math.pi, math.pi, 101)
        for r in (0.2, 0.8, 0.9999):
            v = poisson(r, x)
            assert np.all(v > 0)
            assert np.allclose(v, poisson(r, -x), rtol=0, atol=1e-15)

    def test_mean_value_one(self):
        for r in (0.3, 0.9):
            m = dense_integral(lambda x: poisson(r, x), -math.pi, math.pi)
            assert m / (2 * math.pi) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            poisson(1.0, 0.5)
        with pytest.raises(DomainError):
            poisson(-0.1, 0.5)


class TestConjPoisson:
    def test_odd(self):
        x = np.linspace(0.01, math.pi, 50)
        assert np.allclose(conj_poisson(0.7, x), -conj_poisson(0.7, -x), atol=1e-15)

    def test_matches_cosine_form(self):
        r = np.array([0.1, 0.5, 0.99])[:, None]
        x = np.linspace(-3, 3, 41)[None, :]
        assert np.allclose(conj_poisson(r, x), conj_poisson_reference(r, x), rtol=1e-12)

    def test_boundary_radius_dispatches_to_cotangent(self):
        for x in (0.3, 1.0, -2.0):
            assert conj_poisson(1.0, x) == pytest.approx(1 / math.tan(x / 2), rel=1e-14)

    def test_peak_bound(self):
        # Q_r(eps) <= 2/eps at eps = 1 - r
        for eps in (0.1, 0.01):
            assert conj_poisson(1 - eps, eps) <= 2 / eps

    def test_boundary_gap_scales_like_inverse_eps(self):
        eps = 1e-3
        gap = eps * (boundary_cot_kernel(eps, 0.0) - conj_poisson(1 - eps, eps))
        assert 0.9 <= gap <= 1.1

    @pytest.mark.parametrize("r, x, want", [
        # 2 r x / (1 - r)^2: the half-angle form rounds 5e-324 / 2 to 0
        (0.5, 5e-324, 2e-323),
        (0.5, -5e-324, -2e-323),
        # 2 r sin x rounded once: 4 r tan(x / 2) / D' rounds twice, to 1e-323
        (5e-324, 0.75, 5e-324),
    ])
    def test_subnormal_angle_or_value_takes_the_sine_form(self, r, x, want):
        assert conj_poisson(r, x) == want
        assert analytic_kernel(r, -x).imag == want
        assert cauchy_kernel(r, -x).imag == want / 2


class TestCotangentKernel:
    def test_angle_difference_and_periodicity(self):
        assert boundary_cot_kernel(1.5, 0.5) == pytest.approx(1 / math.tan(0.5), rel=1e-14)
        assert boundary_cot_kernel(1.5 + 2 * math.pi, 0.5) == pytest.approx(
            boundary_cot_kernel(1.5, 0.5), rel=1e-12)

    def test_guard_raises(self):
        with pytest.raises(SingularityError):
            boundary_cot_kernel(1.0, 1.0)
        with pytest.raises(SingularityError):
            boundary_cot_kernel(0.0, 1e-15)


class TestDerivativeKernels:
    def test_poisson_dtheta_matches_differences(self):
        for r in (0.3, 0.8):
            for x in (0.4, 1.7, -2.5):
                want = diff1(lambda y: poisson(r, y), x)
                assert poisson_dtheta(r, x) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_conj_poisson_dt_matches_differences(self):
        # d/dtheta of Q_r(theta - t) in t is -Q_r'; check the sign convention
        for r in (0.5, 0.9):
            for x in (0.3, 2.0):
                want = diff1(lambda y: conj_poisson(r, y), x)
                assert conj_poisson_dt(r, x) == pytest.approx(want, rel=1e-7, abs=1e-10)

    def test_conj_poisson_dt_positive_near_peak(self):
        for r in (0.9, 0.99):
            x = np.linspace(0.0, 1 - r, 100)
            assert np.all(conj_poisson_dt(r, x) > 0)


class TestComplexKernels:
    def test_analytic_kernel_splits_into_p_and_q(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = rng.uniform(0, 0.95)
            th = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-math.pi, math.pi)
            a = analytic_kernel(r * np.exp(1j * th), t)
            assert a.real == pytest.approx(poisson(r, th - t), abs=1e-12)
            assert a.imag == pytest.approx(conj_poisson(r, th - t), abs=1e-12)

    def test_cauchy_is_shifted_half(self):
        z = 0.4 + 0.3j
        t = np.linspace(-3, 3, 7)
        a = analytic_kernel(z, t)
        c = cauchy_kernel(z, t)
        assert np.allclose(c, (a + 1) / 2, atol=1e-15)

    def test_cauchy_closed_form(self):
        z = 0.2 - 0.5j
        t = 0.7
        want = np.exp(1j * t) / (np.exp(1j * t) - z)
        assert cauchy_kernel(z, t) == pytest.approx(want, abs=1e-14)

    def test_kernel_at_origin(self):
        t = np.linspace(-3, 3, 11)
        assert np.allclose(analytic_kernel(0j, t), 1.0, atol=0)
        assert np.allclose(cauchy_kernel(0j, t), 1.0, atol=0)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            analytic_kernel(1.0 + 0j, 0.0)
        with pytest.raises(DomainError):
            cauchy_kernel(2j, 0.0)

    @pytest.mark.parametrize("kernel", [analytic_kernel, cauchy_kernel])
    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0), complex(math.nan, math.inf)])
    def test_rejects_non_finite_point(self, kernel, z):
        with pytest.raises(DomainError):
            kernel(z, 0.3)


@pytest.mark.parametrize("t", [0.7, np.float64(0.7), np.array(0.7)], ids=["float", "float64", "0-d"])
def test_scalar_input_gives_a_python_scalar(t):
    z = DiskPoint(0.6, 1.9)
    got = {f"KERNELS[{k}]": row(z)(t) for k, row in KERNELS.items()}
    got.update({
        "poisson": poisson(0.6, t),
        "poisson_dtheta": poisson_dtheta(0.6, t),
        "conj_poisson": conj_poisson(0.6, t),
        "conj_poisson at r=1": conj_poisson(1.0, t),
        "conj_poisson_dt": conj_poisson_dt(0.6, t),
        "boundary_cot_kernel": boundary_cot_kernel(1.9, t),
        "analytic_kernel": analytic_kernel(z.z, t),
        "cauchy_kernel": cauchy_kernel(z.z, t),
        "BoundaryFunction": make("sin")(t),
    })
    assert {name: type(v) for name, v in got.items() if type(v) not in (float, complex)} == {}
