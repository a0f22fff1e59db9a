"""Boundary transforms of an integrator on the unit disk.

Four Stieltjes integrals against the disk kernels: the harmonic extension
(Poisson), its conjugate, the analytic combination, and the Cauchy form.
All are RS integrals over one period of the circle, normalized by 1/2*pi,
with the integrator's atoms handled exactly by the quadrature engine.

The Cauchy kernel satisfies cauchy = (analytic + 1) / 2 pointwise, so the
direct Cauchy integral equals half the analytic one plus the integrator's
net increment over the window divided by 4*pi.  That accounting term
vanishes for charge-neutral integrators and is what
:func:`cauchy_identity_residual` checks.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

import numpy as np

from .core import TWO_PI, BoundaryFunction, DiskPoint, DomainError, RSResult, RSStatus
from .kernels import cauchy_kernel, analytic_kernel, conj_poisson, poisson, poisson_dtheta
from .quadrature import Grading, NonConvergentError, QuadratureOptions, rs_integral

__all__ = [
    "TRANSFORM_OPTS",
    "poisson_stieltjes",
    "conj_poisson_stieltjes",
    "schwartz_stieltjes",
    "cauchy_stieltjes",
    "cauchy_identity_residual",
    "duality_residual",
    "harmonicity_diagnostics",
    "conjugacy_residual",
]

# Transform runs certify against these by default.  The relative target is
# what random-tag replica spread can actually reach within the level budget
# for kernel-weighted integrands; values come out far more accurate.
TRANSFORM_OPTS = QuadratureOptions(rel_tol=1e-5, abs_tol=1e-9)

# radius beyond which the kernel peak is narrower than uniform meshes resolve
GRADING_RADIUS = 0.99
# midpoint nodes of the finer ordinary quadrature in duality_residual
DUALITY_NODES = 2 ** 20


def _as_disk_point(z) -> DiskPoint:
    if isinstance(z, DiskPoint):
        return z
    return DiskPoint.from_complex(complex(z))


def _grading_for(z: DiskPoint) -> Optional[Grading]:
    if z.r > GRADING_RADIUS:
        return Grading(centers=(z.theta,), scale=1.0 - z.r)
    return None


def _scaled(res: RSResult, factor: float) -> RSResult:
    return RSResult(
        value=res.value * factor,
        levels=[(mesh, s * factor) for mesh, s in res.levels],
        est_error=res.est_error * abs(factor),
        status=res.status,
    )


def _kernel_transform(phi: BoundaryFunction, z: DiskPoint, kernel: Callable,
                      opts: Optional[QuadratureOptions]) -> RSResult:
    if phi.kind == "pathological":
        raise DomainError("boundary transforms need a periodic integrator")
    opts = opts or TRANSFORM_OPTS
    res = rs_integral(
        kernel,
        phi,
        -math.pi,
        math.pi,
        opts,
        grading=_grading_for(z),
    )
    return _scaled(res, 1.0 / TWO_PI)


def poisson_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Harmonic extension of dPhi: (1/2pi) int P_r(theta - t) dPhi(t)."""
    z = _as_disk_point(z)
    return _kernel_transform(phi, z, lambda t: poisson(z.r, z.theta - t), opts)


def conj_poisson_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Conjugate harmonic extension: (1/2pi) int Q_r(theta - t) dPhi(t)."""
    z = _as_disk_point(z)
    return _kernel_transform(phi, z, lambda t: conj_poisson(z.r, z.theta - t), opts)


def schwartz_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Analytic transform: (1/2pi) int (e^{it} + z)/(e^{it} - z) dPhi(t)."""
    z = _as_disk_point(z)
    return _kernel_transform(phi, z, lambda t: analytic_kernel(z.z, t), opts)


def cauchy_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Cauchy transform: (1/2pi) int e^{it}/(e^{it} - z) dPhi(t), directly."""
    z = _as_disk_point(z)
    return _kernel_transform(phi, z, lambda t: cauchy_kernel(z.z, t), opts)


def cauchy_identity_residual(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> float:
    """Defect of the half-kernel identity between Cauchy and analytic forms.

    Both sides are independent quadratures; the integrator's net increment
    per turn enters as the constant (increment)/(4 pi) because the kernels
    differ by the constant 1/2.
    """
    s = schwartz_stieltjes(phi, z, opts)
    c = cauchy_stieltjes(phi, z, opts)
    shift = phi.period_increment / (2.0 * TWO_PI)
    return abs(c.value - (s.value / 2.0 + shift))


def duality_residual(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> float:
    """Compare the RS integral of the kernel against the ordinary integral.

    Left side: (1/2pi) int P_r(theta - t) dPhi(t) by the RS engine.
    Right side: (1/2pi) int Phi(t) * dP/dtheta (theta - t) dt by plain
    midpoint quadrature (refined once for an error estimate).  The identity
    needs the round-trip boundary term to cancel, so the integrator must be
    charge neutral over one period.
    """
    if phi.period_increment != 0.0:
        raise ValueError("duality needs a charge-neutral integrator")
    z = _as_disk_point(z)
    lhs_res = poisson_stieltjes(phi, z, opts)
    if lhs_res.status is RSStatus.DIVERGED:
        raise NonConvergentError("left side diverged", lhs_res)

    def rhs_at(n):
        t = -math.pi + TWO_PI * (np.arange(n) + 0.5) / n
        w = TWO_PI / n
        return float(np.sum(phi(t) * poisson_dtheta(z.r, z.theta - t)) * w / TWO_PI)

    # one halving step of extrapolation knocks out the leading error term
    coarse, fine = rhs_at(DUALITY_NODES // 2), rhs_at(DUALITY_NODES)
    rhs = fine + (fine - coarse)
    return abs(float(np.real(lhs_res.value)) - rhs)


def harmonicity_diagnostics(field: Callable, z, h: float = 1e-2) -> float:
    """How far a disk field is from harmonic near ``z``, at scale ``h``.

    Combines (a) the raw five-point Laplacian defect
    |f(E)+f(W)+f(N)+f(S) - 4 f(C)| on a Cartesian cross of arm ``h`` and
    (b) the mean-value defect |circle average - center| over 64 points of
    the circle of radius ``h``.  Both vanish like the fourth power of ``h``
    for a harmonic field but detect a Laplacian at scale h^2.
    """
    zc = _as_disk_point(z).z
    if abs(zc) + 2.0 * h >= 1.0:
        raise DomainError("step too large: the probe stencil leaves the disk")
    center = field(DiskPoint.from_complex(zc))
    cross = [zc + h, zc - h, zc + 1j * h, zc - 1j * h]
    lap = sum(field(DiskPoint.from_complex(w)) for w in cross) - 4.0 * center
    ang = TWO_PI * np.arange(64) / 64
    ring = [field(DiskPoint.from_complex(zc + h * cmath.exp(1j * a))) for a in ang]
    mean_defect = abs(sum(ring) / 64.0 - center)
    return max(abs(lap), float(mean_defect))


def conjugacy_residual(
    phi: BoundaryFunction,
    z,
    h: float = 0.02,
    opts: Optional[QuadratureOptions] = None,
) -> float:
    """Polar Cauchy-Riemann defect of the (U, V) pair at ``z``.

    |dU/dr - (1/r) dV/dtheta| + |(1/r) dU/dtheta + dV/dr|, with all four
    derivatives taken by five-point central differences (fourth order:
    second-order stencils leave a truncation floor above the tight
    tolerances the smooth cases meet).
    """
    z = _as_disk_point(z)
    if z.r < 0.1:
        raise DomainError("conjugacy probe needs r >= 0.1")
    if z.r + 2.0 * h >= 1.0:
        raise DomainError("step too large: the probe stencil leaves the disk")

    def u_at(r, th):
        return float(np.real(poisson_stieltjes(phi, DiskPoint(r, th), opts).value))

    def v_at(r, th):
        return float(np.real(conj_poisson_stieltjes(phi, DiskPoint(r, th), opts).value))

    def d4(fvals, step):
        fm2, fm1, fp1, fp2 = fvals
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * step)

    r, th = z.r, z.theta
    du_dr = d4([u_at(r - 2 * h, th), u_at(r - h, th), u_at(r + h, th), u_at(r + 2 * h, th)], h)
    dv_dr = d4([v_at(r - 2 * h, th), v_at(r - h, th), v_at(r + h, th), v_at(r + 2 * h, th)], h)
    du_dth = d4([u_at(r, th - 2 * h), u_at(r, th - h), u_at(r, th + h), u_at(r, th + 2 * h)], h)
    dv_dth = d4([v_at(r, th - 2 * h), v_at(r, th - h), v_at(r, th + h), v_at(r, th + 2 * h)], h)
    return abs(du_dr - dv_dth / r) + abs(du_dth / r + dv_dr)
