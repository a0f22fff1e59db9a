"""Boundary transforms of an integrator on the unit disk.

Four Stieltjes integrals against the disk kernels: the harmonic extension
(Poisson), its conjugate, the analytic combination, and the Cauchy form.
All are RS integrals over one period of the circle, normalized by 1/2*pi,
with the integrator's atoms handled exactly by the quadrature engine, and
for U, S and C its slope at the point's angle too (see
:func:`disk_transform`).

The Cauchy kernel satisfies cauchy = (analytic + 1) / 2 pointwise, so the
direct Cauchy integral equals half the analytic one plus the integrator's
net increment over the window divided by 4*pi.  That accounting term
vanishes for charge-neutral integrators and is what
:func:`cauchy_identity_residual` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import TWO_PI, BoundaryFunction, DiskPoint, DomainError, RSResult, principal_angle
from .kernels import _angles, _cauchy, _conj_poisson, _poisson, _schwarz, poisson_dtheta
from .quadrature import QuadratureOptions, require_converged, rs_integral

__all__ = [
    "TRANSFORM_OPTS",
    "KERNELS",
    "disk_transform",
    "poisson_stieltjes",
    "conj_poisson_stieltjes",
    "schwartz_stieltjes",
    "cauchy_stieltjes",
    "cauchy_from_schwartz",
    "cauchy_identity_residual",
    "duality_residual",
    "harmonicity_diagnostics",
    "conjugacy_residual",
]

# Transform runs certify against these by default.  The relative target is
# what the random-tag spread can actually reach within the level budget
# for kernel-weighted integrands; values come out far more accurate.
TRANSFORM_OPTS = QuadratureOptions(rel_tol=1e-5, abs_tol=1e-9)

# midpoint nodes of the finer ordinary quadrature in duality_residual
DUALITY_NODES = 2 ** 20
# arm of the finite-difference stencils in conjugacy_residual
CONJUGACY_STEP = 0.02


def _as_disk_point(z) -> DiskPoint:
    if isinstance(z, DiskPoint):
        return z
    return DiskPoint.from_complex(complex(z))


def _scaled(res: RSResult, factor: float) -> RSResult:
    return RSResult(
        value=res.value * factor,
        levels=[(mesh, s * factor) for mesh, s in res.levels],
        est_error=res.est_error * abs(factor),
        status=res.status,
    )


@dataclass(frozen=True)
class _Kernel:
    """A row of the kernel table: ``row(z)`` is the integrand in t at the disk point z.

    ``mean`` is the kernel's mean (1/2pi) int K(z, t) dt over one period,
    the same at every z.
    """

    at: Callable
    mean: float

    def __call__(self, z):
        return self.at(z)


# the four disk kernels: each maps a disk point to its integrand in t, all
# at radius z.r and angle z.theta - t (DiskPoint has checked the radius, so
# they call the kernels' unchecked cores, which write over the difference),
# and carries its mean: 1 for P, S and C, 0 for the odd Q
KERNELS = {
    "U": _Kernel(lambda z: (lambda t: _poisson(z.r, _angles(z.theta, t))), 1.0),
    "V": _Kernel(lambda z: (lambda t: _conj_poisson(z.r, _angles(z.theta, t))), 0.0),
    "S": _Kernel(lambda z: (lambda t: _schwarz(z.r, _angles(z.theta, t))), 1.0),
    "C": _Kernel(lambda z: (lambda t: _cauchy(z.r, _angles(z.theta, t))), 1.0),
}


def disk_transform(which: str, phi: BoundaryFunction, z,
                   opts: Optional[QuadratureOptions] = None) -> RSResult:
    """(1/2pi) int K(z, t) dPhi(t) over one period, K = ``KERNELS[which]``.

    The ladder integrates K against d(Phi(t) - c t) on [-pi, pi] and adds
    c m_K exactly, with c = Phi'(theta) and m_K the kernel's mean: the
    identity holds for every c, and with c the slope at theta the refined
    part is the one the Fatou-type limit U(z) -> Phi'(theta) sends to 0.
    That needs a certified, finite, nonzero derivative at theta and a
    kernel of nonzero mean (U, S and C); otherwise c = 0 and the ladder
    integrates against dPhi itself.  The partition is graded toward theta,
    where the kernel peaks.
    """
    z = _as_disk_point(z)
    if phi.kind == "pathological":
        raise DomainError("boundary transforms need a periodic integrator")
    # far from the window, theta - t and the grading's ends lose t to rounding
    z = DiskPoint(z.r, principal_angle(z.theta))
    row = KERNELS[which]
    c = phi.derivative(z.theta) if row.mean else None
    # the kernels' pole 1/z-bar sits at distance about 1 - r from e^{i theta}
    res = rs_integral(
        row(z),
        phi,
        -math.pi,
        math.pi,
        opts or TRANSFORM_OPTS,
        grading=(z.theta, 1.0 - z.r),
        slope=(c, TWO_PI * row.mean) if c and math.isfinite(c) else None,
    )
    return _scaled(res, 1.0 / TWO_PI)


def poisson_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Harmonic extension of dPhi: (1/2pi) int P_r(theta - t) dPhi(t)."""
    return disk_transform("U", phi, z, opts)


def conj_poisson_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Conjugate harmonic extension: (1/2pi) int Q_r(theta - t) dPhi(t)."""
    return disk_transform("V", phi, z, opts)


def schwartz_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Analytic transform: (1/2pi) int (e^{it} + z)/(e^{it} - z) dPhi(t)."""
    return disk_transform("S", phi, z, opts)


def cauchy_stieltjes(phi: BoundaryFunction, z, opts: Optional[QuadratureOptions] = None) -> RSResult:
    """Cauchy transform: (1/2pi) int e^{it}/(e^{it} - z) dPhi(t), directly."""
    return disk_transform("C", phi, z, opts)


def cauchy_from_schwartz(s: complex, phi: BoundaryFunction) -> complex:
    """The Cauchy value the half-kernel identity predicts from the analytic one."""
    return s / 2.0 + phi.period_increment / (2.0 * TWO_PI)


def cauchy_identity_residual(phi: BoundaryFunction, z) -> float:
    """Defect of the half-kernel identity between Cauchy and analytic forms.

    Both sides are independent quadratures at ``TRANSFORM_OPTS``; the
    integrator's net increment per turn enters as the constant
    (increment)/(4 pi) because the kernels differ by the constant 1/2.
    A side that does not converge raises :class:`NonConvergentError`.
    """
    s = require_converged(schwartz_stieltjes(phi, z), "analytic side")
    c = require_converged(cauchy_stieltjes(phi, z), "Cauchy side")
    return abs(c.value - cauchy_from_schwartz(s.value, phi))


def duality_residual(phi: BoundaryFunction, z) -> float:
    """Compare the RS integral of the kernel against the ordinary integral.

    Left side: (1/2pi) int P_r(theta - t) dPhi(t) by the RS engine at
    ``TRANSFORM_OPTS``.
    Right side: (1/2pi) int Phi(t) * dP/dtheta (theta - t) dt by plain
    midpoint quadrature (refined once for an error estimate).  The identity
    needs the round-trip boundary term to cancel, so the integrator must be
    charge neutral over one period.  A left side that does not converge
    raises :class:`NonConvergentError`.
    """
    if not phi.is_charge_neutral():
        raise ValueError("duality needs a charge-neutral integrator")
    z = _as_disk_point(z)
    lhs_res = require_converged(poisson_stieltjes(phi, z), "left side")

    def rhs_at(n):
        t = -math.pi + TWO_PI * (np.arange(n) + 0.5) / n
        w = TWO_PI / n
        return float(np.sum(phi(t) * poisson_dtheta(z.r, z.theta - t)) * w / TWO_PI)

    # one halving step of extrapolation knocks out the leading error term
    coarse, fine = rhs_at(DUALITY_NODES // 2), rhs_at(DUALITY_NODES)
    rhs = fine + (fine - coarse)
    return abs(lhs_res.value - rhs)


def harmonicity_diagnostics(field: Callable, z, h: float = 1e-2) -> float:
    """Estimate h^2 times the Laplacian of ``field`` at ``z`` from a five-point cross.

    Returns |f(E)+f(W)+f(N)+f(S) - 4 f(C)| on a cross of arm ``h``; for the
    harmonic fields this library builds it is of order h^4.
    """
    zc = _as_disk_point(z).z
    if not (0.0 < h and abs(zc) + 2.0 * h < 1.0):  # refuses nan and inf too
        raise DomainError(f"harmonicity step h must be positive and keep the stencil in the disk, got {h!r}")
    center = field(DiskPoint.from_complex(zc))
    cross = [zc + h, zc - h, zc + 1j * h, zc - 1j * h]
    return abs(sum(field(DiskPoint.from_complex(w)) for w in cross) - 4.0 * center)


def conjugacy_residual(phi: BoundaryFunction, z) -> float:
    """Polar Cauchy-Riemann defect of the (U, V) pair at ``z``.

    |dU/dr - (1/r) dV/dtheta| + |(1/r) dU/dtheta + dV/dr|, with all four
    derivatives taken by five-point central differences of arm
    ``CONJUGACY_STEP`` (fourth order: second-order stencils leave a
    truncation floor above the tight tolerances the smooth cases meet).
    The transforms run at ``TRANSFORM_OPTS``; one that does not converge
    raises :class:`NonConvergentError`.
    """
    z = _as_disk_point(z)
    h = CONJUGACY_STEP
    if z.r < 0.1 or z.r + 2.0 * h >= 1.0:
        raise DomainError(f"conjugacy probe needs 0.1 <= r < {1.0 - 2.0 * h:g}, so its stencil stays in the disk")

    r, th = z.r, z.theta

    def d4(which, radial):
        # fourth-order central difference of U or V along r or theta
        points = [DiskPoint(r + j * h, th) if radial else DiskPoint(r, th + j * h) for j in (-2, -1, 1, 2)]
        fm2, fm1, fp1, fp2 = (require_converged(disk_transform(which, phi, p), f"{which} at {p}").value
                              for p in points)
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)

    du_dr, dv_dr, du_dth, dv_dth = d4("U", True), d4("V", True), d4("U", False), d4("V", False)
    return abs(du_dr - dv_dth / r) + abs(du_dth / r + dv_dr)
