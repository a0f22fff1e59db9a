"""Boundary kernels of the unit disk in numerically stable forms.

Every kernel is written over the shared denominator

    D(r, x) = (1 - r)**2 + 4 * r * sin(x / 2)**2 = 1 - 2 r cos(x) + r**2,

which stays positive for r < 1 and avoids the cancellation the textbook
``1 - 2 r cos x + r**2`` form suffers when r -> 1 with x -> 0.

Angles are always taken as differences (the kernels are 2*pi-periodic in
``theta``); radii are validated because every formula here degenerates on
the boundary except the cotangent kernel, which gets an explicit guard.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError

__all__ = [
    "SingularityError",
    "COT_GUARD",
    "poisson",
    "poisson_dtheta",
    "conj_poisson",
    "conj_poisson_dt",
    "analytic_kernel",
    "cauchy_kernel",
    "boundary_cot_kernel",
]

# angles whose |tan(x / 2)| falls under COT_GUARD / 2, that is within about
# COT_GUARD of a cotangent pole, are rejected
COT_GUARD = 1e-14


class SingularityError(ZeroDivisionError):
    """Kernel evaluated at (or too close to) its singular angle."""


def _check_radius(r):
    r = np.asarray(r)
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise DomainError(f"radius {r} outside the open unit disk")


def _den(r, x):
    s = np.sin(0.5 * np.asarray(x, dtype=float))
    return (1.0 - r) ** 2 + 4.0 * r * s * s


def _match(out, x):
    if np.ndim(out) == 0 and (np.isscalar(x) or getattr(x, "ndim", 1) == 0):
        return out.item()
    return out


def poisson(r, theta):
    """Poisson kernel (1 - r^2) / D(r, theta); strictly positive for r < 1."""
    _check_radius(r)
    return _match((1.0 - r * r) / _den(r, theta), theta)


def poisson_dtheta(r, theta):
    """Angular derivative of the Poisson kernel.

    Equals -2 r (1 - r^2) sin(theta) / D^2; odd in theta.
    """
    _check_radius(r)
    x = np.asarray(theta, dtype=float)
    d = _den(r, x)
    return _match(-2.0 * r * (1.0 - r * r) * np.sin(x) / (d * d), theta)


def boundary_cot_kernel(tau, t):
    """cot((tau - t) / 2), the r -> 1 limit of the conjugate kernel.

    Raises when the difference falls inside the pole guard at any whole
    turn; the principal-value machinery must exclude the diagonal itself.
    """
    x = np.asarray(tau, dtype=float) - np.asarray(t, dtype=float)
    # tan(x / 2) is 2*pi-periodic and about half the reduced angle near a pole
    tan_half = np.tan(0.5 * x)
    if np.any(np.abs(tan_half) < 0.5 * COT_GUARD):
        raise SingularityError("cotangent kernel evaluated at its pole")
    return _match(1.0 / tan_half, x)


def conj_poisson(r, theta):
    """Conjugate Poisson kernel 2 r sin(theta) / D(r, theta); odd in theta.

    At r = 1 the kernel degenerates to cot(theta / 2), which is returned
    (with the pole guard) so truncated boundary integrals can be phrased
    uniformly in r.
    """
    if np.ndim(r) == 0 and r == 1.0:
        return boundary_cot_kernel(theta, 0.0)
    _check_radius(r)
    x = np.asarray(theta, dtype=float)
    return _match(2.0 * r * np.sin(x) / _den(r, x), theta)


def conj_poisson_dt(r, theta):
    """Angular derivative of the conjugate Poisson kernel.

    Written as 2 r ((1 - r)^2 - 2 (1 + r^2) sin(theta/2)^2) / D^2, an
    equivalent of 2 r ((1 + r^2) cos(theta) - 2 r) / D^2 whose numerator
    keeps its sign readable: positive on |theta| <= 1 - r, where the kernel
    is still rising toward its peak.
    """
    _check_radius(r)
    x = np.asarray(theta, dtype=float)
    s2 = np.sin(0.5 * x) ** 2
    d = _den(r, x)
    return _match(2.0 * r * ((1.0 - r) ** 2 - 2.0 * (1.0 + r * r) * s2) / (d * d), theta)


def analytic_kernel(z, t):
    """(e^{it} + z) / (e^{it} - z) for |z| < 1.

    Its real part is the Poisson kernel and its imaginary part the
    conjugate Poisson kernel at (|z|, arg z - t).
    """
    if abs(z) >= 1.0:
        raise DomainError("analytic kernel needs |z| < 1")
    zeta = np.exp(1j * np.asarray(t, dtype=float))
    return _match((zeta + z) / (zeta - z), t)


def cauchy_kernel(z, t):
    """e^{it} / (e^{it} - z); equals (analytic_kernel + 1) / 2."""
    if abs(z) >= 1.0:
        raise DomainError("Cauchy kernel needs |z| < 1")
    zeta = np.exp(1j * np.asarray(t, dtype=float))
    return _match(zeta / (zeta - z), t)
