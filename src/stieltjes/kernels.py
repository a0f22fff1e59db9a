"""Boundary kernels of the unit disk in numerically stable forms.

The four disk kernels are parts of one, S = (1 + r e^{ix}) / (1 - r e^{ix})
at x = theta - t: its real part is the Poisson kernel P, its imaginary
part the conjugate kernel Q, and the Cauchy kernel is (S + 1) / 2.  All
are written over the half-angle tangent tau = tan(x / 2) and

    D'(r, tau) = (1 - r)**2 + (1 + r)**2 * tau**2 = (1 + tau**2) (1 - 2 r cos x + r**2),

as P = (1 - r^2)(1 + tau^2) / D' and Q = 4 r tau / D'.  Both terms of D'
are non-negative, which avoids the cancellation the textbook
``1 - 2 r cos x + r**2`` form suffers when r -> 1 with x -> 0, and tau is
finite at every float angle, since none is an odd multiple of pi.

Angles are always taken as differences (the kernels are 2*pi-periodic in
``theta``); radii are validated because every formula here degenerates on
the boundary except the cotangent kernel, which gets an explicit guard.

One term builder, :func:`_half_angle`, writes tau over an angle array the
caller owns, and the unchecked cores ``_poisson``, ``_conj_poisson``,
``_schwarz`` and ``_cauchy`` write their kernel over the builder's arrays,
so a core call on n angles holds at most four arrays of n doubles.  The
disk transforms call the cores on ``_angles(theta, t)``, the difference
array of their own: their ``DiskPoint`` has checked the radius once, and a
check per call costs about half of a short kernel call.  The public kernels
check the radius and hand the cores a copy, so no kernel writes into its
argument.  Every kernel, core or public, gives a 0-d result back as a
Python ``float`` or ``complex``, through :func:`_value`.
"""

from __future__ import annotations

import cmath

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


def _angles(theta, t):
    """theta - t in a float array of its own (0-d for scalars), for the in-place steps to write over."""
    x = np.subtract(theta, t, dtype=float)
    return x if x.ndim else np.asarray(x)


def _copy(r, theta):
    """A float copy of theta, broadcast against an array r, for the in-place steps to write over."""
    if np.ndim(r):
        theta = np.broadcast_arrays(theta, r)[0]
    return np.array(theta, dtype=float)


def _half_angle(r, x, tau2=None):
    """Write tau = tan(x / 2) over the float array x and tau^2 into ``tau2``; return D'(r, tau).

    ``tau2`` is x itself where tau is spent, or an array of x's shape; with
    None, D' is written over a new tau^2 array.
    """
    x *= 0.5
    np.tan(x, out=x)
    if tau2 is None:
        d = np.multiply(x, x)
        d *= (1.0 + r) ** 2
    else:
        d = np.multiply(np.multiply(x, x, out=tau2), (1.0 + r) ** 2)
    d += (1.0 - r) ** 2
    return d


def _value(a):
    """``a``, or its element as a Python scalar when ``a`` is 0-d."""
    return a if a.ndim else a.item()


def _p_over(r, tau2, d):
    """P = (1 - r^2)(1 + tau^2) / D', written over ``tau2``."""
    tau2 += 1.0
    tau2 *= 1.0 - r * r
    tau2 /= d
    return tau2


# the unchecked cores, for callers whose radius is already known to be in
# [0, 1); each writes over the angle array x it is handed
def _poisson(r, x):
    return _value(_p_over(r, x, _half_angle(r, x, x)))


def _conj_poisson(r, x):
    d = _half_angle(r, x)
    x *= 4.0 * r
    x /= d
    return _value(x)


def _schwarz(r, x):
    """S = P + iQ at radius r and angle x, each part written straight into S."""
    s = np.empty(x.shape, dtype=complex)
    re, im = s.real, s.imag
    d = _half_angle(r, x, re)
    _p_over(r, re, d)
    x *= 4.0 * r
    np.divide(x, d, out=im)
    return _value(s)


def _cauchy(r, x):
    """C = (S + 1) / 2, written over S."""
    s = _schwarz(r, x)
    s += 1.0
    s /= 2.0
    return s


def poisson(r, theta):
    """Poisson kernel (1 - r^2)(1 + tau^2) / D'; strictly positive for r < 1."""
    _check_radius(r)
    return _poisson(r, _copy(r, theta))


def poisson_dtheta(r, theta):
    """Angular derivative of the Poisson kernel.

    Equals -4 r (1 - r^2) tau (1 + tau^2) / D'^2, that is
    -2 r (1 - r^2) sin(theta) / (1 - 2 r cos(theta) + r^2)^2; odd in theta.
    """
    _check_radius(r)
    tau = _copy(r, theta)
    tau2 = np.empty_like(tau)
    d = _half_angle(r, tau, tau2)
    return _value(-4.0 * r * (1.0 - r * r) * tau * (1.0 + tau2) / (d * d))


def boundary_cot_kernel(tau, t):
    """cot((tau - t) / 2), the r -> 1 limit of the conjugate kernel.

    Raises when the difference falls inside the pole guard at any whole
    turn; the principal-value machinery must exclude the diagonal itself.
    """
    x = _angles(tau, t)
    # tan(x / 2) is 2*pi-periodic and about half the reduced angle near a pole
    x *= 0.5
    np.tan(x, out=x)
    if np.any(np.abs(x) < 0.5 * COT_GUARD):
        raise SingularityError("cotangent kernel evaluated at its pole")
    return _value(np.divide(1.0, x, out=x))


def conj_poisson(r, theta):
    """Conjugate Poisson kernel 4 r tau / D'; odd in theta.

    At r = 1 the kernel degenerates to cot(theta / 2), which is returned
    (with the pole guard) so truncated boundary integrals can be phrased
    uniformly in r.
    """
    if np.ndim(r) == 0 and r == 1.0:
        return boundary_cot_kernel(theta, 0.0)
    _check_radius(r)
    return _conj_poisson(r, _copy(r, theta))


def conj_poisson_dt(r, theta):
    """Angular derivative of the conjugate Poisson kernel.

    Written as 2 r ((1 - r)^2 - (1 + r)^2 tau^2)(1 + tau^2) / D'^2, whose
    numerator keeps its sign readable: positive on tau^2 < ((1 - r)/(1 + r))^2,
    where the kernel is still rising toward its peak.
    """
    _check_radius(r)
    tau2 = _copy(r, theta)
    d = _half_angle(r, tau2, tau2)
    return _value(2.0 * r * ((1.0 - r) ** 2 - (1.0 + r) ** 2 * tau2) * (1.0 + tau2) / (d * d))


def analytic_kernel(z, t):
    """(e^{it} + z) / (e^{it} - z) for |z| < 1.

    Its real part is the Poisson kernel and its imaginary part the
    conjugate Poisson kernel at (|z|, arg z - t).
    """
    if not abs(z) < 1.0:  # refuses nan and inf too
        raise DomainError(f"disk kernels need |z| < 1, got {z!r}")
    return _schwarz(abs(z), _angles(cmath.phase(z), t))


def cauchy_kernel(z, t):
    """e^{it} / (e^{it} - z); equals (analytic_kernel + 1) / 2."""
    return (analytic_kernel(z, t) + 1.0) / 2.0
