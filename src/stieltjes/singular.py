"""Principal-value boundary integrals of an integrator.

The conjugate function's boundary values are reached through truncated
integrals of the cotangent kernel over symmetric angular exclusions
``eps <= |tau - t| <= pi``, refined along a dyadic schedule of ``eps`` and
extrapolated by :func:`accel.extrapolate`, which runs only the last
``accel.TAIL_WINDOW`` truncations of a schedule, the ones the Aitken step
reads.  The default schedule is exactly those, eps = 2^-13 ... 2^-16, and
``est_error`` is the Aitken residual plus the worst window certificate
among them.
The singular Cauchy form excludes a chord-metric arc
``|zeta - zeta0| < eps`` instead and carries the 1/(2 pi i) normalization
of classical singular integrals.  At zeta0 projected to e^{i tau} its
integrand is (cot((tau - t)/2) - i) / 2: both forms evaluate one kernel
behind one pole guard.  Its real part reproduces half the cotangent
limit; the imaginary part decays with the excluded arc's mass (plus a
constant for staircase integrators) and is reported, not mixed into the
comparison.

Evaluation at a declared atom of the integrator is refused: the truncated
integrals at such a point depend on the exclusion convention, and no
single value is canonical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .accel import TAIL_WINDOW, extrapolate
from .core import TWO_PI, BoundaryFunction, DiskPoint, RSStatus, principal_angle
from .kernels import boundary_cot_kernel
from .quadrature import NonConvergentError, QuadratureOptions, rs_integral
from .transforms import TRANSFORM_OPTS, conj_poisson_stieltjes

__all__ = [
    "DEFAULT_EPS_SCHEDULE",
    "JumpAtEvaluationPoint",
    "PVResult",
    "hilbert_stieltjes",
    "truncated_conjugate_integral",
    "conjugate_truncation_trace",
    "singular_cauchy_stieltjes",
    "SingularConsistency",
    "singular_cauchy_consistency",
]

# the truncations aitken_tail reads: eps = 2^-13 ... 2^-16
DEFAULT_EPS_SCHEDULE = tuple(2.0 ** -j for j in range(17 - TAIL_WINDOW, 17))


class JumpAtEvaluationPoint(ValueError):
    """The requested boundary angle carries an atom of the integrator."""


@dataclass
class PVResult:
    """A principal-value limit with its truncation trace.

    ``eps_trace`` holds (eps, truncated value) in decreasing eps order for
    the last ``accel.TAIL_WINDOW`` entries of the schedule, the only
    truncations run and the ones the extrapolation reads; ``value`` is the
    extrapolated limit; ``est_error`` adds the extrapolation residual to
    the worst quadrature certificate over the trace; ``extrapolated``
    distinguishes a genuine accelerated limit from a last-truncation
    fallback on short traces; ``status`` is ``CONVERGED`` only when every
    window ladder of the trace converged (a diverged window raises).
    """

    value: complex
    eps_trace: list
    extrapolated: bool
    est_error: float
    status: RSStatus


def _boundary_angle(phi: BoundaryFunction, tau: float) -> float:
    """``tau`` reduced to ``(-pi, pi]``, checked finite and off phi's atoms."""
    if not math.isfinite(tau):
        raise ValueError(f"boundary angle {tau} is not finite")
    tau = principal_angle(tau)
    loc = phi.atom_near(tau)
    if loc is not None:
        raise JumpAtEvaluationPoint(
            f"{phi.name} has an atom at {loc:.6g}; the boundary value there is undefined"
        )
    return tau


def _checked_schedule(eps_schedule, upper):
    """The eps schedule (default if None), positive, below ``upper``, strictly decreasing."""
    schedule = tuple(eps_schedule) if eps_schedule is not None else DEFAULT_EPS_SCHEDULE
    if any(not (0.0 < e < upper) for e in schedule):
        raise ValueError(f"eps values must lie in (0, {upper:g})")
    if any(later >= earlier for earlier, later in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    return schedule


def _pv_limit(phi, g, tau, schedule, opts, halfwidth):
    """Truncated integrals of g dPhi along the schedule's tail, extrapolated to eps -> 0.

    Each eps integrates over [tau - pi, tau - delta] and [tau + delta, tau + pi]
    with delta = ``halfwidth(eps)``, both graded at (tau, delta).  Only the
    truncations :func:`accel.extrapolate` evaluates run.
    """
    statuses, errors = [], []

    def truncation(eps):
        delta = halfwidth(eps)
        grading = (tau, delta)
        left = rs_integral(g, phi, tau - math.pi, tau - delta, opts, grading=grading)
        right = rs_integral(g, phi, tau + delta, tau + math.pi, opts, grading=grading)
        for part in (left, right):
            if part.status is RSStatus.DIVERGED:
                raise NonConvergentError("truncated integral diverged", part)
            statuses.append(part.status)
        errors.append((left.est_error + right.est_error) / TWO_PI)
        return (left.value + right.value) / TWO_PI

    trace, limit, resid = extrapolate(truncation, schedule)
    converged = all(s is RSStatus.CONVERGED for s in statuses)
    return PVResult(
        value=limit,
        eps_trace=trace,
        extrapolated=len(trace) >= 3,
        est_error=resid + max([0.0, *errors]),
        status=RSStatus.CONVERGED if converged else RSStatus.INCONCLUSIVE,
    )


def hilbert_stieltjes(
    phi: BoundaryFunction,
    tau: float,
    eps_schedule: Optional[Sequence[float]] = None,
    opts: Optional[QuadratureOptions] = None,
) -> PVResult:
    """Principal-value integral of cot((tau - t)/2) against dPhi, / 2 pi.

    Truncations use the symmetric angular exclusion |tau - t| < eps; the
    returned value extrapolates the eps -> 0 tail.
    """
    tau = _boundary_angle(phi, tau)
    schedule = _checked_schedule(eps_schedule, upper=math.pi)
    g = lambda t: boundary_cot_kernel(tau, t)
    return _pv_limit(phi, g, tau, schedule, opts or TRANSFORM_OPTS, lambda eps: eps)


def truncated_conjugate_integral(phi: BoundaryFunction, t0: float, r: float) -> float:
    """One truncation of the conjugate boundary integral, at eps = 1 - r.

    This is the boundary-side quantity the conjugate Poisson transform at
    radius r approximates: the first entry of the principal-value trace of
    :func:`hilbert_stieltjes` on the one-entry schedule (1 - r,).  No limit
    is taken.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("need 0 < r < 1")
    return hilbert_stieltjes(phi, t0, (1.0 - r,)).eps_trace[0][1]


def conjugate_truncation_trace(
    phi: BoundaryFunction,
    t0: float,
    ks: Optional[Sequence[int]] = None,
) -> list:
    """|V_phi(r e^{i t0}) - truncated integral at eps = 1 - r| along r -> 1.

    Radii follow r = 1 - 2^-k; both sides run at ``TRANSFORM_OPTS``.  When
    phi is differentiable at t0 the difference tends to zero; the trace
    makes that decay observable.
    """
    ks = list(ks) if ks is not None else list(range(3, 13))
    out = []
    for k in ks:
        r = 1.0 - 2.0 ** (-k)
        v = conj_poisson_stieltjes(phi, DiskPoint(r, t0)).value
        t = truncated_conjugate_integral(phi, t0, r)
        out.append((r, abs(v - t)))
    return out


def singular_cauchy_stieltjes(
    phi: BoundaryFunction,
    zeta0: complex,
    eps_schedule: Optional[Sequence[float]] = None,
    opts: Optional[QuadratureOptions] = None,
) -> PVResult:
    """Boundary singular integral (1/2 pi i) int e^{it} dPhi / (e^{it} - zeta0).

    ``zeta0``, within 1e-9 of the circle, is taken at its projection
    e^{i tau}, where -i e^{it} / (e^{it} - e^{i tau}) = (cot((tau - t)/2) - i) / 2:
    :func:`boundary_cot_kernel` and its pole guard.  The exclusion removes
    the arc at chord distance |zeta - zeta0| < eps, whose angular
    half-width is 2 asin(eps / 2).  The real part carries the principal
    value, the imaginary part the vanishing (or, for staircases, constant)
    window boundary term.
    """
    zeta0 = complex(zeta0)
    if abs(abs(zeta0) - 1.0) > 1e-9:
        raise ValueError("evaluation point must lie on the unit circle")
    tau = _boundary_angle(phi, cmath.phase(zeta0))
    schedule = _checked_schedule(eps_schedule, upper=2.0)

    g = lambda t: 0.5 * (boundary_cot_kernel(tau, t) - 1j)
    halfwidth = lambda eps: 2.0 * math.asin(eps / 2.0)
    return _pv_limit(phi, g, tau, schedule, opts or TRANSFORM_OPTS, halfwidth)


@dataclass
class SingularConsistency:
    """Agreement between the cotangent PV and the singular Cauchy form.

    ``residual`` compares the cotangent limit against twice the real part
    of the Cauchy form; ``imag_magnitude`` reports the Cauchy form's
    imaginary part separately (it measures the window boundary term, not
    disagreement).
    """

    hilbert: PVResult
    cauchy: PVResult
    residual: float
    imag_magnitude: float


def singular_cauchy_consistency(
    phi: BoundaryFunction,
    tau: float,
    eps_schedule: Optional[Sequence[float]] = None,
    opts: Optional[QuadratureOptions] = None,
) -> SingularConsistency:
    h = hilbert_stieltjes(phi, tau, eps_schedule, opts)
    i = singular_cauchy_stieltjes(phi, cmath.exp(1j * tau), eps_schedule, opts)
    return SingularConsistency(
        hilbert=h,
        cauchy=i,
        residual=abs(h.value - 2.0 * i.value.real),
        imag_magnitude=abs(i.value.imag),
    )
