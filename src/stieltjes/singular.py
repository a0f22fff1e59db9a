"""Principal-value boundary integrals of an integrator.

A truncation integrates the cotangent kernel over eps <= |tau - t| <= pi;
:func:`accel.extrapolate` runs the last ``accel.TAIL_WINDOW`` entries of a
dyadic eps schedule (by default eps = 2^-13 ... 2^-16) and takes their
Aitken limit.  ``quadrature._split`` sums the atoms in the two windows
exactly; the kernel is odd about tau, so one real ladder over s in
[eps, pi] integrates -cot(s/2) against what it leaves, rest_right(tau + s)
+ rest_left(tau - s), and certifies the truncation, not two window values
that nearly cancel.  ``est_error`` is the Aitken residual plus the worst
truncation's certificate and atom-sum rounding.  The singular Cauchy form
excludes the chord arc |zeta - zeta0| < eps instead; at zeta0 = e^{i tau}
its integrand is (cot((tau - t)/2) - i) / 2: the real part is half the
fold, and the imaginary part telescopes to -1/2 times the integrator's
increment over the windows, read from the rests' ends and the atoms'
heights.  It decays with the excluded arc's mass (plus a constant for
staircases) and is reported, not compared.  Evaluation at a declared atom
is refused: the truncations there depend on the exclusion convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .accel import TAIL_WINDOW, extrapolate
from .core import TWO_PI, BoundaryFunction, DiskPoint, RSStatus, principal_angle
from .kernels import boundary_cot_kernel
from .quadrature import NonConvergentError, QuadratureOptions, _split, rs_integral
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
    truncations run; ``value`` is the extrapolated limit; ``est_error``
    adds the extrapolation residual to the worst truncation's certificate;
    ``extrapolated`` tells an accelerated limit from a last-truncation
    fallback; ``status`` is ``CONVERGED`` only when every truncation's
    ladder converged (a diverged one raises).
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


def _pv_limit(phi, tau, schedule, opts, cauchy):
    """Truncations of cot((tau - t)/2) dPhi / 2 pi, one folded ladder each, extrapolated to eps -> 0.

    Each excludes |tau - t| < delta = eps, or 2 asin(eps / 2) for the ``cauchy``
    form; the fold over [delta, pi] is graded at (0, delta).
    """
    folds = []
    cot = lambda t: boundary_cot_kernel(tau, t)
    scale = 0.5 if cauchy else 1.0

    def truncation(eps):
        delta = 2.0 * math.asin(eps / 2.0) if cauchy else eps
        atoms_l, known_l, rest_l, *_ = _split(phi, cot, tau - math.pi, tau - delta)
        atoms_r, known_r, rest_r, *_ = _split(phi, cot, tau + delta, tau + math.pi)
        fold = rs_integral(lambda s: boundary_cot_kernel(0.0, s), lambda s: rest_r(tau + s) + rest_l(tau - s),
                           delta, math.pi, opts, grading=(0.0, delta))
        if fold.status is RSStatus.DIVERGED:
            raise NonConvergentError("truncated integral diverged", fold)
        atoms = atoms_l + atoms_r
        # an atom's half-angle rounds by up to eps 3 pi / 2 where cot's slope is 1 + cot^2,
        # which also covers the tangent, its reciprocal and the sum of n terms
        rounding = math.ulp(1.0) * (TWO_PI + len(atoms)) * sum(abs(h) * (1.0 + cot(t) ** 2) for t, h in atoms)
        folds.append((fold.status, scale * (fold.est_error + rounding) / TWO_PI))
        value = scale * sum((k for k in (known_l, known_r) if k is not None), fold.value) / TWO_PI
        if not cauchy:
            return value
        increment = (sum(h for _t, h in atoms) + rest_l(tau - delta) - rest_l(tau - math.pi)
                     + rest_r(tau + math.pi) - rest_r(tau + delta))
        return complex(value, -0.5 * increment / TWO_PI)

    trace, limit, resid = extrapolate(truncation, schedule)
    status = RSStatus.CONVERGED if all(s is RSStatus.CONVERGED for s, _e in folds) else RSStatus.INCONCLUSIVE
    return PVResult(limit, trace, len(trace) >= 3, resid + max(e for _s, e in folds), status)


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
    return _pv_limit(phi, tau, schedule, opts or TRANSFORM_OPTS, cauchy=False)


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
    :func:`boundary_cot_kernel` and its pole guard.  The exclusion
    |zeta - zeta0| < eps has angular half-width 2 asin(eps / 2); the real
    part is half the cotangent fold there, the imaginary part the window
    boundary term, vanishing or, for staircases, constant.
    """
    zeta0 = complex(zeta0)
    if abs(abs(zeta0) - 1.0) > 1e-9:
        raise ValueError("evaluation point must lie on the unit circle")
    tau = _boundary_angle(phi, cmath.phase(zeta0))
    schedule = _checked_schedule(eps_schedule, upper=2.0)
    return _pv_limit(phi, tau, schedule, opts or TRANSFORM_OPTS, cauchy=True)


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
    return SingularConsistency(h, i, abs(h.value - 2.0 * i.value.real), abs(i.value.imag))
