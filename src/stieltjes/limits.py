"""Boundary-approach experiments for the disk transforms.

A field is evaluated along approach paths terminating at a boundary angle,
the trace is extrapolated, and the extrapolant is compared against the
predicted boundary value: the integrator's derivative for the harmonic
extension, the principal-value cotangent integral for the conjugate, and
their complex combination for the analytic and Cauchy transforms.

Checks never hard-fail on a residual.  Each comparison is graded pass
(within tolerance), marginal (within three times), or fail, so a report
carries evidence rather than a verdict; callers decide what a fail means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .accel import extrapolate
from .core import ApproachPath, BoundaryFunction, LimitEstimate
from .quadrature import QuadratureOptions
from .singular import hilbert_stieltjes
from .transforms import (
    cauchy_from_schwartz,
    cauchy_stieltjes,
    conj_poisson_stieltjes,
    poisson_stieltjes,
    schwartz_stieltjes,
)

__all__ = [
    "LIMITS_OPTS",
    "DEFAULT_APERTURES",
    "angular_limit",
    "LimitCheckRow",
    "LimitCheckReport",
    "poisson_limit_check",
    "conjugate_limit_check",
    "analytic_limit_check",
]

# Per-point transform accuracy well under the 1e-3 scale of the limit
# comparisons; the absolute floor matters because several fields tend to 0.
LIMITS_OPTS = QuadratureOptions(rel_tol=1e-5, abs_tol=3e-5)

DEFAULT_APERTURES = (math.pi / 6.0, math.pi / 3.0)


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"limit tolerance must be finite and positive, got {tol}")


def angular_limit(field: Callable, path: ApproachPath, tol: float = 1e-3) -> LimitEstimate:
    """Evaluate ``field`` at the deepest points of ``path`` and extrapolate.

    :func:`accel.extrapolate` runs ``field`` only at the last
    ``accel.TAIL_WINDOW`` points of the dyadic schedule s_k = 2^-k, the
    ones the extrapolant reads, so the trace holds (k, value) for exactly
    the points the value depends on, as ``PVResult.eps_trace`` does for its
    truncations.  ``converged`` means the accelerated tail oscillates by
    less than ``tol``, which must be finite and positive.
    """
    _check_tol(tol)
    points = dict(path.indexed_points())
    trace, limit, resid = extrapolate(lambda k: field(points[k]), points)
    return LimitEstimate(trace=trace, extrapolated=limit, residual=float(resid), converged=bool(resid < tol))


def _grade(residual: float, tol: float) -> str:
    if residual <= tol:
        return "pass"
    if residual <= 3.0 * tol:
        return "marginal"
    return "fail"


@dataclass
class LimitCheckRow:
    field: str
    approach: str
    estimate: LimitEstimate
    expected: complex
    residual: float
    grade: str


@dataclass
class LimitCheckReport:
    phi_name: str
    target: float
    tol: float
    rows: list
    aperture_spread: float
    # every quadrature the report read: the expected PV, then each field point
    statuses: list

    @property
    def worst_grade(self) -> str:
        order = {"pass": 0, "marginal": 1, "fail": 2}
        return max((row.grade for row in self.rows), key=order.__getitem__)

    @property
    def passed(self) -> bool:
        return all(row.grade != "fail" for row in self.rows)


def _paths(target: float, apertures: Sequence[float], k_max: int):
    out = [("radial", ApproachPath(target, 0.0, k_max=k_max))]
    for a in apertures:
        out.append((f"stolz{+a:+.3f}", ApproachPath(target, +a, k_max=k_max)))
        out.append((f"stolz{-a:+.3f}", ApproachPath(target, -a, k_max=k_max)))
    return out


def _certified_derivative(phi: BoundaryFunction, angle: float, label: str) -> float:
    value = phi.derivative(angle)
    if value is None:
        raise ValueError(f"{phi.name} does not certify a derivative at {label}={angle:.6g}")
    return value


def _report(phi, target, fields, apertures, tol, opts, k_max, statuses=()) -> LimitCheckReport:
    """Graded rows of each ``(letter, transform, expected)`` field along every path.

    The transforms run at ``opts``, or at ``LIMITS_OPTS`` when it is None.
    Rows come field by field in path order; ``aperture_spread`` is the
    largest disagreement between the extrapolants of any one field.  The
    report's statuses are ``statuses``, those of the expected values, then
    every transform's in the order it ran.
    """
    opts = opts or LIMITS_OPTS
    paths = _paths(target, apertures, k_max)
    rows, spreads, statuses = [], [], list(statuses)
    for letter, transform, expected in fields:
        def field(z):
            res = transform(phi, z, opts)
            statuses.append(res.status)
            return res.value

        ests = [angular_limit(field, path, tol) for _label, path in paths]
        for (label, _path), est in zip(paths, ests):
            residual = abs(est.extrapolated - expected)
            rows.append(LimitCheckRow(letter, label, est, expected, float(residual), _grade(residual, tol)))
        spreads.append(max(abs(a.extrapolated - b.extrapolated) for a in ests for b in ests))
    return LimitCheckReport(phi.name, target, tol, rows, float(max(spreads)), statuses)


def poisson_limit_check(
    phi: BoundaryFunction,
    t0: float,
    apertures: Sequence[float] = DEFAULT_APERTURES,
    tol: float = 1e-3,
    k_max: int = 14,
) -> LimitCheckReport:
    """Angular limits of the harmonic extension against the derivative.

    Needs an integrator whose derivative at ``t0`` is certified (smooth
    kind or declared plateau); the harmonic extension must approach
    exactly that number along every nontangential path.  The transforms
    run at ``LIMITS_OPTS``; ``tol`` must be finite and positive.
    """
    _check_tol(tol)
    expected = _certified_derivative(phi, t0, "t0")
    return _report(phi, t0, [("U", poisson_stieltjes, expected)], apertures, tol, None, k_max)


def conjugate_limit_check(
    phi: BoundaryFunction,
    tau: float,
    apertures: Sequence[float] = DEFAULT_APERTURES,
    tol: float = 2e-3,
    k_max: int = 14,
) -> LimitCheckReport:
    """Angular limits of the conjugate extension against the PV integral.

    The transforms run at ``LIMITS_OPTS``; ``tol`` must be finite and
    positive.
    """
    _check_tol(tol)
    pv = hilbert_stieltjes(phi, tau)
    fields = [("V", conj_poisson_stieltjes, pv.value)]
    return _report(phi, tau, fields, apertures, tol, None, k_max, [pv.status])


def analytic_limit_check(
    phi: BoundaryFunction,
    tau: float,
    apertures: Sequence[float] = (math.pi / 6.0,),
    tol: float = 3e-3,
    opts: Optional[QuadratureOptions] = None,
    k_max: int = 14,
) -> LimitCheckReport:
    """Angular limits of the analytic and Cauchy transforms together.

    The analytic transform must approach derivative + i * PV integral; the
    Cauchy transform half of that, shifted by net_increment / 4 pi when the
    integrator is a staircase (the two kernels differ by the constant 1/2,
    which integrates the net increment).  ``tol`` must be finite and
    positive.
    """
    _check_tol(tol)
    deriv = _certified_derivative(phi, tau, "tau")
    pv = hilbert_stieltjes(phi, tau)
    expected_s = complex(deriv, pv.value)
    expected_c = cauchy_from_schwartz(expected_s, phi)
    fields = [("S", schwartz_stieltjes, expected_s), ("C", cauchy_stieltjes, expected_c)]
    return _report(phi, tau, fields, apertures, tol, opts, k_max, [pv.status])
