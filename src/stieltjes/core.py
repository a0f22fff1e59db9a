"""Domain types shared by the quadrature engine and the boundary transforms.

The central object is :class:`BoundaryFunction`, a bounded real function on
the circle used as a Stieltjes integrator.  A boundary function is described
by its kind (closed form, staircase, piecewise, Cantor-like, pathological)
plus declared metadata: atom locations and heights and a sup bound.
Evaluation is vectorized over numpy arrays.

Conventions
-----------
* Angles are reduced to the principal window ``(-pi, pi]``: scalars exactly,
  by :func:`principal_angle`; arrays by one rounded subtraction of a ``2*pi``
  multiple, off by about an ulp of ``2*pi`` per turn, in-window ones as ``arr + 0.0``.
* Kinds whose measure is charge neutral over one period (``closed_form``,
  ``piecewise``, ``cantor``) evaluate periodically; any periodization seam is
  declared as an atom at ``pi``.  Staircase kinds (``step``) accumulate: the
  function gains ``period_increment`` per turn so that the measure, not the
  value, is what repeats.  This is what makes a unit atom radiate the plain
  Poisson kernel instead of a kernel difference.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "reduce_angle",
    "DomainError",
    "BoundaryFunction",
    "DiskPoint",
    "ApproachPath",
    "RSStatus",
    "RSResult",
    "LimitEstimate",
    "jump_images",
]


class DomainError(ValueError):
    """Evaluation or construction outside the declared domain."""


def reduce_angle(t):
    """Reduce angles to ``(-pi, pi]``; the return type mirrors the input.

    A scalar or 0-d input is :func:`principal_angle` of it, exact at any
    size, or nan when not finite.  An array takes one rounded subtraction of
    a 2*pi multiple, off by about an ulp of 2*pi per turn; one all in the
    window comes back as ``arr + 0.0``, bit for bit the full reduction
    (-0.0 included, which both turn into +0.0).
    """
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        t = float(t)
        return principal_angle(t) if math.isfinite(t) else math.nan
    arr = np.asarray(t, dtype=float)
    # nan fails both comparisons, so it takes the full reduction
    if arr.size and arr.min() > -math.pi and arr.max() <= math.pi:
        return arr + 0.0
    return _reduced(arr)


def principal_angle(t: float) -> float:
    """``t`` modulo ``2*pi`` in ``(-pi, pi]``; one already there passes untouched.

    Others take the phase of ``exp(1j * t)``, whose sine and cosine reduce
    exactly, so even 1e17 lands on its true residue, as in :attr:`DiskPoint.z`.
    """
    if -math.pi < t <= math.pi:
        return t
    a = cmath.phase(cmath.exp(1j * t))
    return math.pi if a == -math.pi else a


def _reduced(arr):
    """The full reduction of a float array to ``(-pi, pi]``, in a new array."""
    out = arr - TWO_PI * np.ceil((arr - math.pi) / TWO_PI)
    # The rounded quotient can land an angle a hair outside (-pi, pi] on
    # either side; both folds are exact, so a reduced angle stays put.
    out[out <= -math.pi] += TWO_PI
    out[out > math.pi] -= TWO_PI
    return out


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _cantor_staircase(x, depth):
    """Depth-``depth`` staircase approximant of the ternary singular function.

    The recursion f(3x)/2, 1/2, 1/2 + f(3x - 2)/2 on the three thirds, run
    ``depth`` times from the identity: a point still unresolved carries its
    remainder x times 2**-depth.  The result is continuous, nondecreasing,
    exact on every plateau resolved within ``depth`` levels and within
    2**-depth of the singular function in sup norm.
    """
    x = np.array(x, dtype=float, copy=True)
    y = np.zeros_like(x)
    y[x >= 1.0] = 1.0
    # digit i (from 0) weighs 0.5**(i + 1) for every point still active
    scale = 1.0
    idx = np.flatnonzero((x > 0.0) & (x < 1.0))
    for _ in range(depth):
        if not idx.size:
            break
        scale *= 0.5
        xa = x[idx]
        lo = xa < 1.0 / 3.0
        hi = xa >= 2.0 / 3.0
        # both upper thirds gain the digit's weight; the middle one is a
        # plateau, so its points are frozen there
        y[idx[~lo]] += scale
        x[idx] = np.where(lo, 3.0 * xa, 3.0 * xa - 2.0)
        idx = idx[lo | hi]
    # unresolved points carry the identity seed at the last digit's weight
    y[idx] += x[idx] * scale
    return y


def _cantor_plateau_flag(x, depth):
    """True when ``x`` lies strictly inside a plateau resolved by ``depth``."""
    if x < 0.0 or x > 1.0:
        return True  # clamped flat margins; their corners 0 and 1 are edges
    for _ in range(depth):
        if 1.0 / 3.0 < x < 2.0 / 3.0:
            return True
        if x < 1.0 / 3.0:
            x *= 3.0
        elif x > 2.0 / 3.0:
            x = 3.0 * x - 2.0
        else:
            return False  # exactly on a plateau edge
    return False


# fraction of the period kept flat at each end of the Cantor entry so the
# periodization seam is an isolated atom between two plateaus
CANTOR_MARGIN = 0.05
# an angle this close to a declared atom, on the circle, sits on it
ATOM_GUARD = 1e-9
# every approach path starts at s = 2**-APPROACH_K_MIN
APPROACH_K_MIN = 1


@dataclass(frozen=True)
class BoundaryFunction:
    """Bounded integrator on the circle with declared structure.

    ``jumps`` lists atoms as ``(location in (-pi, pi], height)``; they repeat
    every period.  At an atom a ``step`` takes the value after its jump
    (``floor(...) + 1``, right-continuous) and every other kind the value
    before it (``piecewise`` pieces end at their upper bounds, and the seam
    atoms of ``closed_form`` and ``cantor`` take the value at pi).  The
    quadrature reads each atom's side from ``kind`` alone.
    ``period_increment`` is ``phi(t + 2*pi) - phi(t)``, zero
    for charge-neutral kinds and the summed jump mass for staircases; it is
    derived when not given, and a given value that disagrees is refused.
    A staircase's ``bounded_by`` defaults to |base| plus its summed |heights|.
    """

    name: str
    kind: str  # closed_form | step | piecewise | cantor | pathological
    fn: Optional[Callable] = None
    dfn: Optional[Callable] = None
    jumps: tuple = ()
    base: float = 0.0
    period_increment: Optional[float] = None
    bounded_by: Optional[float] = None
    domain: Optional[tuple] = None  # pathological only
    depth: int = 0
    margin: float = 0.0
    pieces: tuple = ()  # ((lo, hi, fn, dfn or None), ...) covering (-pi, pi]

    def __post_init__(self):
        if self.kind not in ("closed_form", "step", "piecewise", "cantor", "pathological"):
            raise ValueError(f"unknown boundary function kind: {self.kind!r}")
        for loc, _h in self.jumps:
            if not (-math.pi < loc <= math.pi):
                raise ValueError("jump locations must lie in (-pi, pi]")
        if not all(math.isfinite(x) for x in (self.base, *(h for _loc, h in self.jumps))):
            raise ValueError("jump heights and base must be finite")
        step = self.kind == "step"
        increment = sum((h for _loc, h in self.jumps), 0.0) if step else 0.0
        if self.period_increment is None:
            object.__setattr__(self, "period_increment", increment)
        elif not math.isclose(self.period_increment, increment, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"a {self.kind} with these jumps has period_increment {increment!r}")
        if step and self.bounded_by is None:
            object.__setattr__(self, "bounded_by", abs(self.base) + sum(abs(h) for _loc, h in self.jumps))

    # -- evaluation ----------------------------------------------------

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self._eval(arr.reshape(-1)).reshape(arr.shape)
        return out if out.ndim else out.item()

    def _eval(self, t):
        if self.kind == "closed_form":
            return np.asarray(self.fn(reduce_angle(t)), dtype=float)
        if self.kind == "step":
            out = np.full(t.shape, self.base, dtype=float)
            for loc, h in self.jumps:
                out += h * np.floor((t - loc) / TWO_PI + 1.0)
            return out
        if self.kind == "piecewise":
            tr = np.asarray(reduce_angle(t), dtype=float)
            out = np.empty_like(tr)
            uppers = np.array([p[1] for p in self.pieces])
            idx = np.searchsorted(uppers, tr, side="left")
            idx = np.clip(idx, 0, len(self.pieces) - 1)
            for i, (_lo, _hi, pf, _pd) in enumerate(self.pieces):
                m = idx == i
                if m.any():
                    out[m] = pf(tr[m])
            return out
        if self.kind == "cantor":
            tr = np.asarray(reduce_angle(t), dtype=float)
            u = (tr + math.pi) / TWO_PI
            x = np.clip((u - self.margin) / (1.0 - 2.0 * self.margin), 0.0, 1.0)
            return _cantor_staircase(x, self.depth)
        # pathological: finite domain, no periodization
        a, b = self.domain
        if np.any(t < a - 1e-12) or np.any(t > b + 1e-12):
            raise DomainError(f"{self.name} is only defined on [{a}, {b}]")
        return np.asarray(self.fn(t), dtype=float)

    # -- declared structure --------------------------------------------

    def derivative(self, t: float) -> Optional[float]:
        """Exact derivative at ``t`` when the kind certifies one, else None."""
        if self.kind == "pathological" or self.atom_near(t) is not None:
            return None
        tr = reduce_angle(t)
        if self.kind == "closed_form":
            return None if self.dfn is None else float(self.dfn(tr))
        if self.kind == "step":
            return 0.0
        if self.kind == "cantor":
            u = (tr + math.pi) / TWO_PI
            x = (u - self.margin) / (1.0 - 2.0 * self.margin)
            return 0.0 if _cantor_plateau_flag(x, self.depth) else None
        # piecewise: only strictly inside a piece
        for lo, hi, _pf, pd in self.pieces:
            if lo + ATOM_GUARD < tr < hi - ATOM_GUARD:
                return None if pd is None else float(pd(tr))
        return None

    def atom_near(self, t: float) -> Optional[float]:
        """The declared atom within ATOM_GUARD of ``t`` on the circle, or None."""
        for loc, _h in self.jumps:
            # t - loc for a far t would round off the atom: reduce t first
            if abs(reduce_angle(reduce_angle(t) - loc)) <= ATOM_GUARD:
                return loc
        return None

    def is_charge_neutral(self) -> bool:
        return self.period_increment == 0.0


def jump_images(jumps: Sequence, lo: float, hi: float, periodic: bool = True):
    """Images of declared atoms inside the closed window ``[lo, hi]``.

    Returns a sorted list of ``(location, height)``.  Periodic atoms repeat
    every ``2*pi``; literal ones are used as given.
    """
    out = []
    for loc, h in jumps:
        if periodic:
            k0 = math.ceil((lo - loc) / TWO_PI - 1e-12)
            k1 = math.floor((hi - loc) / TWO_PI + 1e-12)
            for k in range(k0, k1 + 1):
                tt = loc + TWO_PI * k
                if lo - 1e-12 <= tt <= hi + 1e-12:
                    out.append((min(max(tt, lo), hi), h))
        else:
            if lo - 1e-12 <= loc <= hi + 1e-12:
                out.append((float(loc), h))
    out.sort(key=lambda p: p[0])
    return out


@dataclass(frozen=True)
class DiskPoint:
    """Point of the open unit disk in polar form."""

    r: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.r < 1.0):
            raise DomainError(f"radius {self.r} is outside [0, 1)")
        if not math.isfinite(self.theta):
            raise DomainError(f"angle {self.theta} is not finite")

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @classmethod
    def from_complex(cls, z: complex) -> "DiskPoint":
        return cls(abs(z), math.atan2(z.imag, z.real))


@dataclass(frozen=True)
class ApproachPath:
    """Boundary approach along ``z_k = zeta0 * (1 - s_k * exp(i*alpha))``.

    ``alpha = 0`` is the radial approach; a nonzero signed ``alpha`` is a
    Stolz (nontangential) approach with that opening.  The dyadic schedule
    ``s_k = 2**-k`` keeps successive points geometrically closer to the
    boundary, which is what the Aitken tail of a limit check expects.
    """

    target_angle: float
    alpha: float = 0.0
    k_max: int = 14

    def __post_init__(self):
        if not (math.isfinite(self.target_angle) and math.isfinite(self.alpha)):
            raise DomainError(f"target_angle {self.target_angle} and alpha {self.alpha} must be finite")
        if abs(self.alpha) >= math.pi / 2:
            raise DomainError("Stolz opening must satisfy |alpha| < pi/2")
        if not _is_int(self.k_max) or self.k_max < APPROACH_K_MIN:
            raise ValueError(f"k_max must be an int >= {APPROACH_K_MIN}, got {self.k_max!r}")
        # how deep a path may go before rounding puts it on the circle depends on alpha
        deepest = cmath.exp(1j * self.target_angle) * (1.0 - 2.0 ** -self.k_max * cmath.exp(1j * self.alpha))
        if abs(deepest) >= 1.0:
            raise DomainError(f"k_max = {self.k_max} puts the deepest point on the circle")

    def indexed_points(self) -> list:
        """(k, point) pairs; wide openings may clip their earliest entries."""
        zeta0 = cmath.exp(1j * self.target_angle)
        shift = cmath.exp(1j * self.alpha)
        out = []
        for k in range(APPROACH_K_MIN, self.k_max + 1):
            s = 2.0 ** (-k)
            # clip to the open disk: very wide openings lose their first points
            if s >= 2.0 * math.cos(self.alpha):
                continue
            z = zeta0 * (1.0 - s * shift)
            out.append((k, DiskPoint.from_complex(z)))
        if not out:
            raise DomainError("approach path has no points inside the disk")
        return out

    def points(self) -> list:
        return [p for _k, p in self.indexed_points()]


class RSStatus(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RSResult:
    """Outcome of a refinement run of tagged Riemann-Stieltjes sums.

    ``value`` is, for a ``CONVERGED`` run, one Richardson step
    s_k + (s_k - s_{k-1}) / 3 of the midpoint-policy sums of the last two
    levels, and otherwise the midpoint-policy sum at the deepest level
    reached (a complex number for complex integrands).  ``levels`` records
    ``(mesh, midpoint sum)`` per level.  ``est_error`` folds the last
    level-to-level difference together with the spread of a row of
    random tags and its jump guard, so a ``CONVERGED`` status certifies
    both refinement and tag insensitivity.
    """

    value: complex
    levels: list
    est_error: float
    status: RSStatus

    @property
    def converged(self) -> bool:
        return self.status is RSStatus.CONVERGED


@dataclass
class LimitEstimate:
    """Extrapolated boundary limit along one approach path.

    ``trace`` holds the (k, value) pairs :func:`accel.extrapolate`
    evaluated, the only ones the extrapolant reads: the deepest
    ``accel.TAIL_WINDOW`` points of the path, or all of a shorter one.
    """

    trace: list  # (k, value) pairs
    extrapolated: complex
    residual: float
    converged: bool
