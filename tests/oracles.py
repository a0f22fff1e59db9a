"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and kept separate from the package:
plain tagged sums, dense-grid quadrature, a recursive Cantor evaluator, and
textbook finite differences.  When a test compares the library against one
of these, the two sides share no code.  The two exceptions must match the
package bit for bit.  ``eager_rs_integral`` shares only ``_split``, the
one reader of f's structure, and the grid map of ``_level_points``; it
restates the ladder on from-scratch partitions, evaluating g on every
cell, flat ones included, and the replica row and the jump guard each with
its own ``g`` call on a row drawn afresh, where the package gathers the
live cells of a sparse level, makes one call of the row and the guard and
caches the draws.
``full_path_limit`` shares ``aitken_tail`` and evaluates every point of the
approach path.
"""

import cmath
import math

import numpy as np

from stieltjes.accel import aitken_tail
from stieltjes.core import TWO_PI, BoundaryFunction, RSResult, RSStatus
from stieltjes.kernels import poisson_dtheta
from stieltjes.quadrature import (
    DECAY_SLACK,
    GROWTH_FACTOR,
    GROWTH_STEPS,
    K_MIN,
    SPREAD_FLOOR_FACTOR,
    SPREAD_KAPPA,
    QuadratureOptions,
    _grid_map,
    _split,
)


def rs_tagged_sum(g, f, a, b, n, rule="mid", rng=None):
    """One tagged Riemann-Stieltjes sum on the uniform n-partition."""
    pts = np.linspace(a, b, n + 1)
    if rule == "left":
        tags = pts[:-1]
    elif rule == "right":
        tags = pts[1:]
    elif rule == "mid":
        tags = 0.5 * (pts[:-1] + pts[1:])
    elif rule == "random":
        rng = rng or np.random.default_rng(12345)
        tags = pts[:-1] + rng.random(n) * (pts[1:] - pts[:-1])
    else:
        raise ValueError(rule)
    fv = np.asarray(f(pts), dtype=float)
    return np.sum(np.asarray(g(tags)) * np.diff(fv)).item()


def rs_brute(g, f, a, b, n=2 ** 15):
    """Midpoint-tag refinement estimate with a crude error bound."""
    coarse = rs_tagged_sum(g, f, a, b, n // 2)
    fine = rs_tagged_sum(g, f, a, b, n)
    return fine, abs(fine - coarse)


def dense_integral(fn, a, b, n=200001):
    """Trapezoid rule on a dense uniform grid."""
    x = np.linspace(a, b, n)
    return float(np.trapezoid(np.asarray(fn(x), dtype=float), x))


def pv_cot_density(density, tau, n=2 ** 20):
    """Principal-value integral (1/2pi) int cot((tau-t)/2) density(t) dt.

    Uses the classical regularization: cot((tau-t)/2) integrates to zero
    over a period, so subtracting density(tau) removes the pole and leaves
    an ordinary integral of a bounded integrand.  Smooth densities only.
    """
    x = np.linspace(tau - np.pi, tau + np.pi, n + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    vals = (np.asarray(density(mid)) - density(tau)) / np.tan((tau - mid) / 2)
    return float(np.sum(vals) * (2 * np.pi / n) / (2 * np.pi))


def cantor_recursive(x, depth=40):
    """The classic staircase on [0, 1] by self-similarity, one scalar at a time."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if depth == 0:
        return x
    if x < 1.0 / 3.0:
        return 0.5 * cantor_recursive(3.0 * x, depth - 1)
    if x <= 2.0 / 3.0:
        return 0.5
    return 0.5 + 0.5 * cantor_recursive(3.0 * x - 2.0, depth - 1)


def piecewise_staircase(jumps):
    """A left-continuous ``piecewise`` staircase: 0 on (-pi, t_1], jumping by h_j just after each t_j.

    ``jumps`` holds ``(t_j, h_j)`` with the t_j increasing inside (-pi, pi);
    the seam atom at pi, -sum(h_j), closes the turn.
    """
    uppers = [t for t, _h in jumps] + [math.pi]
    values = np.cumsum([0.0] + [h for _t, h in jumps])
    pieces = tuple((lo, hi, lambda t, v=v: np.full_like(t, v), None)
                   for lo, hi, v in zip([-math.pi] + uppers[:-1], uppers, values))
    return BoundaryFunction(name="staircase", kind="piecewise", pieces=pieces,
                            jumps=tuple(jumps) + ((math.pi, -float(values[-1])),))


def tsin():
    """phi(t) = t sin(1/t) on (-pi, pi], phi(0) = 0: continuous and countably BV, but not BV.

    It is even, so it has no seam atom, and differentiable away from 0; its
    derivative at 0 comes out nan, which certifies nothing.  It is the
    paper's class, which no catalog entry reaches.
    """
    def fn(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t == 0.0, 0.0, t * np.sin(1.0 / t))

    def dfn(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sin(1.0 / t) - np.cos(1.0 / t) / t

    return BoundaryFunction(name="tsin", kind="closed_form", fn=fn, dfn=dfn, bounded_by=math.pi)


# the measure dPhi of each catalog entry with a closed-form transform:
# (the Schwarz transform of its density as a function of z, its atoms
# (t_j, h_j), its net mass over one turn)
CLOSED_FORM_MEASURES = {
    "const": (lambda z: 0.0, (), 0.0),
    # density cos t: of the kernel 1 + 2 sum z^n e^{-int}, only n = 1 remains
    "sin": (lambda z: z, (), 0.0),
    # density -sin t
    "cos": (lambda z: 1j * z, (), 0.0),
    # a constant density c gives c, as the kernel's mean is 1
    "linear": (lambda z: 1.0, ((math.pi, -TWO_PI),), 0.0),
    "sawtooth": (lambda z: 1.0 / math.pi, ((math.pi, -2.0),), 0.0),
    "step2pi": (lambda z: 0.0, ((0.0, TWO_PI),), TWO_PI),
    "multi_step": (lambda z: 0.0, ((-2.0, 1.5), (0.5, -2.2), (2.4, 0.8)), 0.1),
}


def transform_closed_form(name, which, z):
    """U, V, S or C at the complex point z of a catalog entry in ``CLOSED_FORM_MEASURES``.

    S is (1/2pi) int (e^{it} + z) / (e^{it} - z) dPhi(t): the density's part
    plus h_j (e^{it_j} + z) / (e^{it_j} - z) / 2pi per atom.  U and V are its
    real and imaginary parts, and C = (S + mass / 2pi) / 2, since the Cauchy
    kernel e^{it} / (e^{it} - z) is half the Schwarz kernel plus 1/2.
    """
    density, atoms, mass = CLOSED_FORM_MEASURES[name]
    s = complex(density(z)) + sum(h * (cmath.exp(1j * t) + z) / (cmath.exp(1j * t) - z) for t, h in atoms) / TWO_PI
    return {"U": s.real, "V": s.imag, "S": s, "C": (s + mass / TWO_PI) / 2.0}[which]


def by_parts_poisson(phi, r, theta, n, chunk=2 ** 20):
    """(1/2pi) int phi(t) dP/dtheta(theta - t) dt by the midpoint rule on n nodes.

    Equals the Poisson transform of dphi where phi takes the same value at
    -pi and pi, so the boundary term of the integration by parts cancels.
    """
    total = 0.0
    for start in range(0, n, chunk):
        t = -math.pi + TWO_PI * (np.arange(start, min(start + chunk, n)) + 0.5) / n
        total += float(np.sum(phi(t) * poisson_dtheta(r, theta - t)))
    return total / n


def full_path_limit(field, path, tol=1e-3):
    """``(trace, limit, residual, converged)`` from the field at every point of ``path``."""
    pairs = path.indexed_points()
    values = [field(z) for _k, z in pairs]
    limit, resid = aitken_tail(values)
    trace = [(k, v) for (k, _z), v in zip(pairs, values)]
    return trace, limit, float(resid), bool(resid < tol)


def diff1(fn, x, h=1e-5):
    """Five-point first derivative."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def diff2(fn, x, h=1e-4):
    """Central second derivative."""
    return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)


def poisson_reference(r, x):
    """Poisson kernel via the cosine form of the denominator."""
    return (1 - r * r) / (1 - 2 * r * np.cos(x) + r * r)


def conj_poisson_reference(r, x):
    return 2 * r * np.sin(x) / (1 - 2 * r * np.cos(x) + r * r)


# the kernels' earlier forms: P and Q over the sine form of the denominator,
# S and C from complex exponentials


def den_sin(r, x):
    """1 - 2 r cos(x) + r^2 written as (1 - r)^2 + 4 r sin^2(x / 2)."""
    s = np.sin(0.5 * x)
    return (1 - r) ** 2 + 4 * r * s * s


def poisson_sin(r, x):
    return (1 - r * r) / den_sin(r, x)


def conj_poisson_sin(r, x):
    return 2 * r * np.sin(x) / den_sin(r, x)


def analytic_exp(z, t):
    """(e^{it} + z) / (e^{it} - z)."""
    zeta = np.exp(1j * t)
    return (zeta + z) / (zeta - z)


def cauchy_exp(z, t):
    """e^{it} / (e^{it} - z)."""
    zeta = np.exp(1j * t)
    return zeta / (zeta - z)


# the one-expression forms of the grid map and the cotangent kernel, each
# step on a fresh temporary


def graded_map_expression(v, center, lam):
    m = np.round(v / 2.0)
    return center + 2 * math.pi * m + 4.0 * np.arctan(np.sinh(lam * (v - 2.0 * m)) / math.sinh(lam))


def cot_half_expression(tau, t):
    return 1.0 / np.tan(0.5 * (np.asarray(tau, dtype=float) - np.asarray(t, dtype=float)))


# the refinement ladder restated level by level: every cell evaluated, the
# replica row and the guard each in a g call of its own, the row drawn afresh


def _sum_over_cells(p, df):
    """The sum of the per-cell terms ``p``, a flat cell's term set to an exact zero in ``p`` where the sum is not finite."""
    s = p.sum()
    if not cmath.isfinite(s):
        p[df == 0.0] = 0.0
        s = p.sum()
    return s


def _level_points(a, b, n, grading):
    """Level partition of [a, b] into n grid cells with both ends pinned to a and b.

    Built from scratch; ``quadrature._NestedLevels`` gives the same points level by level.
    """
    p, q, to_t = _grid_map(a, b, grading)
    pts = to_t(np.linspace(p, q, n + 1))
    pts[0], pts[-1] = a, b
    return pts


def eager_rs_integral(g, f, a, b, opts=None, *, grading=None):
    """``rs_integral`` restated: every level evaluates g on every cell, for its midpoints and its one replica row.

    With d = (g(tags) - g(midpoints)) * df per cell, the row's spread is
    |sum d| + SPREAD_KAPPA * sqrt(sum |d|^2).  The guard is g's oscillation
    over the ends and the midpoint of the first cell of largest |df|, times
    that |df|; the spread is the shared atoms' one or the row's plus the
    guard, the guard left out once it is at most half its value two levels
    before.  A level certifies when its difference is within the tolerance
    and its spread is too, or, with no shared atom, when the spread has at
    least halved on each of its last two levels and is within DECAY_SLACK
    times the tolerance.  Divergence needs the spread or the guard, and the
    difference, to grow.
    """
    opts = opts or QuadratureOptions()
    if grading is not None and not (math.isfinite(grading[1]) and grading[1] > 0.0):
        raise ValueError("grading distance must be finite and positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration ends must be finite, got [{a}, {b}]")
    sign = 1.0
    if a == b:
        return RSResult(0.0, [(0.0, 0.0)], 0.0, RSStatus.CONVERGED)
    if a > b:
        a, b, sign = b, a, -1.0

    _atoms, known, rest, _monotone, shared = _split(f, g, a, b)

    def grows(seq):
        return len(seq) > GROWTH_STEPS and all(
            seq[-i - 1] > 0.0 and seq[-i] >= 0.999 * GROWTH_FACTOR * seq[-i - 1] for i in range(1, GROWTH_STEPS + 1))

    levels, spreads, guards, diffs = [], [], [], []
    prev_sum = None
    for k in range(K_MIN, opts.k_max + 1):
        n = 2 ** k
        pts = _level_points(a, b, n, grading)
        widths = np.diff(pts)
        df = np.diff(np.asarray(rest(pts), dtype=float))
        # the sums of the rest; the atoms add known to each of them alike
        p_mid = np.asarray(g(0.5 * (pts[:-1] + pts[1:]))) * df
        head = _sum_over_cells(p_mid, df)
        s_mid = head if known is None else head + known
        value = sign * s_mid.item()
        levels.append((float(widths.max()), value))
        if not cmath.isfinite(s_mid):
            return RSResult(value, levels, math.inf, RSStatus.INCONCLUSIVE)
        row = guard = 0.0
        if np.any(df != 0.0):
            tags = pts[:-1] + np.random.default_rng((opts.seed, k, 0)).random(n) * widths
            d = np.broadcast_to(np.asarray(g(tags)), tags.shape) * df - p_mid
            row = abs(_sum_over_cells(d, df)) + SPREAD_KAPPA * math.sqrt(float(np.sum(np.abs(d) ** 2)))
            i = int(np.argmax(np.abs(df)))
            gi = np.broadcast_to(np.asarray(g(np.array([pts[i], (pts[i] + pts[i + 1]) / 2.0, pts[i + 1]]))), (3,))
            ends = gi * abs(df[i])
            osc = max(abs(ends[0] - ends[1]), abs(ends[1] - ends[2]), abs(ends[2] - ends[0]))
            guard = osc if np.isfinite(ends).all() else math.nan
            if not math.isfinite(row + guard):
                return RSResult(value, levels, math.inf, RSStatus.INCONCLUSIVE)
        guards.append(guard)
        counted = len(guards) < 3 or guard > guards[-3] / 2.0
        spread = max(shared, row + guard if counted else row)
        spreads.append(spread)
        diff = math.inf if prev_sum is None else abs(s_mid - prev_sum)
        diffs.append(diff)
        tol = opts.tolerance(abs(s_mid))
        halved = len(spreads) >= 3 and spreads[-1] <= spreads[-2] / 2.0 and spreads[-2] <= spreads[-3] / 2.0
        if diff <= tol and (spread <= tol or (shared == 0.0 and halved and spread <= DECAY_SLACK * tol)):
            # one Richardson step of the last two midpoint sums
            return RSResult(sign * (s_mid + (s_mid - prev_sum) / 3.0).item(), levels, float(max(diff, spread)),
                            RSStatus.CONVERGED)
        if spread > SPREAD_FLOOR_FACTOR * opts.abs_tol and (grows(spreads) or grows(guards)) and grows(diffs):
            return RSResult(value, levels, float(spread), RSStatus.DIVERGED)
        prev_sum = s_mid

    return RSResult(value, levels, float(max(diff, spread)), RSStatus.INCONCLUSIVE)
