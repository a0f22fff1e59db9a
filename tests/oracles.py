"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and kept separate from the package:
plain tagged sums, dense-grid quadrature, a recursive Cantor evaluator, and
textbook finite differences.  When a test compares the library against one
of these, the two sides share no code.  The two exceptions must match the
package bit for bit.  ``eager_rs_integral`` shares the package's level
helpers and keeps only its own level loop, on the from-scratch partitions
of ``_level_points``.  It evaluates g on every cell, flat ones included:
it calls ``_row_sums`` without live indices, where the package gathers
the live cells of a sparse level, and it sums by ``_summed``, which counts
a flat cell's product as an exact zero where a sum is not finite.
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
    CHUNK_POINTS,
    K_MIN,
    REPLICAS,
    SPREAD_FLOOR_FACTOR,
    QuadratureOptions,
    _cached_draws,
    _draws,
    _grid_map,
    _grows,
    _row_sums,
    _split,
    _summed,
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


# the refinement ladder as it was before lazy replicas: every level
# evaluates all REPLICAS replica sums, up to the first non-finite one


def _replica_sums(g, pts, widths, df, seed, k):
    """Level k's REPLICAS random-tag sums, up to and including the first non-finite one.

    The replicas are evaluated as blocks of rows, at most CHUNK_POINTS tags
    and one ``g`` call on the flattened block each.
    """
    n = widths.size
    cached = _cached_draws(seed, k, n) if n <= CHUNK_POINTS else None
    rows = max(1, CHUNK_POINTS // n)
    sums = []
    for r0 in range(0, REPLICAS, rows):
        reps = range(r0, min(r0 + rows, REPLICAS))
        tags = (_draws(seed, k, reps, n) if cached is None else cached[r0:reps.stop]) * widths
        tags += pts[:-1]
        for s in _row_sums(g, tags, df):
            sums.append(s)
            if not cmath.isfinite(s):
                return sums
    return sums


def _level_points(a, b, n, grading):
    """Level partition of [a, b] into n grid cells with both ends pinned to a and b.

    Built from scratch; ``quadrature._NestedLevels`` gives the same points level by level.
    """
    p, q, to_t = _grid_map(a, b, grading)
    pts = to_t(np.linspace(p, q, n + 1))
    pts[0], pts[-1] = a, b
    return pts


def eager_rs_integral(g, f, a, b, opts=None, *, grading=None):
    """``rs_integral`` with the whole replica block evaluated on every level."""
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

    levels = []
    spreads = []
    diffs = []
    prev_sum = None
    is_complex = False

    for k in range(K_MIN, opts.k_max + 1):
        pts = _level_points(a, b, 2 ** k, grading)
        widths = np.diff(pts)
        df = np.diff(np.asarray(rest(pts), dtype=float))
        # the midpoint values live to the end of the level; freeing them at
        # once lets the allocator shrink and re-fault the heap on every replica
        g_mid = np.asarray(g(0.5 * (pts[:-1] + pts[1:])))
        # the sums of the rest; the atoms add known to each of them alike
        sums = [_summed(g_mid * df, df)]
        if cmath.isfinite(sums[-1]):
            sums += _replica_sums(g, pts, widths, df, opts.seed, k)
        s_mid = sums[0] if known is None else sums[0] + known
        is_complex = is_complex or np.iscomplexobj(g_mid)
        signed = lambda s: sign * (complex(s) if is_complex else float(s))
        value = signed(s_mid)
        levels.append((float(widths.max()), value))
        if not (cmath.isfinite(s_mid) and cmath.isfinite(sums[-1])):
            return RSResult(value, levels, math.inf, RSStatus.INCONCLUSIVE)

        # the shared atoms' spread seeds the replicas'
        spread = max([shared] + [abs(s - sums[0]) for s in sums])
        spreads.append(spread)
        diff = math.inf if prev_sum is None else abs(s_mid - prev_sum)
        diffs.append(diff)
        est = max(diff, spread)

        if diff < math.inf and est <= opts.tolerance(abs(s_mid)):
            # halving the mesh quarters the O(h^2) midpoint error: one
            # Richardson step moves the value by diff / 3, inside est_error
            return RSResult(signed(s_mid + (s_mid - prev_sum) / 3.0), levels, float(est), RSStatus.CONVERGED)

        if spreads[-1] > SPREAD_FLOOR_FACTOR * opts.abs_tol and _grows(spreads) and _grows(diffs):
            return RSResult(value, levels, float(spreads[-1]), RSStatus.DIVERGED)
        prev_sum = s_mid

    return RSResult(value, levels, float(est), RSStatus.INCONCLUSIVE)
