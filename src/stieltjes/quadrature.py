"""Generalized Riemann-Stieltjes integration by partition refinement.

The integral is taken in the strong sense: the net of tagged sums must
settle down no matter how the tags are chosen.  Each refinement level
therefore evaluates one midpoint-policy sum, and a bundle of randomized tag
replicas wherever their spread can decide the outcome; the certificate
demands both that successive levels agree and that the replica spread
collapses.  With atoms exact and a smooth mesh map the midpoint error is
O(h^2), so a certified run reports one Richardson step of its last two
midpoint sums, s_k + (s_k - s_{k-1}) / 3.

The integrand g and the integrator f only ever see 1-D arrays, and they
must act elementwise on them.  On a level whose live cells, those with
df != 0, are at most GATHER_SHARE of its cells, g sees the tags of the
live cells alone, possibly none: a flat cell's product g * df is exactly
zero, and the live products go into a row of zeros at their own places,
so every sum but the sign of an exactly zero one is that over all cells.
A denser level evaluates g on every cell, and a sum of it that is not
finite is summed again with each flat cell's product an exact zero.  So on
every level a flat cell adds nothing: g may be NaN or infinite where f is
flat, and only a live cell (a NaN in df is live) can make a sum non-finite.
The ladder owns every array it hands g and f and reuses it once the call has
returned: where g's values are float64 like the tags, the products g * df
of a midpoint or replica sum are written over the spent tags.  So g and f
must neither write into their argument nor keep it after they return;
returning it, or a value computed from it, is fine.

The levels nest (see :class:`_NestedLevels`): each level calls f on its
2**(k-1) new grid points alone, or, for a Cantor staircase, on the new
points of the cells it changes across, and a level read again is a view.

Replica ``rep`` of level k draws its uniforms from its own stream,
``default_rng((seed, k, rep))``, so every replica sum is fixed by the seed
alone.  A block without a cutoff (below) is evaluated in chunks of rows:
one ``g`` call on the flattened tags of at most CHUNK_POINTS at a time,
then one row reduction.  A block with a cutoff is evaluated one row per
``g`` call, or, on a level that gathers its live cells and takes cached
draws, in calls of at most CHUNK_POINTS // REPLICAS tags.  A level narrow
enough that its chunks hold whole rows, at most CHUNK_POINTS cells, takes
its draws from a bounded, thread-safe, process-wide cache of read-only
arrays; a wider level draws each row afresh.  A sparse level takes the
live cells' columns of those draws, and a level without live cells runs no
block: its spread is the shared one.

A level runs its block only where the spread can matter: on the first
level, on the last (its spread enters an inconclusive est_error), on a
level whose difference is within tolerance, and where the level
differences have grown as the divergence rule asks.  On any other level the
difference alone fails the tolerance.  On a level whose difference passed,
the tolerance is the block's cutoff: the block stops at the first row that
leaves the spread above it, since that level can no longer converge, and
most such levels exceed it on their first row.  Before the divergence
rule reads the spreads, the levels in its window whose block was skipped or
cut short run it in full, so every status, value, est_error and level
count is the one a block on every level gives.  The one exception: a
non-finite replica sum on a level whose block was skipped or cut short,
and not run again, goes unseen.  A certified level still has all of its
replica sums finite.

Atoms of the integrator are summed exactly, apart from the ladder.  The
integral of g against an atom (t_j, h_j) is h_j * g(t_j), so one g call at
the atoms whose jumps lie in [a, b] gives s_atoms, which every midpoint and
replica sum shares, and the ladder refines the rest of f alone: a pure
staircase is exact at every level.  Where the integrand jumps at an atom
too, the sums genuinely depend on the tags, so the atom's |h_f * h_g|
seeds every level's replica spread; a shared discontinuity is precisely
the case where the integral must be allowed to fail.

Divergence is declared only when the replica spread and the level
difference both grow geometrically over the same levels, which is the
signature of sums that blow up along ever finer partitions.  Spread alone
is not enough: while the mesh is coarser than a narrow kernel peak, random
tags that hit or miss the peak make the spread jump about although the
sums themselves settle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import ATOM_GUARD, TWO_PI, BoundaryFunction, RSResult, RSStatus, _is_int, jump_images

__all__ = [
    "QuadratureOptions",
    "NonConvergentError",
    "rs_integral",
    "require_converged",
    "by_parts_residual",
]


# the coarsest level has 2**K_MIN base subintervals, the finest at most 2**K_CAP
K_MIN = 4
K_CAP = 22
# random-tag replicas evaluated next to the midpoint sum on the levels whose
# spread can decide the outcome
REPLICAS = 8
# replica tags per g call; a level this wide or wider makes one call per replica
CHUNK_POINTS = 2 ** 15
# a level with at most this share of live cells evaluates g on them alone; a
# denser one on every cell.  A sin U transform at r = 1 - 2**-45, 92% live at
# level 18, went 67 -> 110 ms gathering on every partly flat level; with this
# share it stays dense, and read 77 -> 68 ms (2 vCPUs)
GATHER_SHARE = 0.5
# levels of at most CHUNK_POINTS cells, those whose chunks hold whole rows,
# take their replica draws from a cache of at most DRAW_CACHE_BYTES: 32
# entries of at most 2 MB
DRAW_CACHE_BYTES = 64 * 2 ** 20
# divergence: GROWTH_STEPS consecutive growth ratios of at least
# GROWTH_FACTOR in both spread and level difference, with the last spread
# above SPREAD_FLOOR_FACTOR * abs_tol
GROWTH_FACTOR = 2.0
GROWTH_STEPS = 3
SPREAD_FLOOR_FACTOR = 100.0


class NonConvergentError(RuntimeError):
    """A run that was required to converge did not."""

    def __init__(self, msg: str, result: RSResult):
        super().__init__(msg)
        self.result = result


@dataclass(frozen=True)
class QuadratureOptions:
    """Knobs of the refinement loop.

    * ``k_max``: the finest level has 2**k_max base subintervals; the
      coarsest has 2**K_MIN.  An int in [K_MIN, K_CAP].
    * ``rel_tol``, ``abs_tol``: a level is accepted once max(level
      difference, replica spread) falls under max(rel_tol * |value|,
      abs_tol).  Both must be finite and >= 0, and one of them > 0.
    * ``seed``: a non-negative int; draws the REPLICAS random-tag replicas
      of each level.

    Divergence needs GROWTH_STEPS consecutive ratios of at least
    GROWTH_FACTOR in both the spread and the level difference, with the
    last spread above SPREAD_FLOOR_FACTOR * abs_tol.
    """

    k_max: int = 18
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.k_max) or not K_MIN <= self.k_max <= K_CAP:
            raise ValueError(f"k_max must be an int in [{K_MIN}, {K_CAP}], got {self.k_max!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        tols = (self.rel_tol, self.abs_tol)
        if not all(math.isfinite(t) and t >= 0.0 for t in tols) or max(tols) == 0.0:
            raise ValueError("rel_tol and abs_tol must be finite and >= 0, and one of them > 0")

    def tolerance(self, magnitude: float) -> float:
        return max(self.rel_tol * magnitude, self.abs_tol)


def _graded_map(v, center, lam):
    """t = center + 4 atan(sinh(lam w) / sinh lam) with w = v - 2m; each step of 2 in v adds a turn.

    Computed on two arrays of its own, leaving v as it is.
    """
    m = np.asarray(np.divide(v, 2.0))
    # np.round's own ufunc at 0 decimals, without its Python wrapper
    np.rint(m, out=m)
    t = np.multiply(m, TWO_PI)
    t += center
    # w = v - 2m over m
    m *= 2.0
    w = np.subtract(v, m, out=m)
    w *= lam
    np.sinh(w, out=w)
    w /= math.sinh(lam)
    np.arctan(w, out=w)
    w *= 4.0
    t += w
    return t


def _graded_preimage(t, center, lam):
    m = round((t - center) / TWO_PI)
    return 2.0 * m + math.asinh(math.tan((t - center - TWO_PI * m) / 4.0) * math.sinh(lam)) / lam


def _grid_map(a, b, grading):
    """Ends (p, q) of the uniform preimage of [a, b] and the map from it onto [a, b].

    A level's grid of n cells is the image of ``np.linspace(p, q, n + 1)``.
    With ``grading = (center, distance)`` the map is :func:`_graded_map`:
    cells of about ``distance`` at the center that grow in proportion to
    their distance from it, which evens out the midpoint error of the
    kernels' 1/(e^{it} - z).  Without grading it is the identity.
    """
    if grading is None:
        return a, b, lambda v: v
    center, distance = grading
    lam = math.asinh(4.0 / distance)
    return (_graded_preimage(a, center, lam), _graded_preimage(b, center, lam),
            functools.partial(_graded_map, center=center, lam=lam))


def _images(h, a, b):
    """``(location, height)`` of h's atom images around [a, b], at their true locations."""
    return jump_images(h.jumps, a - 1.0, b + 1.0, h.kind != "pathological")


def _split(f, g, a, b):
    """``(locs, heights, rest, shared)``: f's atoms whose jumps lie in [a, b], f without them, and their shared spread.

    A ``step`` takes the value after each jump and every other kind the
    value before it, as :meth:`BoundaryFunction._eval` does, so an atom on
    an end counts only when its jump lies inside: a < t <= b for a
    ``step``, a <= t < b otherwise, read at the image's true location.
    ``rest`` is f less those jumps.  A ``step`` is all jumps, so its rest is
    flat by rule and f is never called; a callable that is not a
    :class:`BoundaryFunction` declares no atoms and is its own rest.
    ``shared`` sums |h_f * h_g| over the atoms within ATOM_GUARD of an atom
    of g, where the sums genuinely depend on the tags.
    """
    if not isinstance(f, BoundaryFunction):
        return np.empty(0), np.empty(0), f, 0.0
    step = f.kind == "step"
    atoms = [(t, h) for t, h in _images(f, a, b) if (a < t <= b if step else a <= t < b)]
    g_atoms = _images(g, a, b) if isinstance(g, BoundaryFunction) else []
    shared = sum((abs(h * hg) for t, h in atoms for y, hg in g_atoms if abs(t - y) <= ATOM_GUARD), 0.0)
    if step:
        rest = np.zeros_like
    elif atoms:
        rest = lambda t: f(t) - sum(h * (t > tj) for tj, h in atoms)
    else:
        rest = f
    return np.array([t for t, _h in atoms]), np.array([h for _t, h in atoms]), rest, shared


def _monotone_rest(f):
    """Whether ``_split``'s rest of f is nondecreasing: a Cantor staircase's is, less its declared seam drop."""
    return isinstance(f, BoundaryFunction) and f.kind == "cantor" and f.jumps == ((math.pi, -1.0),)


def _odd_points(p, q, n):
    """``np.linspace(p, q, 2n + 1)[1::2]`` bit for bit, without building the even points."""
    step = (q - p) / (2 * n)
    if not step:
        # linspace scales by the span instead where its step underflows to 0
        return np.linspace(p, q, 2 * n + 1)[1::2]
    return np.arange(1.0, 2 * n, 2.0) * step + p


class _NestedLevels:
    """The levels of one ladder over [a, b] and f on them, each built from the one before.

    It holds the grid of the finest level built so far and f on it, both
    ends pinned to a and b once, at the first level, whose single f call
    also gives f at a and b.  ``np.linspace(p, q, 2n + 1)[::2]`` is
    ``np.linspace(p, q, n + 1)`` bit for bit, and the grid map and f act
    elementwise, so the next level's even points and their f values are the
    current ones: :meth:`refine` maps and calls f on the new odd points
    only, from :func:`_odd_points`.  :meth:`level` returns views of the
    finest grid and its f values.

    With ``monotone``, f must be nondecreasing on [a, b], as a Cantor
    staircase is once ``_split`` takes out its seam drop: then f is constant
    on a cell whose two end values are equal, and :meth:`refine` gives that
    cell's new point the end value without calling f.  A NaN end value
    compares unequal, so f is still called there.
    """

    def __init__(self, f, a, b, grading, monotone=False):
        self.f, self.monotone = f, monotone
        self.p, self.q, self.to_t = _grid_map(a, b, grading)
        grid = self.to_t(np.linspace(self.p, self.q, 2 ** K_MIN + 1))
        f_all = np.asarray(f(np.concatenate([grid, [a, b]])), dtype=float)
        self.grid, self.f_grid = grid, f_all[:grid.size]
        grid[0], grid[-1] = a, b
        self.f_grid[0], self.f_grid[-1] = f_all[grid.size:]

    def refine(self):
        """Build the next level's grid, calling f on its new points only."""
        n = self.grid.size - 1
        new = self.to_t(_odd_points(self.p, self.q, n))
        grid, f_grid = np.empty(2 * n + 1), np.empty(2 * n + 1)
        grid[::2], grid[1::2] = self.grid, new
        f_grid[::2], f_grid[1::2] = self.f_grid, self.f_grid[:-1]
        # a new point takes its cell's left value unless f can change across the cell
        live = np.flatnonzero(self.f_grid[:-1] != self.f_grid[1:]) if self.monotone else slice(None)
        f_grid[1::2][live] = np.asarray(self.f(new[live]), dtype=float)
        self.grid, self.f_grid = grid, f_grid

    def level(self, k):
        """``(pts, widths, df)`` of level k, at most the finest level built."""
        # level k's grid is every step-th point of the finest grid
        step = (self.grid.size - 1) >> k
        pts, fv = self.grid[::step], self.f_grid[::step]
        return pts, np.subtract(pts[1:], pts[:-1]), np.subtract(fv[1:], fv[:-1])


def _draws(seed, k, reps, n):
    """Uniforms of replicas ``reps`` on level k: row rep is ``default_rng((seed, k, rep)).random(n)``."""
    u = np.empty((len(reps), n))
    for row, rep in zip(u, reps):
        np.random.default_rng((seed, k, rep)).random(out=row)
    return u


# every entry holds at most REPLICAS * CHUNK_POINTS doubles
@functools.lru_cache(maxsize=DRAW_CACHE_BYTES // (8 * REPLICAS * CHUNK_POINTS))
def _cached_draws(seed, k, n):
    """All REPLICAS rows of ``_draws`` for level k, read-only, from a bounded process-wide cache."""
    u = _draws(seed, k, range(REPLICAS), n)
    u.flags.writeable = False
    return u


def _replica_spread(g, level, seed, k, s_mid, spread, cutoff):
    """The largest of ``spread`` and |s - s_mid| over level k's REPLICAS random-tag sums s.

    ``level`` is ``(pts, widths, df, live)`` and ``s_mid`` its midpoint
    sum, both of the rest of f: s_atoms adds alike to the midpoint sum and
    to every replica sum, so the distances are those of the rest's sums.
    The caller seeds ``spread`` with the shared atoms' spread, a level's
    whole spread if it has no live cell.  With ``cutoff`` inf the replicas
    are evaluated as chunks of rows, at most CHUNK_POINTS tags and one ``g``
    call on the flattened chunk each; with a finite ``cutoff``, one row per
    call, or on a gathered level with cached draws as many rows as make at
    most CHUNK_POINTS // REPLICAS tags, and the first call that leaves the
    spread above the cutoff ends the evaluation: the spread is then
    unknown, None.  A non-finite replica sum returns nan at once.
    """
    pts, widths, df, live = level
    n = widths.size
    lo, widths = pts[:-1][live], widths[live]
    if not lo.size:
        return spread
    cached = _cached_draws(seed, k, n) if n <= CHUNK_POINTS else None
    if cutoff == math.inf:
        rows = max(1, CHUNK_POINTS // n)
    elif cached is not None and not isinstance(live, slice):
        # a gathered level's few live tags cost less per call than per row:
        # its cut block takes calls of at most CHUNK_POINTS // REPLICAS tags
        rows = max(1, CHUNK_POINTS // (REPLICAS * lo.size))
    else:
        rows = 1
    for r0 in range(0, REPLICAS, rows):
        reps = range(r0, min(r0 + rows, REPLICAS))
        u = (_draws(seed, k, reps, n) if cached is None else cached[r0:reps.stop])[:, live]
        # drawn afresh or gathered, the block is the ladder's own to scale in place
        tags = np.multiply(u, widths, out=u if u.flags.writeable else None)
        tags += lo
        for s in _row_sums(g, tags, df, live):
            if not cmath.isfinite(s):
                return math.nan
            d = abs(s - s_mid)
            if d > spread:
                spread = d
        if spread > cutoff:
            return None
    return spread


def _with_live(level):
    """``level + (live,)``: the indices of the cells with df != 0, or ``slice(None)`` if over GATHER_SHARE of them."""
    flat = level[2] == 0.0
    live = np.flatnonzero(~flat) if flat.size - np.count_nonzero(flat) <= GATHER_SHARE * flat.size else slice(None)
    return (*level, live)


def _products(gv, df, tags, live):
    """gv * df[live], written over the spent ``tags`` when g's values share their dtype.

    Where ``live`` leaves cells out, the products go into rows of zeros as
    wide as ``df``, at the live columns.
    """
    p = np.multiply(gv, df[live], out=tags if gv.dtype == tags.dtype else None)
    if isinstance(live, slice):
        return p
    rows = np.zeros(p.shape[:-1] + df.shape, p.dtype)
    rows[..., live] = p
    return rows


def _summed(p, df):
    """The sums of the rows of products ``p`` over df's cells, a flat cell's product an exact zero.

    A non-finite g times df == 0 is nan, so where a sum is not finite the
    flat cells' products are set to 0.0 and the rows summed again: a g that
    is non-finite only where f is flat gives every level, dense or
    gathered, the sum of its live cells.  A finite sum is summed once.
    """
    s = p.sum(axis=-1)
    # cmath tests a midpoint sum in a twentieth of numpy's time
    if not (cmath.isfinite(s) if s.ndim == 0 else np.isfinite(s).all()):
        p[..., df == 0.0] = 0.0
        s = p.sum(axis=-1)
    return s


def _row_sums(g, tags, df, live=slice(None)):
    """The tagged sum of each row of ``tags``, from one ``g`` call on the flattened rows.

    ``live`` is as for :func:`_products`.  The products are written over
    ``tags`` for a float64 g.  A helper so that the g values die before the
    next chunk is drawn.
    """
    gv = np.asarray(g(tags.reshape(-1)))
    # a g that returns a scalar still stands for a value at every tag
    gv = gv.reshape(tags.shape) if gv.size == tags.size else np.broadcast_to(gv, tags.shape)
    return _summed(_products(gv, df, tags, live), df)


def rs_integral(
    g: Callable,
    f: Union[BoundaryFunction, Callable],
    a: float,
    b: float,
    opts: Optional[QuadratureOptions] = None,
    *,
    grading: Optional[tuple] = None,
) -> RSResult:
    """Integrate ``g`` against ``d f`` over ``[a, b]`` by dyadic refinement.

    ``f`` may be a :class:`BoundaryFunction` (its declared atoms are then
    summed exactly, see :func:`_split`) or any callable.  When ``g`` is a
    :class:`BoundaryFunction` too, its atoms are discontinuities of the
    integrand, and an atom of f on one of them keeps the run from
    certifying.  ``grading = (center,
    distance)``, a finite center and a finite positive distance,
    concentrates partition points around an angle where the integrand is
    nearly singular, at the given distance from a pole.  The module
    docstring states what g and f must do and when the replicas run.

    Orientation is respected: ``a > b`` flips the sign.  A level with a
    non-finite sum ends the run ``INCONCLUSIVE`` with est_error inf.  A
    ``CONVERGED`` run reports the Richardson step of its last two midpoint
    sums; any other run reports its deepest midpoint sum.
    """
    opts = opts or QuadratureOptions()
    if grading is not None and not (np.shape(grading) == (2,) and np.isfinite(grading).all() and grading[1] > 0.0):
        raise ValueError(f"grading must be a (center, distance) pair with a finite center "
                         f"and a finite positive distance, got {grading!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration ends must be finite, got [{a}, {b}]")
    sign = 1.0
    if a == b:
        return RSResult(0.0, [(0.0, 0.0)], 0.0, RSStatus.CONVERGED)
    if a > b:
        a, b, sign = b, a, -1.0

    locs, heights, rest, shared = _split(f, g, a, b)
    # each atom's jump enters every sum through s_atoms alone; None, not 0.0,
    # without atoms, so that a sum of -0.0 stays -0.0
    s_atoms = (np.asarray(g(locs)) * heights).sum() if locs.size else None
    ladder = _NestedLevels(rest, a, b, grading, _monotone_rest(f))

    levels = []
    # per level: the midpoint sum of the rest
    heads = []
    # None where the replicas were skipped or cut short
    spreads = []
    diffs = []
    prev_sum = None

    for k in range(K_MIN, opts.k_max + 1):
        if k > K_MIN:
            ladder.refine()
        level = _with_live(ladder.level(k))
        pts, widths, df, live = level
        # g's values and the products written over the midpoint tags stay
        # bound to the end of the level: freed at once, they would let the
        # allocator trim the heap and fault it in again for the replica block
        mid = pts[:-1][live] + pts[1:][live]
        mid *= 0.5
        g_mid = np.asarray(g(mid))
        heads.append(_summed(_products(g_mid, df, mid, live), df))
        s_mid = heads[-1] if s_atoms is None else heads[-1] + s_atoms
        # every sum is a numpy scalar of the products' dtype: float or complex
        value = sign * s_mid.item()
        levels.append((float(widths.max()), value))
        if not cmath.isfinite(s_mid):
            return RSResult(value, levels, math.inf, RSStatus.INCONCLUSIVE)

        diff = math.inf if prev_sum is None else abs(s_mid - prev_sum)
        diffs.append(diff)
        tol = opts.tolerance(abs(s_mid))
        passed = diff <= tol
        growing = _grows(diffs)
        spreads.append(None)
        # any other level fails its tolerance on the difference alone
        if passed or growing or k in (K_MIN, opts.k_max):
            # a passed level cannot converge once its spread exceeds tol; the
            # divergence rule and the last level's est_error need the whole spread
            cutoff = tol if passed and not growing and k < opts.k_max else math.inf
            # complete this level's spread and the divergence window's, oldest
            # first; a non-finite replica sum ends the run at its own level
            for j in range(len(spreads) - 1 - GROWTH_STEPS * growing, len(spreads)):
                if spreads[j] is None:
                    lv = level if K_MIN + j == k else _with_live(ladder.level(K_MIN + j))
                    spreads[j] = _replica_spread(g, lv, opts.seed, K_MIN + j, heads[j], shared, cutoff)
                    if spreads[j] is not None and math.isnan(spreads[j]):
                        return RSResult(levels[j][1], levels[:j + 1], math.inf, RSStatus.INCONCLUSIVE)
        spread = spreads[-1]

        if passed and spread is not None and spread <= tol:
            # halving the mesh quarters the O(h^2) midpoint error: one
            # Richardson step moves the value by diff / 3, inside est_error
            est = float(max(diff, spread))
            return RSResult(sign * (s_mid + (s_mid - prev_sum) / 3.0).item(), levels, est, RSStatus.CONVERGED)

        if growing and spread > SPREAD_FLOOR_FACTOR * opts.abs_tol and _grows(spreads):
            return RSResult(value, levels, float(spread), RSStatus.DIVERGED)
        prev_sum = s_mid

    return RSResult(value, levels, float(max(diff, spread)), RSStatus.INCONCLUSIVE)


def _grows(seq):
    """GROWTH_STEPS consecutive ratios of at least GROWTH_FACTOR at the end of ``seq``."""
    return len(seq) > GROWTH_STEPS and all(
        seq[-i - 1] > 0.0 and seq[-i] >= 0.999 * GROWTH_FACTOR * seq[-i - 1]
        for i in range(1, GROWTH_STEPS + 1)
    )


def require_converged(result: RSResult, what: str) -> RSResult:
    if result.status is not RSStatus.CONVERGED:
        raise NonConvergentError(
            f"{what} did not converge (status {result.status.value}, "
            f"est_error {result.est_error:.3e})",
            result,
        )
    return result


def by_parts_residual(
    g: Union[BoundaryFunction, Callable],
    f: Union[BoundaryFunction, Callable],
    a: float,
    b: float,
    opts: Optional[QuadratureOptions] = None,
) -> float:
    """Defect of integration by parts over ``[a, b]``.

    Computes ``int g df + int f dg - (g(b) f(b) - g(a) f(a))`` and returns
    its magnitude.  Both runs must converge; a run that does not raises
    :class:`NonConvergentError`, since a residual against a failed integral
    would be meaningless.
    """
    opts = opts or QuadratureOptions()
    r1 = require_converged(rs_integral(g, f, a, b, opts), "int g df")
    r2 = require_converged(rs_integral(f, g, a, b, opts), "int f dg")
    boundary = _call_scalar(g, b) * _call_scalar(f, b) - _call_scalar(g, a) * _call_scalar(f, a)
    return abs(r1.value + r2.value - boundary)


def _call_scalar(h, t):
    v = h(np.asarray([t], dtype=float))
    return float(np.asarray(v).reshape(-1)[0])
