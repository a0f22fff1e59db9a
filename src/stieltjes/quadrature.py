"""Generalized Riemann-Stieltjes integration by partition refinement.

The integral is taken in the strong sense: the net of tagged sums must
settle down no matter how the tags are chosen.  Each refinement level
therefore evaluates one midpoint-policy sum and a block of REPLICAS
randomized tag replicas.  A level certifies when the difference of its
midpoint sum from the level before is within tolerance and the replicas
show that the tags no longer matter: their spread is within tolerance too,
or it has at least halved on each of the last two levels and is within
DECAY_SLACK times the tolerance.  The level difference falls like h^2 and
the spread, whose tag errors add like a random walk, only like h^1.5, so a
spread that is still halving certifies the value as soon as it has
settled.  The reported est_error is max(difference, spread), up to
DECAY_SLACK times the tolerance.  With atoms exact and a smooth mesh map
the midpoint error is O(h^2), so a certified run reports one Richardson
step of its last two midpoint sums, s_k + (s_k - s_{k-1}) / 3.

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
points of the cells it changes across, and a level is read as views.

Replica ``rep`` of level k draws its uniforms from its own stream,
``default_rng((seed, k, rep))``, so every replica sum is fixed by the seed
alone.  The block is evaluated in chunks of rows: one ``g`` call on the
flattened tags of at most CHUNK_POINTS at a time, then one row reduction.
A level narrow enough that its chunks hold whole rows, at most
CHUNK_POINTS cells, takes its draws from a bounded, thread-safe,
process-wide cache of read-only arrays; a wider level draws each row
afresh.  A sparse level takes the live cells' columns of those draws, and
a level without live cells runs no block: its spread is the shared one.

:func:`_split` is the one place that reads f's structure: the ladder
learns f from its record alone.  The integral of g against an atom
(t_j, h_j) is h_j * g(t_j), so one g call at the atoms whose jumps lie in
[a, b] gives their known sum, which every midpoint and replica sum shares,
and the ladder refines the rest of f alone: a pure staircase is exact at
every level.  A caller that knows f's slope c where g peaks, and the
integral of g, can pass both: the split then takes c * t out of f and adds
its integral exactly, and the ladder refines what is left.  Where the
integrand jumps at an atom too, the sums genuinely depend on the tags, so
the atom's |h_f * h_g| seeds every level's replica spread, and such a
spread never certifies by its decay; a shared discontinuity is precisely
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

from .core import ATOM_GUARD, TWO_PI, BoundaryFunction, RSResult, RSStatus, _is_int, jump_images, reduce_angle

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
# random-tag replicas evaluated next to the midpoint sum on every level
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
# a spread that has at least halved on each of its last two levels certifies
# up to DECAY_SLACK times the tolerance
DECAY_SLACK = 16.0


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
    * ``rel_tol``, ``abs_tol``: the tolerance is max(rel_tol * |value|,
      abs_tol).  Both must be finite and >= 0, and one of them > 0.  A run
      is ``CONVERGED`` at the first level whose difference from the level
      before is within the tolerance and whose replica spread is within
      it too, or has at least halved on each of its last two levels and
      is within DECAY_SLACK times it.  Its est_error is max(difference,
      spread): at most DECAY_SLACK times the tolerance.
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


def _jump_double(t, r, loc):
    """The last double at or below ``t``, an image of the atom at ``loc``, where f is still before its jump.

    ``r`` is the angle f reads at ``t``: ``t`` itself, or for a periodic f
    ``t`` reduced by ``reduce_angle``.  The image's rounding can put that
    angle past ``loc`` on the image itself, never on the double below it.
    """
    # past the jump: just above loc, or, for an atom at pi, wrapped to just above -pi
    return math.nextafter(t, -math.inf) if loc < r < loc + math.pi or r < loc - math.pi else t


def _split(f, g, a, b, slope=None):
    """``(atoms, known, rest, monotone, shared)``: all that the ladder knows of f over [a, b].

    ``atoms`` are the images (t, h) of f's atoms whose jumps lie in [a, b].
    A ``step`` takes the value after each jump and every other kind the
    value before it, as :meth:`BoundaryFunction._eval` does, so an atom on
    an end counts only when its jump lies inside: a < t <= b for a
    ``step``, a <= tj < b otherwise, with tj the double where f itself
    jumps (:func:`_jump_double`), which angle reduction can put one double
    below the image t.  ``known`` sums h * g(t) over them, plus c * mass
    for a ``slope = (c, mass)`` with c != 0, where mass is the integral of
    g dt over [a, b]; or it is None, so that -0.0 stays -0.0.  ``rest`` is
    (f(t) - c * t) less each atom's jump, dropped past tj: the line comes
    out of f before the jumps, so that an f linear between its atoms with
    slope c leaves a rest that is exactly flat.  A ``step`` is all jumps,
    so its rest is -c * t by rule and f is never called; a callable that is
    not a :class:`BoundaryFunction` declares no atoms.  ``monotone``: the
    rest is nondecreasing, as a Cantor staircase's is less its declared
    seam drop and no line.  ``shared`` sums |h_f * h_g| over the atoms
    within ATOM_GUARD of an atom of g, where the sums genuinely depend on
    the tags.
    """
    c, mass = slope or (0.0, 0.0)
    known = c * mass if c else None
    if not isinstance(f, BoundaryFunction):
        return [], known, _less_line(f, c), False, 0.0
    step, periodic = f.kind == "step", f.kind != "pathological"
    # (atom, image, height) of each atom image, sorted by image as _images
    # sorts them, which fixes the order of known's sum
    images = sorted(((loc, t, h) for loc, height in f.jumps
                     for t, h in jump_images(((loc, height),), a - 1.0, b + 1.0, periodic)), key=lambda m: m[1])
    # the angle f reads at each image, all reduced in one call
    ts = np.array([t for _loc, t, _h in images])
    reads = reduce_angle(ts) if periodic and not step and images else ts
    # (the double where f jumps, the image, the height)
    marks = [(t if step else _jump_double(t, r, loc), t, h) for (loc, t, h), r in zip(images, reads)]
    marks = [(tj, t, h) for tj, t, h in marks if (a < tj <= b if step else a <= tj < b)]
    atoms = [(t, h) for _tj, t, h in marks]
    g_atoms = _images(g, a, b) if isinstance(g, BoundaryFunction) else []
    shared = sum((abs(h * hg) for t, h in atoms for y, hg in g_atoms if abs(t - y) <= ATOM_GUARD), 0.0)
    if atoms:
        s_atoms = (np.asarray(g(np.array([t for t, _h in atoms]))) * [h for _t, h in atoms]).sum()
        known = s_atoms if known is None else s_atoms + known
    smooth = _less_line(np.zeros_like if step else f, c)
    rest = (lambda t: smooth(t) - sum(h * (t > tj) for tj, _t, h in marks)) if marks and not step else smooth
    monotone = f.kind == "cantor" and f.jumps == ((math.pi, -1.0),) and not c
    return atoms, known, rest, monotone, shared


def _less_line(h, c):
    """t -> h(t) - c * t, or h itself where c == 0."""
    return (lambda t: h(t) - c * t) if c else h


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
    ends pinned to a and b once, before the first level's f call.
    ``np.linspace(p, q, 2n + 1)[::2]`` is ``np.linspace(p, q, n + 1)`` bit
    for bit, and the grid map and f act elementwise, so the next level's
    even points and their f values are the current ones: :meth:`refine`
    maps and calls f on the new odd points only, from :func:`_odd_points`.
    :meth:`level` returns views of the finest grid and its f values.

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
        grid[0], grid[-1] = a, b
        self.grid, self.f_grid = grid, np.asarray(f(grid), dtype=float)

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


def _replica_spread(g, level, seed, k, s_mid, spread):
    """The largest of ``spread`` and |s - s_mid| over level k's REPLICAS random-tag sums s.

    ``level`` is ``(pts, widths, df, live)`` and ``s_mid`` its midpoint
    sum, both of the rest of f: the atoms' known sum adds alike to the
    midpoint sum and to every replica sum, so the distances are those of
    the rest's sums.
    The caller seeds ``spread`` with the shared atoms' spread, a level's
    whole spread if it has no live cell.  The replicas are evaluated as
    chunks of rows, at most CHUNK_POINTS tags and one ``g`` call on the
    flattened chunk each.  A non-finite replica sum returns nan at once.
    """
    pts, widths, df, live = level
    n = widths.size
    lo, widths = pts[:-1][live], widths[live]
    if not lo.size:
        return spread
    cached = _cached_draws(seed, k, n) if n <= CHUNK_POINTS else None
    rows = max(1, CHUNK_POINTS // n)
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
    slope: Optional[tuple] = None,
) -> RSResult:
    """Integrate ``g`` against ``d f`` over ``[a, b]`` by dyadic refinement.

    ``f`` may be a :class:`BoundaryFunction` or any callable, read only
    through :func:`_split`, which sums its declared atoms exactly.  When
    ``g`` is a :class:`BoundaryFunction` too, its atoms are discontinuities
    of the integrand, and an atom of f on one of them keeps the run from
    certifying.  ``grading = (center, distance)``, a finite center and a
    finite positive distance, concentrates partition points around an
    angle where the integrand is nearly singular, at the given distance
    from a pole.  ``slope = (c, mass)``, both finite, with mass the
    integral of g dt from min(a, b) to max(a, b), has the ladder refine
    f - c * t alone and add c * mass exactly: the value is the same for
    every c, and a c near f's slope where g peaks makes the refined part
    small there.  The tolerance stays relative to the whole value.  The
    module docstring states what g and f must do and when a level certifies.

    Orientation is respected: ``a > b`` flips the sign.  A level with a
    non-finite sum ends the run ``INCONCLUSIVE`` with est_error inf.  A
    ``CONVERGED`` run reports the Richardson step of its last two midpoint
    sums; any other run reports its deepest midpoint sum.
    """
    opts = opts or QuadratureOptions()
    if grading is not None and not (np.shape(grading) == (2,) and np.isfinite(grading).all() and grading[1] > 0.0):
        raise ValueError(f"grading must be a (center, distance) pair with a finite center "
                         f"and a finite positive distance, got {grading!r}")
    if slope is not None and not (np.shape(slope) == (2,) and np.isfinite(slope).all()):
        raise ValueError(f"slope must be a finite (c, mass) pair, got {slope!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration ends must be finite, got [{a}, {b}]")
    sign = 1.0
    if a == b:
        return RSResult(0.0, [(0.0, 0.0)], 0.0, RSStatus.CONVERGED)
    if a > b:
        a, b, sign = b, a, -1.0

    _atoms, known, rest, monotone, shared = _split(f, g, a, b, slope)
    ladder = _NestedLevels(rest, a, b, grading, monotone)

    levels, spreads, diffs = [], [], []
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
        head = _summed(_products(g_mid, df, mid, live), df)
        s_mid = head if known is None else head + known
        # every sum is a numpy scalar of the products' dtype: float or complex
        value = sign * s_mid.item()
        levels.append((float(widths.max()), value))
        # a non-finite midpoint or replica sum ends the run
        spread = _replica_spread(g, level, opts.seed, k, head, shared) if cmath.isfinite(s_mid) else math.nan
        if math.isnan(spread):
            return RSResult(value, levels, math.inf, RSStatus.INCONCLUSIVE)

        diff = math.inf if prev_sum is None else abs(s_mid - prev_sum)
        spreads.append(spread)
        diffs.append(diff)
        tol = opts.tolerance(abs(s_mid))
        # a spread floored by a shared atom is no evidence of its decay
        decayed = not shared and spread <= DECAY_SLACK * tol and _halved_twice(spreads)
        if diff <= tol and (spread <= tol or decayed):
            # halving the mesh quarters the O(h^2) midpoint error: one
            # Richardson step moves the value by diff / 3, inside est_error
            est = float(max(diff, spread))
            return RSResult(sign * (s_mid + (s_mid - prev_sum) / 3.0).item(), levels, est, RSStatus.CONVERGED)

        if spread > SPREAD_FLOOR_FACTOR * opts.abs_tol and _grows(spreads) and _grows(diffs):
            return RSResult(value, levels, float(spread), RSStatus.DIVERGED)
        prev_sum = s_mid

    return RSResult(value, levels, float(max(diff, spread)), RSStatus.INCONCLUSIVE)


def _halved_twice(spreads):
    """The last spread at most half the one before, and that one at most half its own predecessor."""
    return len(spreads) >= 3 and spreads[-1] <= 0.5 * spreads[-2] and spreads[-2] <= 0.5 * spreads[-3]


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
