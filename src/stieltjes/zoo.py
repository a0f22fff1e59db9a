"""Catalog of boundary integrators covering the hypothesis classes.

Each entry is a :class:`~stieltjes.core.BoundaryFunction` with exact
metadata: declared atoms, sup bound over one period, net increment per
turn, and derivative values where the kind certifies them.  Entries are
addressable by name (with optional parameters) from the CLI.

The catalog spans: trivial (const), absolutely continuous (sin, cos),
value-periodic with a seam atom (linear, sawtooth), pure staircases
(step2pi, multi_step), a singular continuous-rise staircase (cantor),
a piecewise mix with interior atoms (cbv_demo), and a non-periodic
stress input (spikes) whose RS sums against any smooth integrator
oscillate unboundedly under refinement.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CANTOR_MARGIN, BoundaryFunction, reduce_angle

__all__ = ["NAMES", "catalog", "make"]


def _whole(value, what):
    """``value`` as an int; integral floats such as the CLI's 24.0 pass, fractions are refused."""
    if int(value) != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _const():
    return BoundaryFunction(
        name="const",
        kind="closed_form",
        fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        dfn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        bounded_by=1.0,
    )


def _linear():
    # identity on (-pi, pi], repeated; the wrap at pi is a declared atom
    return BoundaryFunction(
        name="linear",
        kind="closed_form",
        fn=lambda t: np.asarray(t, dtype=float),
        dfn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        jumps=((math.pi, -2.0 * math.pi),),
        bounded_by=math.pi,
    )


def _sin():
    return BoundaryFunction(
        name="sin", kind="closed_form", fn=np.sin, dfn=np.cos, bounded_by=1.0
    )


def _cos():
    return BoundaryFunction(
        name="cos",
        kind="closed_form",
        fn=np.cos,
        dfn=lambda t: -np.sin(np.asarray(t, dtype=float)),
        bounded_by=1.0,
    )


def _step2pi(t0=0.0):
    t0 = reduce_angle(float(t0))
    return BoundaryFunction(
        name="step2pi",
        kind="step",
        jumps=((t0, 2.0 * math.pi),),
    )


def _multi_step():
    return BoundaryFunction(
        name="multi_step",
        kind="step",
        jumps=((-2.0, 1.5), (0.5, -2.2), (2.4, 0.8)),
        base=0.3,
    )


def _cantor(depth=24):
    depth = _whole(depth, "cantor depth")
    if not 1 <= depth <= 53:
        raise ValueError("cantor depth must lie in [1, 53]; deeper steps fall below double resolution")
    # rises from 0 to 1 across (-pi, pi] with 5% flat margins at both ends;
    # periodization drops it back by 1 at the seam, a declared atom
    return BoundaryFunction(
        name="cantor",
        kind="cantor",
        jumps=((math.pi, -1.0),),
        bounded_by=1.0,
        depth=depth,
        margin=CANTOR_MARGIN,
    )


def _sawtooth():
    return BoundaryFunction(
        name="sawtooth",
        kind="closed_form",
        fn=lambda t: np.asarray(t, dtype=float) / math.pi,
        dfn=lambda t: np.full_like(np.asarray(t, dtype=float), 1.0 / math.pi),
        jumps=((math.pi, -2.0),),
        bounded_by=1.0,
    )


def _cbv_demo():
    # three smooth arcs with genuine atoms where they meet, plus the seam
    j_m1 = 0.3 * (-1.0) - 0.5 * math.cos(2.0)
    j_half = -0.4 * math.sin(0.5) - 0.3 * 0.5
    j_seam = 0.5 * math.cos(-2.0 * math.pi) - (-0.4 * math.sin(math.pi))
    pieces = (
        (-math.pi, -1.0, lambda t: 0.5 * np.cos(2.0 * t), lambda t: -np.sin(2.0 * t)),
        (-1.0, 0.5, lambda t: 0.3 * np.asarray(t, dtype=float),
         lambda t: np.full_like(np.asarray(t, dtype=float), 0.3)),
        (0.5, math.pi, lambda t: -0.4 * np.sin(t), lambda t: -0.4 * np.cos(t)),
    )
    return BoundaryFunction(
        name="cbv_demo",
        kind="piecewise",
        jumps=((-1.0, j_m1), (0.5, j_half), (math.pi, j_seam)),
        bounded_by=0.6,
        pieces=pieces,
    )


def _spikes(n_max=10_000):
    n_max = _whole(n_max, "spikes n_max")
    if n_max < 1:
        raise ValueError("spikes needs n_max >= 1")

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            n = np.rint(np.where(pos, 1.0 / np.where(pos, t, 1.0), 0.0))
        ok = pos & (n >= 1.0) & (n <= n_max)
        # a spike is hit only on exact float equality with 1/n
        idx = np.flatnonzero(ok)
        if idx.size:
            nn = n[idx]
            hit = t[idx] == 1.0 / nn
            out[idx[hit]] = nn[hit] ** 2
        return out

    return BoundaryFunction(
        name="spikes",
        kind="pathological",
        fn=fn,
        domain=(0.0, 1.0),
    )


_FACTORIES = {
    "const": _const,
    "linear": _linear,
    "sin": _sin,
    "cos": _cos,
    "step2pi": _step2pi,
    "multi_step": _multi_step,
    "cantor": _cantor,
    "sawtooth": _sawtooth,
    "cbv_demo": _cbv_demo,
    "spikes": _spikes,
}

NAMES = tuple(_FACTORIES)


def make(name: str, *params) -> BoundaryFunction:
    """Construct a catalog entry by name, e.g. make("step2pi", 0.5)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown boundary function {name!r}; available: {', '.join(NAMES)}"
        ) from None
    if not all(math.isfinite(float(p)) for p in params):
        raise ValueError(f"{name} parameters must be finite, got {params!r}")
    return factory(*params)


def catalog() -> list:
    """All entries with their default parameters."""
    return [make(name) for name in NAMES]
