"""Aitken delta-squared extrapolation for slowly convergent tails.

:func:`extrapolate` is the one extrapolation loop: principal values run it
over their truncations, angular limits over the points of a path.
"""

from __future__ import annotations

__all__ = ["aitken_step", "aitken_tail", "extrapolate"]

DENOM_FLOOR = 1e-14
# the trailing values aitken_tail's two delta-squared steps read
TAIL_WINDOW = 4


def aitken_step(x0, x1, x2):
    """One delta-squared step; falls back to ``x2`` when the update is unsafe.

    Complex inputs are handled componentwise so a vanishing imaginary tail
    cannot poison a healthy real one.
    """
    if isinstance(x0, complex) or isinstance(x1, complex) or isinstance(x2, complex):
        c0, c1, c2 = complex(x0), complex(x1), complex(x2)
        return complex(aitken_step(c0.real, c1.real, c2.real), aitken_step(c0.imag, c1.imag, c2.imag))
    d1 = x1 - x0
    d2 = x2 - x1
    den = d2 - d1
    if abs(den) < DENOM_FLOOR:
        return x2
    return x2 - d2 * d2 / den


def aitken_tail(values):
    """Extrapolate the limit of a convergent sequence from its last entries.

    Returns ``(estimate, residual)``: the delta-squared step on the last
    three values and its distance to the step before it, so only the last
    ``TAIL_WINDOW`` values are read.  Three values give one step, whose
    residual is its distance to the last value; two give the last value
    and their difference.
    """
    vals = list(values)
    if len(vals) == 0:
        raise ValueError("cannot extrapolate an empty sequence")
    if len(vals) == 1:
        return vals[0], float("inf")
    if len(vals) == 2:
        return vals[-1], abs(vals[-1] - vals[-2])
    last = aitken_step(*vals[-3:])
    before = aitken_step(*vals[-TAIL_WINDOW:-1]) if len(vals) >= TAIL_WINDOW else vals[-1]
    return last, abs(last - before)


def extrapolate(evaluate, schedule):
    """``(trace, limit, residual)`` of ``evaluate`` along the tail of ``schedule``.

    Only the last ``TAIL_WINDOW`` entries of ``schedule``, the ones
    :func:`aitken_tail` reads, are evaluated, in schedule order; ``trace``
    holds their (entry, value) pairs, and ``limit`` and ``residual`` are
    :func:`aitken_tail` of the values.
    """
    trace = [(s, evaluate(s)) for s in list(schedule)[-TAIL_WINDOW:]]
    limit, residual = aitken_tail([v for _s, v in trace])
    return trace, limit, residual
