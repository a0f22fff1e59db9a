"""Aitken delta-squared extrapolation for slowly convergent tails."""

from __future__ import annotations

__all__ = ["aitken_step", "aitken_tail"]

DENOM_FLOOR = 1e-14
# aitken_tail accelerates this many trailing values
TAIL_WINDOW = 5


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

    Runs delta-squared over the trailing TAIL_WINDOW values and returns
    ``(estimate, residual)`` where the residual is the distance between the
    last two accelerated iterates (or raw iterates if the sequence is too
    short to accelerate twice).
    """
    vals = list(values)
    if len(vals) == 0:
        raise ValueError("cannot extrapolate an empty sequence")
    if len(vals) == 1:
        return vals[0], float("inf")
    if len(vals) == 2:
        return vals[-1], abs(vals[-1] - vals[-2])
    tail = vals[-TAIL_WINDOW:]
    accel = [aitken_step(tail[i], tail[i + 1], tail[i + 2])
             for i in range(len(tail) - 2)]
    if len(accel) >= 2:
        return accel[-1], abs(accel[-1] - accel[-2])
    return accel[-1], abs(accel[-1] - tail[-1])
