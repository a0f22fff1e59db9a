"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and kept separate from the package:
plain tagged sums, dense-grid quadrature, a recursive Cantor evaluator, and
textbook finite differences.  When a test compares the library against one
of these, the two sides share no code.
"""

import numpy as np


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
