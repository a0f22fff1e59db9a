"""The benchmark workloads: their inputs, op definitions and output checks.

Each builder takes the imported package (a namespace with the modules it
calls), a seeded ``numpy`` generator and a working directory, and returns a
list of :class:`Op`.  An op is one call into a public function of one
layer; ``judge`` turns its raw result into (certified, problem), where a
non-empty problem marks the op as failed (wrong answer or wrong status).
``signature`` reduces the raw result to the values and statuses the traced
run must reproduce exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi
RADII = (0.5, 0.9, 0.97, 0.99, 0.995, 0.9999)
TRANSFORMS = ("U", "V", "S", "C")
# a certified value may sit this far (relative, at least absolute) off its
# closed form on top of its own est_error: float rounding, not error
ROUNDING_FLOOR = 1e-12
# CLI reports print 12 significant digits
CLI_FLOOR = 2e-11
# limit checks: one Stolz aperture and radii r = 1 - 2^-k up to k = 8,
# the last two of them on graded partitions
LIMIT_APERTURES = (math.pi / 6.0,)
LIMIT_K_MAX = 8
# acceptance-suite bounds for the diagnostics
CONJUGACY_BOUND = {"sin": 1e-6, "step2pi": 1e-4}
HARMONICITY_BOUND = 1e-4
CLI_JOBS = 2


@dataclass
class Op:
    name: str
    layer: str  # module of the called function: transforms | limits | cli
    call: Callable[[], object]
    judge: Callable[[object], tuple]
    signature: Callable[[object], object]
    info: Optional[dict] = None
    warm: bool = False  # cheap enough to run during set-up as warm-up


# -- closed forms -------------------------------------------------------------


def _atom_sum(jumps, kernel):
    return sum(h * kernel(loc) for loc, h in jumps) / TWO_PI


def transform_reference(phi, which, z):
    """U, V, S or C of a closed-form or staircase entry at the disk point z.

    S is built from the measure dPhi: a smooth density's Fourier part plus
    the declared atoms; U = Re S, V = Im S and C = S/2 + increment/(4 pi).
    Returns None for entries without a closed form.
    """
    name = phi.name
    if name == "const":
        s = 0.0
    elif name == "sin":
        s = z
    elif name == "cos":
        s = 1j * z
    elif name in ("linear", "sawtooth", "step2pi", "multi_step"):
        # (1/2pi) int S-kernel dt = 1 for the uniform density of linear
        s = {"linear": 1.0, "sawtooth": 1.0 / math.pi}.get(name, 0.0)
        s += _atom_sum(phi.jumps, lambda loc: (cmath.exp(1j * loc) + z) / (cmath.exp(1j * loc) - z))
    else:
        return None
    s = complex(s)
    return {"U": s.real, "V": s.imag, "S": s, "C": s / 2.0 + phi.period_increment / (2.0 * TWO_PI)}[which]


def _off(value, ref, est, floor):
    return abs(complex(value) - complex(ref)) > est + floor * max(1.0, abs(complex(ref)))


# Angles are a fixed spread of base angles, each moved by a small seeded
# jitter.  Status and cost of a quadrature can change sharply with the
# angle, so seeds give different inputs of the same difficulty and the
# run-to-run spread measures the program, not the luck of the draw.
JITTER = 0.02
# Near the r = 0.99 cliff a transform's status flips with theta at the
# scale of the partition mesh (2^-18 of a turn), so the transform grid
# keeps its jitter far below that: each cell's status is then the same for
# every seed, and the share of uncertified cells is a property of the code.
GRID_JITTER = 1e-7
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def base_angle(k, jumps=()):
    """k-th angle of a golden-angle sequence, moved 0.1 or more off any atom."""
    t = math.remainder(0.5 + k * GOLDEN_ANGLE, TWO_PI)
    while any(abs(math.remainder(t - loc, TWO_PI)) < 0.1 for loc, _h in jumps):
        t = math.remainder(t + 0.2, TWO_PI)
    return t


def jittered(rng, base, width=JITTER):
    return base + float(rng.uniform(-width, width))


# -- transform_grid -----------------------------------------------------------


def _rs_signature(res):
    return (repr(complex(res.value)), repr(res.est_error), res.status.value, len(res.levels))


def transform_grid(pkg, rng, workdir):
    """One transform per (periodic catalog entry, radius) cell.

    The transform rotates through U, V, S, C along entries and radii, so
    every entry meets all four and every radius meets all four, while a
    pass stays short enough to be repeated several times in one run.
    """
    fns = {
        "U": pkg.transforms.poisson_stieltjes,
        "V": pkg.transforms.conj_poisson_stieltjes,
        "S": pkg.transforms.schwartz_stieltjes,
        "C": pkg.transforms.cauchy_stieltjes,
    }
    ops = []
    entries = [phi for phi in pkg.zoo.catalog() if phi.kind != "pathological"]
    for i, phi in enumerate(entries):
        exact = phi.kind == "step" or phi.name == "const"
        for j, r in enumerate(RADII):
            theta = jittered(rng, base_angle(i * len(RADII) + j, phi.jumps), GRID_JITTER)
            z = pkg.core.DiskPoint(r, theta)
            which = TRANSFORMS[(i + j) % len(TRANSFORMS)]
            ref = transform_reference(phi, which, z.z)

            def judge(res, ref=ref, exact=exact):
                converged = res.status.value == "converged"
                if exact and not converged:
                    return False, f"status {res.status.value}, expected converged"
                if not math.isfinite(abs(complex(res.value))):
                    return converged, "non-finite value"
                if converged and ref is not None and _off(res.value, ref, res.est_error, ROUNDING_FLOOR):
                    return True, f"value {res.value!r} off closed form {ref!r} by more than est_error {res.est_error:.3e}"
                return converged, None

            ops.append(Op(
                name=f"{which}({phi.name}, r={r}, theta={theta:.9f})",
                layer="transforms",
                call=lambda f=fns[which], phi=phi, z=z: f(phi, z),
                judge=judge,
                signature=_rs_signature,
                warm=exact and r == RADII[0],
            ))
    return ops


# -- limit_checks -------------------------------------------------------------


def _limit_expected(name, field, t0):
    """Closed-form boundary limit of each field along any nontangential path."""
    if name == "sin":
        s = cmath.exp(1j * t0)
        inc = 0.0
    elif name == "step2pi":
        s = complex(0.0, 1.0 / math.tan(0.5 * t0))
        inc = TWO_PI
    elif name == "cantor" and t0 == 0.0:
        s, inc = 0j, 0.0
    else:
        return None
    return {"U": s.real, "V": s.imag, "S": s, "C": s / 2.0 + inc / (2.0 * TWO_PI)}[field]


def _report_signature(rep):
    return tuple((row.field, row.approach, repr(complex(row.estimate.extrapolated)), row.grade)
                 for row in rep.rows)


def _scalar_signature(x):
    return repr(float(x))


def limit_checks(pkg, rng, workdir):
    """Boundary-limit checks plus the conjugacy and harmonicity diagnostics."""
    lim = pkg.limits
    checks = {
        "U": lim.poisson_limit_check,
        "V": lim.conjugate_limit_check,
        "SC": lim.analytic_limit_check,
    }
    kw = {"apertures": LIMIT_APERTURES, "k_max": LIMIT_K_MAX}
    ops = []

    def add_check(name, which, t0, expect_pass):
        phi = pkg.zoo.make(name)

        def judge(rep, name=name, t0=t0):
            if not rep.passed:
                return False, ("report failed a case known to pass" if expect_pass else None)
            for row in rep.rows:
                want = _limit_expected(name, row.field, t0)
                if want is not None and abs(complex(row.estimate.extrapolated) - want) > 3.0 * rep.tol:
                    return True, f"{row.field} {row.approach} limit off the closed form {want!r}"
            return True, None

        ops.append(Op(f"{which}-check({name}, t0={t0:.6f})", "limits",
                      lambda: checks[which](phi, t0, **kw), judge, _report_signature,
                      warm=not expect_pass))

    # the SC check on sin (4-6 s) is left out to keep passes short
    t_sin = jittered(rng, 0.8)
    for which in ("U", "V"):
        add_check("sin", which, t_sin, True)
    add_check("cantor", "U", 0.0, True)
    t_step = jittered(rng, 2.0)
    for which in ("U", "V", "SC"):
        add_check("step2pi", which, t_step, True)
    # approach radii stop at distance 2^-8 from the circle: a target this
    # close to the atom is not resolved, and the U check is expected to fail
    for sign in (1.0, -1.0):
        add_check("step2pi", "U", sign * float(rng.uniform(0.002, 0.004)), False)

    theta = jittered(rng, 1.2)
    z = pkg.core.DiskPoint(0.6, theta)
    for name in ("sin", "step2pi"):
        phi = pkg.zoo.make(name)
        bound = CONJUGACY_BOUND[name]
        ops.append(Op(
            f"conjugacy_residual({name}, theta={theta:.6f})", "transforms",
            lambda phi=phi: pkg.transforms.conjugacy_residual(phi, z),
            lambda x, bound=bound: (x <= bound, None if math.isfinite(x) else "non-finite residual"),
            _scalar_signature,
        ))
        field = lambda w, phi=phi: float(np.real(pkg.transforms.poisson_stieltjes(phi, w).value))
        ops.append(Op(
            f"harmonicity_diagnostics(U {name}, theta={theta:.6f})", "transforms",
            lambda field=field: pkg.transforms.harmonicity_diagnostics(field, z),
            lambda x: (x <= HARMONICITY_BOUND, None if math.isfinite(x) else "non-finite defect"),
            _scalar_signature,
        ))
    return ops


# -- cli_grid -----------------------------------------------------------------


def _csv_rows(data):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def cli_grid(pkg, rng, workdir):
    """In-process CLI invocations: transform grids and integrate specs."""
    main = pkg.cli.main
    ops = []
    counter = [0]

    def add(name, argv, expect_exit, check_rows=None, info=None, warm=False):
        counter[0] += 1
        out = os.path.join(workdir, f"report{counter[0]}.csv")

        def call():
            code = main(argv + ["--out", out])
            with open(out, "rb") as fh:
                return code, fh.read()

        def judge(result):
            code, report = result
            certified = code == 0
            if expect_exit is not None and code != expect_exit:
                return certified, f"exit {code}, expected {expect_exit}"
            if certified and check_rows is not None:
                problem = check_rows(_csv_rows(report))
                if problem:
                    return True, problem
            return certified, None

        ops.append(Op(name, "cli", call, judge, lambda result: result, info, warm))

    seam = ((math.pi, 0.0),)
    theta_pairs = [[jittered(rng, base_angle(k, seam)) for k in (2 * i, 2 * i + 1)] for i in range(2)]
    for name in ("sin", "cos", "linear", "sawtooth", "step2pi", "multi_step"):
        phi = pkg.zoo.make(name)
        kinds = TRANSFORMS if phi.kind != "step" else ("U",) if name == "step2pi" else ("V",)
        for which, thetas in itertools.product(kinds, theta_pairs):

            def rows_ok(rows, phi=phi, which=which):
                for row in rows:
                    if row["status"] != "converged":
                        continue
                    z = float(row["r"]) * cmath.exp(1j * float(row["theta"]))
                    ref = transform_reference(phi, which, z)
                    got = complex(float(row["value"]), float(row["value_im"]))
                    if _off(got, ref, float(row["est_error"]), CLI_FLOOR):
                        return f"row {row} off closed form {ref!r}"
                return None

            argv = ["transform", "--phi", f"zoo:{name}", "--which", which,
                    "--r", "0.5", "0.8", "--theta"] + [repr(t) for t in thetas] + ["--jobs", str(CLI_JOBS)]
            # smooth entries may stop inconclusive at the CLI's default tolerance
            expect = 0 if phi.kind == "step" else None
            add(f"cli transform {which} zoo:{name} theta={thetas[0]:.6f},{thetas[1]:.6f}",
                argv, expect, rows_ok, {"jobs": CLI_JOBS}, warm=phi.kind == "step")

    def integral_ok(ref):
        def check(rows):
            got = float(rows[0]["value"])
            if _off(got, ref, float(rows[0]["est_error"]), CLI_FLOOR):
                return f"integral {got!r}, closed form {ref!r}"
            return None

        return check

    a, b = jittered(rng, -1.0), jittered(rng, 2.0)
    prim = lambda t: t * t * math.sin(t) + 2.0 * t * math.cos(t) - 2.0 * math.sin(t)
    add(f"cli integrate poly:t2 zoo:sin [{a:.6f}, {b:.6f}]",
        ["integrate", "--g", "poly:t2", "--f", "zoo:sin", "--a", repr(a), "--b", repr(b)],
        0, integral_ok(prim(b) - prim(a)))
    # one atom of height 2 pi at t0 inside [-3, 3]
    t0 = float(rng.uniform(-2.5, 2.5))
    step = f"zoo:step2pi:{t0!r}"
    add(f"cli integrate poly:t {step}",
        ["integrate", "--g", "poly:t", "--f", step, "--a", "-3", "--b", "3"], 0, integral_ok(TWO_PI * t0))
    add(f"cli integrate zoo:sin {step}",
        ["integrate", "--g", "zoo:sin", "--f", step, "--a", "-3", "--b", "3"], 0,
        integral_ok(TWO_PI * math.sin(t0)))
    # the integrand t against the spike integrator has no RS integral
    add("cli integrate poly:t zoo:spikes",
        ["integrate", "--g", "poly:t", "--f", "zoo:spikes", "--a", "0", "--b", "1"], 2, warm=True)
    return ops


WORKLOADS = {
    "transform_grid": transform_grid,
    "limit_checks": limit_checks,
    "cli_grid": cli_grid,
}
