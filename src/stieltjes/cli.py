"""Command-line front end.

Subcommands: integrate, transform, hilbert, limits, catalog.  Functions are
named by a small spec language:

    zoo:<name>[:<param>...]   catalog entry, e.g. zoo:step2pi:0.5
    poly:t | poly:t2 | poly:t3
    const:<value>
    file:<path>               JSON: {"kind": "zoo"|"step"|"const", ...}

Reports are CSV (header line, one record per line, computed floats at 12
significant digits, echoed inputs such as r, theta, tau and target in the
shortest form that reads back as the same float) or, with --format
structured, a single JSON document carrying the same fields.  Output is
deterministic for a fixed seed: records are ordered by grid index no
matter how many workers run, and nothing timestamps.

Exit codes: 0 ok, 1 usage or spec error or an unwritable --out, 2
divergence, 3 inconclusive, 4 evaluation at a declared jump.  A report's
code is the worst status of everything its subcommand ran; a limit report
that did not pass counts as inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from typing import Optional

import numpy as np

from . import zoo
from .core import BoundaryFunction, DiskPoint, RSStatus
from .limits import analytic_limit_check, conjugate_limit_check, poisson_limit_check
from .quadrature import NonConvergentError, QuadratureOptions, rs_integral
from .singular import JumpAtEvaluationPoint, hilbert_stieltjes, singular_cauchy_consistency
from .transforms import KERNELS, disk_transform

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_INCONCLUSIVE = 3
EXIT_JUMP = 4

_STATUS_EXIT = {
    RSStatus.CONVERGED: EXIT_OK,
    RSStatus.DIVERGED: EXIT_DIVERGED,
    RSStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class SpecError(ValueError):
    """A function spec string or file could not be understood."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _poly(power: int):
    return lambda t: np.asarray(t, dtype=float) ** power


def _const(v: float):
    if not np.isfinite(v):
        raise SpecError(f"const value must be finite, got {v!r}")
    return lambda t: np.full_like(np.asarray(t, dtype=float), v)


def _from_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read function file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"function file {path} must hold a JSON object")
    kind = doc.get("kind")
    if kind == "zoo":
        return zoo.make(doc["name"], *doc.get("params", []))
    if kind == "const":
        return _const(float(doc["value"]))
    if kind == "step":
        return BoundaryFunction(
            name=doc.get("name", "file_step"),
            kind="step",
            jumps=tuple((float(loc), float(h)) for loc, h in doc.get("jumps", [])),
            base=float(doc.get("base", 0.0)),
        )
    raise SpecError(f"unknown kind {kind!r} in function file {path}")


def parse_function_spec(spec: str):
    """Turn a spec string into an evaluator (callable or BoundaryFunction)."""
    head, _, rest = spec.partition(":")
    try:
        if head == "zoo":
            name, *params = rest.split(":")
            return zoo.make(name, *[float(p) for p in params])
        if head == "poly":
            powers = {"t": 1, "t2": 2, "t3": 3}
            if rest not in powers:
                raise SpecError(f"poly supports t, t2, t3; got {rest!r}")
            return _poly(powers[rest])
        if head == "const":
            return _const(float(rest))
        if head == "file":
            return _from_file(rest)
    except SpecError:
        raise
    except KeyError as exc:
        raise SpecError(f"bad function spec {spec!r}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad function spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown function spec {spec!r}")


class _Echo(float):
    """An input coordinate a report echoes: written so that it reads back as the same float."""


def _fmt(x) -> str:
    # every int the reports carry (a level count, a 0/1 flag) prints as itself
    if isinstance(x, str):
        return x
    return repr(float(x)) if isinstance(x, _Echo) else f"{float(x):.12g}"


def _json_value(v):
    # JSON has no nan or inf: a non-finite float is written as the CSV writes it
    if isinstance(v, str):
        return v
    v = float(v)
    return v if math.isfinite(v) else _fmt(v)


def _write_report(path: Optional[str], header, rows, structured: bool):
    if structured:
        doc = {"fields": list(header), "records": [
            {k: _json_value(v) for k, v in zip(header, row)} for row in rows
        ]}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _opts(args) -> QuadratureOptions:
    """Options from --tol, else the STIELTJES_TOL environment variable, else 1e-6."""
    tol, env = args.tol, os.environ.get("STIELTJES_TOL")
    if tol is None and env:
        try:
            tol = float(env)
        except ValueError:
            raise SpecError(f"STIELTJES_TOL is not a number: {env!r}")
    return QuadratureOptions(rel_tol=1e-6 if tol is None else tol, seed=args.seed)


def _boundary(spec: str, message: str) -> BoundaryFunction:
    phi = parse_function_spec(spec)
    if not isinstance(phi, BoundaryFunction):
        raise SpecError(message)
    return phi


def _cmd_integrate(args):
    g = parse_function_spec(args.g)
    f = parse_function_spec(args.f)
    res = rs_integral(g, f, args.a, args.b, _opts(args))
    val = complex(res.value)
    header = ["status", "value", "value_im", "est_error", "levels", "deepest_mesh"]
    rows = [[res.status.value, val.real, val.imag, res.est_error,
             len(res.levels), res.levels[-1][0]]]
    return header, rows, [res.status]


_TRANSFORMS = {which: partial(disk_transform, which) for which in KERNELS}


def _cmd_transform(args):
    phi = _boundary(args.phi, "transforms need a boundary function (zoo: or file:)")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    op = _TRANSFORMS[args.which]
    opts = _opts(args)
    grid = [(r, th) for r in args.r for th in args.theta]

    def run(point):
        r, th = point
        res = op(phi, DiskPoint(r, th), opts)
        v = complex(res.value)
        return [_Echo(r), _Echo(th), v.real, v.imag, res.est_error, res.status.value]

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(run, grid))
    header = ["r", "theta", "value", "value_im", "est_error", "status"]
    return header, rows, [RSStatus(row[5]) for row in rows]


def _cmd_hilbert(args):
    phi = _boundary(args.phi, "the principal-value integral needs a boundary function")
    opts = _opts(args)
    header = ["tau", "value", "est_error", "extrapolated"]
    if args.compare_singular_cauchy:
        header += ["consistency_residual", "cauchy_imag"]
    rows, statuses = [], []
    for tau in args.tau:
        if args.compare_singular_cauchy:
            con = singular_cauchy_consistency(phi, tau, opts=opts)
            h, extra = con.hilbert, [con.residual, con.imag_magnitude]
            statuses.append(con.cauchy.status)
        else:
            h, extra = hilbert_stieltjes(phi, tau, opts=opts), []
        rows.append([_Echo(tau), h.value, h.est_error, int(h.extrapolated)] + extra)
        statuses.append(h.status)
    return header, rows, statuses


_LIMIT_CHECKS = {
    "U": poisson_limit_check,
    "V": conjugate_limit_check,
    "SC": analytic_limit_check,
}


def _cmd_limits(args):
    phi = _boundary(args.phi, "limit checks need a boundary function")
    check = _LIMIT_CHECKS[args.which]
    # an option left out keeps the check's own default
    given = {"apertures": args.apertures, "tol": args.tol}
    kwargs = {k: v for k, v in given.items() if v is not None}
    header = ["target", "field", "approach", "extrapolated", "extrapolated_im",
              "expected", "expected_im", "residual", "grade"]
    rows, statuses = [], []
    for target in args.target:
        report = check(phi, target, **kwargs)
        if not report.passed:
            statuses.append(RSStatus.INCONCLUSIVE)
        statuses.extend(report.statuses)
        for row in report.rows:
            ext = complex(row.estimate.extrapolated)
            exp = complex(row.expected)
            rows.append([_Echo(target), row.field, row.approach, ext.real, ext.imag,
                         exp.real, exp.imag, row.residual, row.grade])
    return header, rows, statuses


def _cmd_catalog(args):
    header = ["name", "kind", "atoms", "net_increment", "bound"]
    rows = []
    for phi in zoo.catalog():
        atoms = ";".join(f"{loc:.6g}@{h:.6g}" for loc, h in phi.jumps) or "-"
        bound = phi.bounded_by if phi.bounded_by is not None else float("nan")
        rows.append([phi.name, phi.kind, atoms, phi.period_increment, bound])
    return header, rows, []


# argparse reads the parser without changing it, so one serves every call of main
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="stieltjes", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None, help="report file (default stdout)")
        p.add_argument("--format", choices=("csv", "structured"), default="csv")

    def quadrature(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (default: STIELTJES_TOL or 1e-6)")
        p.add_argument("--seed", type=int, default=0, help="tag-replica seed")
        output(p)

    p = sub.add_parser("integrate", help="Riemann-Stieltjes integral of g against df")
    p.add_argument("--g", required=True, help="integrand spec")
    p.add_argument("--f", required=True, help="integrator spec")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    quadrature(p)
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("transform", help="disk transforms on an r x theta grid")
    p.add_argument("--phi", required=True, help="integrator spec")
    p.add_argument("--which", choices=tuple(_TRANSFORMS), required=True)
    p.add_argument("--r", type=float, nargs="+", required=True)
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker threads (at least 1)")
    quadrature(p)
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("hilbert", help="principal-value boundary integral")
    p.add_argument("--phi", required=True)
    p.add_argument("--tau", type=float, nargs="+", required=True)
    p.add_argument("--compare-singular-cauchy", action="store_true")
    quadrature(p)
    p.set_defaults(run=_cmd_hilbert)

    p = sub.add_parser("limits", help="graded boundary-limit checks")
    p.add_argument("--phi", required=True)
    p.add_argument("--which", choices=tuple(_LIMIT_CHECKS), required=True)
    p.add_argument("--target", type=float, nargs="+", required=True, help="boundary angles")
    p.add_argument("--apertures", type=float, nargs="*", default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance that grades the limit residuals "
                        "(default: 1e-3 for U, 2e-3 for V, 3e-3 for SC)")
    output(p)
    p.set_defaults(run=_cmd_limits)

    p = sub.add_parser("catalog", help="list built-in boundary functions")
    output(p)
    p.set_defaults(run=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        header, rows, statuses = args.run(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (ValueError, NonConvergentError) as exc:
        sys.stderr.write(f"stieltjes: {exc}\n")
        if isinstance(exc, JumpAtEvaluationPoint):
            return EXIT_JUMP
        return EXIT_DIVERGED if isinstance(exc, NonConvergentError) else EXIT_USAGE
    try:
        _write_report(args.out, header, rows, args.format == "structured")
    except OSError as exc:
        sys.stderr.write(f"stieltjes: cannot write the report: {exc}\n")
        return EXIT_USAGE
    # the worst status of everything the subcommand ran
    return max((_STATUS_EXIT[s] for s in statuses), default=EXIT_OK)


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
