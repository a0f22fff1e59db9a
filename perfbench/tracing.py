"""Spans around the package's layer boundaries, installed from outside it.

The tracer replaces module attributes through which one layer calls the
next (and ``BoundaryFunction.__call__``) with thin wrappers that record a
span per call: name, start, end, parent span, op index and a few facts
about the result.  Spans stay in memory until the run ends.  Nothing under
the package's source tree is edited; :meth:`Tracer.uninstall` restores
every attribute.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter

import numpy as np

from metrics import self_times, share

# modules whose ``rs_integral`` attribute the layers above call
RS_SITES = ("transforms", "singular", "cli", "quadrature")
LIMITS_FIELDS = ("poisson_stieltjes", "conj_poisson_stieltjes", "schwartz_stieltjes", "cauchy_stieltjes")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, op, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self.op = None
        self.root = None

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs=None, result_info=None, **info):
        """Run ``fn`` inside a span; outside an op nothing is recorded."""
        if self.op is None:
            return fn(*args, **(kwargs or {}))
        stack = self._stack()
        # worker threads start with an empty stack: attach them to the op
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
            if result_info is not None:
                info.update(result_info(out))
            return out
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.op, info))

    def run_op(self, index, layer, fn, info=None):
        """Top-level span of one op; inner spans of any thread hang below it."""
        self.op = index
        self.root = next(self._ids)
        info = dict(info or {})
        stack = self._stack()
        stack.append(self.root)
        start = perf_counter()
        try:
            out = fn()
            if hasattr(out, "status"):
                info["status"] = out.status.value
            return out
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((self.root, None, layer, start, end, index, info))
            self.op = self.root = None

    # -- installation -------------------------------------------------------

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_item(self, table, key, new):
        self._patches.append((table, key, table[key]))
        table[key] = new

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)

    def _layer(self, name, fn, result_info=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, result_info)

        return wrapper

    def install(self, pkg):
        bf = pkg.core.BoundaryFunction
        rs = pkg.quadrature.rs_integral

        def kernel(g):
            def traced_g(t):
                return self.call("kernels", g, (t,), points=int(np.size(t)))

            return traced_g

        def rs_integral(g, f, *args, **kwargs):
            # a BoundaryFunction integrand keeps its type for rs_integral's checks
            if not isinstance(g, bf):
                g = kernel(g)
            return self.call(
                "quadrature", rs, (g, f) + args, kwargs,
                lambda res: {"levels": len(res.levels), "status": res.status.value},
                graded=kwargs.get("grading") is not None,
            )

        for mod in RS_SITES:
            self._patch(getattr(pkg, mod), "rs_integral", rs_integral)

        bf_call = bf.__call__

        def traced_call(phi, t):
            return self.call("core", bf_call, (phi, t), points=int(np.size(t)))

        self._patch(bf, "__call__", traced_call)

        status = lambda res: {"status": res.status.value}
        for attr in LIMITS_FIELDS:
            self._patch(pkg.limits, attr, self._layer("transforms", getattr(pkg.limits, attr), status))
        self._patch(pkg.limits, "hilbert_stieltjes", self._layer("singular", pkg.limits.hilbert_stieltjes))
        for key, fn in list(pkg.cli._TRANSFORMS.items()):
            self._patch_item(pkg.cli._TRANSFORMS, key, self._layer("transforms", fn, status))
        for key, fn in list(pkg.cli._LIMIT_CHECKS.items()):
            self._patch_item(pkg.cli._LIMIT_CHECKS, key, self._layer("limits", fn))


PER_LAYER = (
    ("kernels.calls", "count"),
    ("kernels.points", "count"),
    ("kernels.s", "s"),
    ("kernels.calls_per_level", "ratio"),
    ("kernels.points_per_certified", "ratio"),
    ("core.f_calls", "count"),
    ("core.f_points", "count"),
    ("core.f_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.levels", "count"),
    ("quadrature.levels_per_call", "ratio"),
    ("quadrature.certified_ratio", "ratio"),
    ("quadrature.graded_share", "ratio"),
    ("quadrature.diverged", "count"),
    ("quadrature.self_s", "s"),
    ("singular.calls", "count"),
    ("singular.window_runs", "count"),
    ("singular.self_s", "s"),
    ("transforms.calls", "count"),
    ("transforms.uncertified", "count"),
    ("transforms.self_s", "s"),
    ("limits.checks", "count"),
    ("limits.field_calls", "count"),
    ("limits.field_uncertified", "count"),
    ("limits.pv_calls", "count"),
    ("limits.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.pool_busy_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, certified_ops, overhead_s):
    """Per-layer counts, ratios and self times from one traced pass."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    name_of = lambda sid: by_id[sid][2] if sid in by_id else None

    def pick(name, parent=None):
        return [s for s in spans if s[2] == name and (parent is None or name_of(s[1]) == parent)]

    def self_s(name):
        return sum(selfs[s[0]] for s in spans if s[2] == name)

    kern, core, quad = pick("kernels"), pick("core"), pick("quadrature")
    trans, limits, cli = pick("transforms"), pick("limits"), pick("cli")
    # a span whose call raised carries no result facts
    levels = sum(s[6].get("levels", 0) for s in quad)
    kernel_points = sum(s[6]["points"] for s in kern)
    not_converged = lambda group: sum(1 for s in group if s[6].get("status") != "converged")
    field_calls = pick("transforms", "limits")
    # transform spans below a CLI op, against the CLI wall time times its workers
    busy = sum(s[4] - s[3] for s in pick("transforms", "cli"))
    capacity = sum((s[4] - s[3]) * s[6].get("jobs", 0) for s in cli)

    values = {
        "kernels.calls": len(kern),
        "kernels.points": kernel_points,
        "kernels.s": sum(s[4] - s[3] for s in kern),
        "kernels.calls_per_level": share(len(kern), levels),
        "kernels.points_per_certified": share(kernel_points, certified_ops),
        "core.f_calls": len(core),
        "core.f_points": sum(s[6]["points"] for s in core),
        "core.f_s": sum(s[4] - s[3] for s in core),
        "quadrature.calls": len(quad),
        "quadrature.levels": levels,
        "quadrature.levels_per_call": share(levels, len(quad)),
        "quadrature.certified_ratio": share(len(quad) - not_converged(quad), len(quad)),
        "quadrature.graded_share": share(sum(1 for s in quad if s[6]["graded"]), len(quad)),
        "quadrature.diverged": sum(1 for s in quad if s[6].get("status") == "diverged"),
        "quadrature.self_s": self_s("quadrature"),
        "singular.calls": len(pick("singular")),
        "singular.window_runs": len(pick("quadrature", "singular")),
        "singular.self_s": self_s("singular"),
        "transforms.calls": len(trans),
        "transforms.uncertified": not_converged([s for s in trans if "status" in s[6]]),
        "transforms.self_s": self_s("transforms"),
        "limits.checks": len(limits),
        "limits.field_calls": len(field_calls),
        "limits.field_uncertified": not_converged(field_calls),
        "limits.pv_calls": len(pick("singular", "limits")),
        "limits.self_s": self_s("limits"),
        "cli.calls": len(cli),
        "cli.self_s": self_s("cli"),
        "cli.pool_busy_ratio": share(busy, capacity),
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
