"""Benchmark of certified values, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload transform_grid --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout; nothing there is
edited.  One run sets up (import, input generation from ``--seed``,
warm-up) nine times and reports the median, then repeats the workload's
fixed input set as whole passes, one caller in a closed loop, for about
``--seconds``.  A reference probe runs around every timed op, and times
are reported at the probe's reference speed (see ``reference.py``).
Every op's output is checked.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a pass with spans at the layer
boundaries between two untraced passes, requires identical values and
statuses from all three, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from metrics import interquartile_mean, median, nearest_rank, share, tail_latency
from reference import probe, speed_factors
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
MODULES = ("core", "zoo", "kernels", "quadrature", "transforms", "singular", "limits", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("s_per_certified", "s"),
    ("uncertified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import the package afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "stieltjes" or m.startswith("stieltjes.")]:
        del sys.modules[name]
    importlib.import_module("stieltjes")
    return SimpleNamespace(**{m: importlib.import_module(f"stieltjes.{m}") for m in MODULES})


def set_up(workload, seed, workdir):
    """Import, build the inputs and warm up; returns (package, ops, seconds).

    The seconds are at the reference speed, from probes on either side.
    """
    before = probe()
    start = perf_counter()
    pkg = import_package()
    ops = WORKLOADS[workload](pkg, np.random.default_rng(seed), workdir)
    for op in ops:
        if op.warm:
            op.call()
    seconds = perf_counter() - start
    return pkg, ops, seconds * speed_factors([before, probe()])[0]


def run_pass(ops, tracer=None, probes=None):
    """One closed-loop pass over the ops; returns (wall, latencies, results).

    With a ``probes`` list, the reference probe runs before every op and
    after the last, and its times are appended there.
    """
    latencies, results = [], []
    begin = perf_counter()
    for i, op in enumerate(ops):
        if probes is not None:
            probes.append(probe())
        start = perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.run_op(i, op.layer, op.call, op.info)
        except Exception as exc:  # an unexpected exception is a failed op
            out = exc
        latencies.append(perf_counter() - start)
        results.append(out)
    if probes is not None:
        probes.append(probe())
    return perf_counter() - begin, latencies, results


def judge(op, out):
    """(certified, problem) for one result; an exception is a failed op."""
    if isinstance(out, Exception):
        return False, "raised " + "".join(traceback.format_exception_only(type(out), out)).strip()
    try:
        return op.judge(out)
    except Exception as exc:
        return False, f"output check raised {exc!r}"


class Tally:
    def __init__(self):
        self.attempted = self.certified = self.failed = 0
        self.problems = {}

    def add(self, ops, results):
        for op, out in zip(ops, results):
            certified, problem = judge(op, out)
            self.attempted += 1
            self.certified += bool(certified)
            if problem:
                self.failed += 1
                self.problems.setdefault(op.name, problem)

    def fail(self, name, problem):
        self.failed += 1
        self.problems.setdefault(name, problem)


def end_to_end(setup_s, passes, per_op, tally):
    """End-to-end metrics from each op's typical latency over the run's passes.

    ``per_op`` holds every op's latencies at the reference speed (see
    ``reference.py``); an op's latency is the interquartile mean of its
    samples, and the time metrics all derive from those.
    """
    latencies = [interquartile_mean(samples) for samples in per_op]
    busy = sum(latencies)
    certified_per_pass = tally.certified / passes
    tail, pct, beyond = tail_latency(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": 1e3 * nearest_rank(sorted(latencies), 50.0),
        "op_tail_ms": 1e3 * tail,
        "s_per_certified": busy / max(certified_per_pass, 1),
        "uncertified_share": share(tally.attempted - tally.certified, tally.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{len(latencies)} ops, each the interquartile mean of {passes} passes",
        "op_tail_ms": f"p{pct:g} of {len(latencies)} ops, {beyond} beyond",
        "s_per_certified": f"{certified_per_pass:g} certified ops per pass",
        "uncertified_share": f"{tally.attempted - tally.certified} of {tally.attempted} ops",
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def measure(ops, seconds, tally):
    """Whole passes while another one fits in ``seconds`` (at least one).

    Returns the pass wall times, per op its latencies scaled to the
    reference speed by the probes around it, and the median scale factor.
    """
    walls, per_op, factors = [], [[] for _ in ops], []
    while True:
        probes = []
        wall, latencies, results = run_pass(ops, probes=probes)
        walls.append(wall)
        factors += speed_factors(probes)
        for samples, lat, factor in zip(per_op, latencies, factors[-len(ops):]):
            samples.append(lat * factor)
        tally.add(ops, results)
        if sum(walls) + sum(walls) / len(walls) > seconds:
            return walls, per_op, median(factors)


def traced(pkg, ops, tally, spans_path):
    """A traced pass between two untraced passes over the same inputs.

    The overhead is the traced wall time minus the mean of the untraced
    ones, which cancels a steady drift of the host's speed.
    """
    before, _lat, plain = run_pass(ops)
    tally.add(ops, plain)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        traced_wall, _lat, with_trace = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tally.add(ops, with_trace)
    after, _lat, plain_again = run_pass(ops)
    tally.add(ops, plain_again)
    for op, *outs in zip(ops, plain, with_trace, plain_again):
        if any(isinstance(out, Exception) for out in outs):
            continue  # already counted as failed
        first, traced_sig, last = (op.signature(out) for out in outs)
        if not first == traced_sig == last:
            tally.fail(op.name, "traced pass did not reproduce the untraced values and statuses")
    certified = sum(1 for op, out in zip(ops, with_trace) if judge(op, out)[0])
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart\tend\top\tinfo\n")
        for sid, parent, name, start, end, op, info in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{op}\t{json.dumps(info)}\n")
    return layer_metrics(tracer.spans, certified, traced_wall - 0.5 * (before + after))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stieltjes", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [set_up(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        pkg, ops, _ = setups[-1]
        setup_s = median([s[2] for s in setups])
        tally = Tally()
        print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
              f"closed loop, 1 caller, trace {args.trace}")
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
            metrics = traced(pkg, ops, tally, spans_path)
            notes = {"trace.overhead_s": "traced pass wall minus the mean untraced pass wall"}
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            walls, per_op, factor = measure(ops, args.seconds, tally)
            metrics, notes = end_to_end(setup_s, len(walls), per_op, tally)
            print(f"{len(walls)} passes in {sum(walls):.3f} s; times below are scaled to the "
                  f"reference speed by a median factor of {factor:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = dict(metrics)
    if not args.trace:
        # 0 on a correct program, so printed here but not a JSON metric
        shown["failed_share"] = (share(tally.failed, tally.attempted), "ratio")
        notes["failed_share"] = f"{tally.failed} of {tally.attempted} ops"
    for name, (value, unit) in shown.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    for name, problem in tally.problems.items():
        print(f"FAILED {name}: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
