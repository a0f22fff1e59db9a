"""Arithmetic behind the reported numbers: percentiles, shares, self time.

Kept free of any package import so the self-tests in ``test_metrics.py``
can exercise it on synthetic inputs.
"""

from __future__ import annotations

import math

# candidate percentiles for the tail latency, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# samples that must lie strictly beyond the reported tail percentile
TAIL_BEYOND = 10


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule (1-based rank ceil(p N / 100))."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p * n / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(n, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """Highest ladder percentile with at least ``beyond`` of ``n`` samples above its rank.

    Returns ``(p, samples_beyond)``, or ``(None, 0)`` when even the lowest rung
    leaves fewer than ``beyond`` samples above it.
    """
    best = (None, 0)
    for p in ladder:
        above = n - max(1, math.ceil(p * n / 100.0))
        if above >= beyond:
            best = (p, above)
    return best


def tail_latency(values, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """(latency, percentile, samples beyond) at the tail percentile of ``values``.

    With too few samples for any rung, the maximum is returned as percentile 100.
    """
    s = sorted(values)
    p, above = tail_percentile(len(s), ladder, beyond)
    if p is None:
        return s[-1], 100.0, 0
    return nearest_rank(s, p), p, above


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def interquartile_mean(values):
    """Mean of the middle half: a quarter (rounded down) dropped from each end.

    Steadier than the median for a handful of samples, and as blind to a
    few slow outliers.
    """
    s = sorted(values)
    if not s:
        raise ValueError("mean of an empty sample")
    cut = len(s) // 4
    middle = s[cut:len(s) - cut]
    return sum(middle) / len(middle)


def share(part, whole):
    """part / whole, with an empty whole counted as share 0."""
    return part / whole if whole else 0.0


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals`` (clipped to it)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(span_id, parent_id, start, end)``; children
    running concurrently on worker threads are merged before subtraction.
    """
    children = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, start, end in spans:
        kids = children.get(sid, ())
        out[sid] = (end - start) - covered_length(kids, start, end)
    return out
