"""Arithmetic behind the reported numbers.

Medians, the tail-percentile rule, span self time and the byte count of
the arrays a structure holds. Nothing here imports tsdfmap, so the tests
in test_perfbench.py check it on hand-made inputs.
"""

import statistics

import numpy as np

# The tail is the highest order statistic with at least this many
# samples beyond it (choosing-metrics rule: enough samples that one
# outlier cannot set it on its own).
TAIL_BEYOND = 10


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail(values):
    """(value, percentile, n) of the tail of a latency sample.

    The value is the highest order statistic that still has TAIL_BEYOND
    samples above it; its percentile is the share of samples at or below
    it. When that statistic would not lie above the median (fewer than
    21 samples) the median is reported with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return median(xs), 50.0, n
    return float(xs[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def position_medians(sequences):
    """Per-position medians over equal-length runs of the same sequence.

    Frame k of every pass maps the same input, so its median over passes
    is one sample of frame-k latency; the number of positions stays the
    same however many passes fit in the run.
    """
    sequences = [list(s) for s in sequences if len(s)]
    if not sequences:
        return []
    n = min(len(s) for s in sequences)
    return [median(s[k] for s in sequences) for k in range(n)]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of each span: its duration minus its children's coverage.

    spans: sequence of (start, end, parent) with parent the index of the
    enclosing span or -1. Returns a list aligned with spans.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(spans[j][0], spans[j][1]) for j in children[i]]
        out.append((end - start) - covered(kids, start, end))
    return out


def subtree(spans, root):
    """Indices of root and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][2] in inside:
            inside.add(i)
    return sorted(inside)


def held_bytes(objects):
    """Bytes of the distinct numpy buffers the objects hold as attributes.

    Each attribute array is charged for the whole buffer it views, and a
    buffer shared by several attributes or objects is counted once.
    """
    seen = set()
    total = 0
    for obj in objects:
        for value in vars(obj).values():
            if not isinstance(value, np.ndarray):
                continue
            base = value
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
    return total
