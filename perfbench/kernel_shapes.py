"""The six kernel shapes of benchmarks/bench_kernels.py, live lane only.

Each kernel is called through its public alias (`hashkern.insert_rows`,
`scatter.scatter_add_rows`, ...), which is the numba build when
tsdfmap.kernels.JIT_ENABLED and the numpy twin otherwise. Only that
lane runs in the program, so only that lane is timed; with numba absent
the `_numba` names are the undecorated Python loops, and timing them
would measure nothing the program executes.

Each shape runs once to warm up, then REPEATS times; the median is
reported in milliseconds.
"""

import statistics
import time

import numpy as np

from tsdfmap.kernels import hashkern, march, scatter, trace
from tsdfmap.kernels.mc_tables import CASE_TRIANGLES

REPEATS = 3


def _lookup(rng):
    table_keys = np.full(1 << 20, -1, dtype=np.int64)
    table_vals = np.zeros(1 << 20, dtype=np.int64)
    keys = rng.choice(50_000_000, size=300_000, replace=False).astype(np.int64)
    hashkern.insert_rows(table_keys, table_vals, keys, np.empty(keys.size, np.int64), 0)
    probe = np.concatenate([keys, keys + 1])  # half hits, (mostly) half misses
    return lambda: hashkern.lookup_rows(table_keys, table_vals, probe)


def _insert(rng):
    keys = rng.choice(50_000_000, size=200_000, replace=False).astype(np.int64)
    rows = np.empty(keys.size, dtype=np.int64)

    def run():
        table_keys = np.full(1 << 19, -1, dtype=np.int64)
        table_vals = np.zeros(1 << 19, dtype=np.int64)
        hashkern.insert_rows(table_keys, table_vals, keys, rows, 0)

    return run


def _scatter(rng):
    rows = rng.integers(0, 200_000, size=16384 * 16).astype(np.int64)
    contrib = rng.standard_normal((rows.size, 8))
    out = np.zeros((200_000, 8))
    return lambda: scatter.scatter_add_rows(out, rows, contrib)


def _adam(rng):
    n = 200_000
    rows = np.sort(rng.choice(n, size=120_000, replace=False)).astype(np.int64)
    grad = rng.standard_normal((rows.size, 8))

    def run():
        param, m, v = np.zeros((n, 8)), np.zeros((n, 8)), np.zeros((n, 8))
        scatter.adam_update_rows(param, m, v, grad, rows, 0.01, 0.9, 0.999, 1e-8, 0.1, 0.001)

    return run


def _emit(rng):
    ax = np.linspace(-1.2, 1.2, 64)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    values = np.sqrt(X**2 + Y**2 + Z**2) - 0.9 + 0.2 * np.sin(4 * X) * np.cos(3 * Y)
    _, cases = march.classify_cells(values, np.ones_like(values, dtype=bool))
    counts = march.N_TRIS[cases]
    offsets = np.zeros(cases.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    out_cell = np.empty(total, dtype=np.int64)
    out_edges = np.empty((total, 3), dtype=np.int64)
    return lambda: march.emit_triangles(cases, CASE_TRIANGLES, counts, offsets,
                                        out_cell, out_edges)


def _trace(rng):
    types = np.array([2, 2, 2, 2, 2, 2, 0], dtype=np.int8)
    params = np.zeros((7, 6))
    for i, (n, off) in enumerate([((1, 0, 0), -6), ((-1, 0, 0), -6), ((0, 1, 0), -6),
                                  ((0, -1, 0), -6), ((0, 0, 1), 0), ((0, 0, -1), -6)]):
        params[i, :3] = n
        params[i, 3] = off
    params[6, :4] = [0.0, 0.0, 3.0, 2.0]
    d = rng.standard_normal((8192, 3))
    d = np.ascontiguousarray(d / np.linalg.norm(d, axis=1, keepdims=True))
    o = np.ascontiguousarray(np.tile([4.5, 0.0, 3.0], (8192, 1)))
    return lambda: trace.trace_rays(o, d, types, params, 30.0, 1e-5, 256)


SHAPES = (
    ("lookup_rows_600k", _lookup),
    ("insert_rows_200k", _insert),
    ("scatter_add_rows_262k", _scatter),
    ("adam_update_rows_120k", _adam),
    ("emit_triangles_64cube", _emit),
    ("trace_rays_8192", _trace),
)


def measure(seed):
    """{"kernels.shape.<name>.ms": (median ms, "ms")} for every shape."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, build in SHAPES:
        fn = build(rng)
        fn()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[f"kernels.shape.{name}.ms"] = (1e3 * statistics.median(times), "ms")
    return out
