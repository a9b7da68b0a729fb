"""Both kernel lanes (compiled and pure-numpy) must agree.

Without numba (or with TSDFMAP_NUMBA=0) `njit` is a no-op, so each
`_numba` body runs as plain Python against its numpy twin and these
tests still check the loops the compiled lane would run.
"""

import os
import subprocess
import sys

import numpy as np

from tsdfmap.kernels.hashkern import (
    insert_rows_numba,
    insert_rows_numpy,
    lookup_rows_numba,
    lookup_rows_numpy,
)
from tsdfmap.kernels.march import classify_cells, emit_triangles
from tsdfmap.kernels.mc_tables import CASE_TRIANGLES
from tsdfmap.kernels.scatter import (
    adam_update_rows_numba,
    adam_update_rows_numpy,
    scatter_add_rows_numba,
    scatter_add_rows_numpy,
)
from tsdfmap.kernels.trace import trace_rays_numba, trace_rays_numpy

def test_hash_lanes_agree(rng):
    # uncompiled, the splitmix multiply wraps uint64 on purpose and warns
    with np.errstate(over="ignore"):
        _check_hash_lanes(rng)


def _check_hash_lanes(rng):
    cap = 64
    keys_a = np.full(cap, -1, dtype=np.int64)
    vals_a = np.zeros(cap, dtype=np.int64)
    keys_b = keys_a.copy()
    vals_b = vals_a.copy()
    new = rng.choice(10_000, size=30, replace=False).astype(np.int64)
    rows_a = np.empty(30, dtype=np.int64)
    rows_b = np.empty(30, dtype=np.int64)
    na = insert_rows_numba(keys_a, vals_a, new, rows_a, 0)
    nb = insert_rows_numpy(keys_b, vals_b, new, rows_b, 0)
    assert na == nb
    assert np.array_equal(rows_a, rows_b)
    assert np.array_equal(keys_a, keys_b)
    assert np.array_equal(vals_a, vals_b)
    probe = np.concatenate([new, np.array([999_999], dtype=np.int64)])
    assert np.array_equal(lookup_rows_numba(keys_a, vals_a, probe),
                          lookup_rows_numpy(keys_b, vals_b, probe))


def test_scatter_lanes_agree(rng):
    rows = rng.integers(0, 40, size=500).astype(np.int64)
    contrib = rng.standard_normal((500, 8))
    # into a zero buffer, as backward_mse scatters, the lanes match bitwise
    a = np.zeros((40, 8))
    b = np.zeros((40, 8))
    scatter_add_rows_numba(a, rows, contrib)
    scatter_add_rows_numpy(b, rows, contrib)
    assert np.array_equal(a, b)
    # into a non-zero buffer, as PerturbField.accumulate does, the numpy
    # lane sums each row's contributions before adding them, so the last
    # bits may differ
    base = rng.standard_normal((40, 8))
    a, b = base.copy(), base.copy()
    scatter_add_rows_numba(a, rows, contrib)
    scatter_add_rows_numpy(b, rows, contrib)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_scatter_matches_dense_sum(rng):
    rows = rng.integers(0, 12, size=200).astype(np.int64)
    contrib = rng.standard_normal((200, 3))
    out = np.zeros((12, 3))
    scatter_add_rows_numpy(out, rows, contrib)
    expect = np.zeros((12, 3))
    for r, c in zip(rows, contrib):
        expect[r] += c
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_adam_lanes_agree_bitwise(rng):
    n, d = 30, 8
    rows = np.sort(rng.choice(n, size=11, replace=False)).astype(np.int64)
    grad = rng.standard_normal((11, d))
    pa, ma, va = (rng.standard_normal((n, d)), np.abs(rng.standard_normal((n, d))),
                  np.abs(rng.standard_normal((n, d))))
    pb, mb, vb = pa.copy(), ma.copy(), va.copy()
    args = (0.01, 0.9, 0.999, 1e-8, 0.1, 0.001)
    adam_update_rows_numba(pa, ma, va, grad, rows, *args)
    adam_update_rows_numpy(pb, mb, vb, grad, rows, *args)
    assert np.array_equal(pa, pb)
    assert np.array_equal(ma, mb)
    assert np.array_equal(va, vb)


def _emit_triangles_per_cell(cases, tri_table, counts, offsets, out_cell, out_edges):
    """Reference loop: cell i writes its triangles from row offsets[i]."""
    for i in range(cases.shape[0]):
        c = cases[i]
        o = offsets[i]
        for t in range(counts[i]):
            out_cell[o + t] = i
            out_edges[o + t, 0] = tri_table[c, 3 * t]
            out_edges[o + t, 1] = tri_table[c, 3 * t + 1]
            out_edges[o + t, 2] = tri_table[c, 3 * t + 2]


def test_emit_triangles_matches_per_cell_loop(rng):
    # a bumpy implicit surface exercises many MC cases
    n = 12
    ax = np.linspace(-1.2, 1.2, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    values = (np.sqrt(X**2 + Y**2 + Z**2) - 0.9
              + 0.25 * np.sin(3 * X) * np.cos(2 * Y))
    valid = np.ones_like(values, dtype=bool)
    cell_ids, cases = classify_cells(values, valid)
    assert cases.size > 50  # enough variety to mean something
    counts = (CASE_TRIANGLES[cases] >= 0).sum(axis=1) // 3
    offsets = np.zeros(cases.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    oc_a = np.empty(total, dtype=np.int64)
    oe_a = np.empty((total, 3), dtype=np.int64)
    oc_b = np.empty(total, dtype=np.int64)
    oe_b = np.empty((total, 3), dtype=np.int64)
    _emit_triangles_per_cell(cases, CASE_TRIANGLES, counts, offsets, oc_a, oe_a)
    emit_triangles(cases, CASE_TRIANGLES, counts, offsets, oc_b, oe_b)
    assert np.array_equal(oc_a, oc_b)
    assert np.array_equal(oe_a, oe_b)


def test_trace_lanes_agree_bitwise(rng):
    types = np.array([0, 1, 2], dtype=np.int8)
    params = np.zeros((3, 6))
    params[0, :4] = [0.0, 0.0, 1.0, 0.6]        # sphere
    params[1] = [-2.0, -2.0, -0.5, 2.0, -1.0, 0.0]  # box
    params[2, :4] = [0.0, 0.0, 1.0, -0.2]       # plane z = -0.2
    n = 400
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    o = np.tile([0.0, 0.0, 2.5], (n, 1))
    ta = trace_rays_numba(np.ascontiguousarray(o), np.ascontiguousarray(d),
                          types, params, 40.0, 1e-5, 256)
    tb = trace_rays_numpy(np.ascontiguousarray(o), np.ascontiguousarray(d),
                          types, params, 40.0, 1e-5, 256)
    assert np.array_equal(ta, tb)
    assert (ta >= 0).any() and (ta < 0).any()  # mix of hits and misses


def test_numpy_lane_runs_full_pipeline():
    """The fallback lane must pass a miniature end-to-end run."""
    code = (
        "import numpy as np\n"
        "from tsdfmap.kernels import JIT_ENABLED\n"
        "assert not JIT_ENABLED\n"
        "from tsdfmap.trainer import Mapper, TrainConfig\n"
        "from tsdfmap.sampler import Scan\n"
        "r = np.random.default_rng(0)\n"
        "pts = np.column_stack([r.uniform(-2, 2, 120), r.uniform(-2, 2, 120),"
        " np.zeros(120)])\n"
        "m = Mapper(TrainConfig(iterations=2, batch_size=128, n_uncertain=32))\n"
        "rep = m.process_frame(Scan(np.array([0., 0., 2.]), pts, 0))\n"
        "assert len(rep.losses) == 2 and np.isfinite(rep.losses).all()\n"
        "print('ok')\n"
    )
    env = dict(os.environ, TSDFMAP_NUMBA="0")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
