"""Each kernel against a test-local sequential reference.

The references are the plain loops the kernels replace: key-by-key
linear probing, element-wise scatter-add and Adam, per-cell triangle
emission and ray-by-ray sphere tracing.
"""

import tracemalloc

import numpy as np

from tsdfmap.kernels.hashkern import (
    _MIX_A,
    _MIX_B,
    _MIX_C,
    EMPTY,
    _mix_u64,
    insert_rows,
    lookup_rows,
)
from tsdfmap.kernels.march import classify_cells, emit_triangles
from tsdfmap.kernels.mc_tables import CASE_TRIANGLES, MC_CORNERS
from tsdfmap.kernels.scatter import adam_update_rows, scatter_add_rows
from tsdfmap.kernels.trace import PRIM_BOX, PRIM_SPHERE, trace_rays

_U64 = (1 << 64) - 1


def _mix_int(key):
    """splitmix64's finalizer on one key, in Python integers."""
    z = (int(key) + _MIX_A) & _U64
    z = ((z ^ (z >> 30)) * _MIX_B) & _U64
    z = ((z ^ (z >> 27)) * _MIX_C) & _U64
    return z ^ (z >> 31)


def insert_rows_loop(table_keys, table_vals, keys, rows, next_row):
    """Reference: each key in turn walks from its home slot to the first empty one."""
    mask = table_keys.shape[0] - 1
    for i in range(keys.shape[0]):
        j = _mix_int(keys[i]) & mask
        while table_keys[j] != EMPTY:
            j = (j + 1) & mask
        table_keys[j] = keys[i]
        table_vals[j] = next_row
        rows[i] = next_row
        next_row += 1
    return next_row


def lookup_rows_loop(table_keys, table_vals, keys):
    """Reference: each key walks from its home slot to itself or an empty slot."""
    mask = table_keys.shape[0] - 1
    rows = np.full(keys.shape[0], -1, np.int64)
    for i in range(keys.shape[0]):
        j = _mix_int(keys[i]) & mask
        while table_keys[j] != EMPTY:
            if table_keys[j] == keys[i]:
                rows[i] = table_vals[j]
                break
            j = (j + 1) & mask
    return rows


def test_mix_matches_the_integer_reference(rng):
    keys = np.concatenate([rng.integers(0, 1 << 62, size=200), [0, 1, (1 << 63) - 1]])
    got = _mix_u64(keys.astype(np.uint64))
    assert got.tolist() == [_mix_int(k) for k in keys]


def test_hash_lanes_agree(rng):
    # The kernels and the key-by-key loops must return the same rows and
    # lookups; the slot layout may differ, since the kernel places
    # contending keys in rounds. Each batch holds distinct keys absent from
    # the table, as VoxelHash passes; repeated and present keys are covered
    # in test_hashmap.py.
    keys = rng.choice(10_000, size=68, replace=False)
    cases = [
        # 30 keys in 64 slots
        [keys[:30]],
        # 38 keys in 64 slots contend for slots, over two batches
        [keys[30:50], keys[50:]],
    ]
    for batches in cases:
        cap = 64
        keys_a = np.full(cap, -1, dtype=np.int64)
        vals_a = np.zeros(cap, dtype=np.int64)
        keys_b = keys_a.copy()
        vals_b = vals_a.copy()
        na = nb = 0
        for new in batches:
            new = np.asarray(new, dtype=np.int64)
            rows_a = np.empty(new.size, dtype=np.int64)
            rows_b = np.empty(new.size, dtype=np.int64)
            na = insert_rows_loop(keys_a, vals_a, new, rows_a, na)
            nb = insert_rows(keys_b, vals_b, new, rows_b, nb)
            assert na == nb
            assert np.array_equal(rows_a, rows_b)
        stored = np.concatenate(batches).astype(np.int64)
        probe = np.concatenate([stored, np.array([999_999], dtype=np.int64)])
        found = lookup_rows_loop(keys_a, vals_a, probe)
        assert found[-1] == -1
        assert np.array_equal(found, lookup_rows(keys_b, vals_b, probe))
        # each lookup finds every key in the table the other insert filled
        assert np.array_equal(found, lookup_rows_loop(keys_b, vals_b, probe))
        assert np.array_equal(found, lookup_rows(keys_a, vals_a, probe))
        assert (keys_a != -1).sum() == (keys_b != -1).sum() == na


def test_hash_insert_rounds_give_the_lowest_index_a_contested_slot():
    # four keys that mix to the same slot of a 16-slot table
    cand = np.arange(2000, dtype=np.int64)
    home = (_mix_u64(cand.astype(np.uint64)) & np.uint64(15)).astype(np.int64)
    keys = cand[home == home[0]][:4]
    table_keys = np.full(16, -1, dtype=np.int64)
    table_vals = np.zeros(16, dtype=np.int64)
    rows = np.empty(4, dtype=np.int64)
    assert insert_rows(table_keys, table_vals, keys, rows, 5) == 9
    assert rows.tolist() == [5, 6, 7, 8]
    slots = [(home[0] + i) % 16 for i in range(4)]
    assert table_keys[slots].tolist() == keys.tolist()
    assert table_vals[slots].tolist() == [5, 6, 7, 8]


def test_scatter_matches_dense_sum(rng):
    rows = rng.integers(0, 12, size=200).astype(np.int64)
    contrib = rng.standard_normal((200, 3))
    out = np.zeros((12, 3))
    scatter_add_rows(out, rows, contrib)
    expect = np.zeros((12, 3))
    for r, c in zip(rows, contrib):
        expect[r] += c
    assert np.array_equal(out, expect)  # the loop sums each row in the kernel's order


def scatter_add_rows_loop(out, rows, contrib):
    """Reference: each element's contributions summed in row order, then added to out."""
    sums = np.zeros_like(out)
    for i in range(rows.shape[0]):
        for d in range(contrib.shape[1]):
            sums[rows[i], d] += contrib[i, d]
    out += sums


def adam_update_rows_loop(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    """Reference: Adam on one element at a time; grad[i] belongs to row rows[i]."""
    for i in range(rows.shape[0]):
        r = rows[i]
        for d in range(param.shape[1]):
            g = grad[i, d]
            m[r, d] = beta1 * m[r, d] + (1.0 - beta1) * g
            v[r, d] = beta2 * v[r, d] + (1.0 - beta2) * g * g
            param[r, d] -= lr * (m[r, d] / bc1) / (np.sqrt(v[r, d] / bc2) + eps)


def test_scatter_matches_the_sequential_loop_bitwise(rng):
    rows = rng.integers(0, 40, size=500).astype(np.int64)
    empty = np.zeros(0, dtype=np.int64)
    for d in (8, 3):
        contrib = rng.standard_normal((500, d))
        cases = [
            (np.zeros((40, d)), rows, contrib),  # into a zero buffer, as backward_mse scatters
            # into a non-zero buffer with spare capacity rows, as the Fisher field accumulates
            (rng.standard_normal((64, d)), rows, contrib),
            (rng.standard_normal((64, d)), empty, contrib[:0]),
        ]
        for out, r, c in cases:
            want = out.copy()
            scatter_add_rows_loop(want, r, c)
            scatter_add_rows(out, r, c)
            assert np.array_equal(out, want)


def test_adam_matches_the_sequential_loop_bitwise(rng):
    n, d = 64, 8
    args = (0.01, 0.9, 0.999, 1e-8, 0.1, 0.001)
    for rows in (np.sort(rng.choice(40, size=17, replace=False)), np.zeros(0, dtype=np.int64)):
        grad = rng.standard_normal((rows.size, d))
        state = (rng.standard_normal((n, d)), np.abs(rng.standard_normal((n, d))),
                 np.abs(rng.standard_normal((n, d))))
        got = [a.copy() for a in state]
        want = [a.copy() for a in state]
        adam_update_rows(*got, grad, rows, *args)
        adam_update_rows_loop(*want, grad, rows, *args)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


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


def _classify_cells_int64(values, valid):
    """Reference: the case index built in int64, one temporary per corner."""
    nx, ny, nz = values.shape
    inside = values < 0.0
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.int64)
    ok = np.ones((nx - 1, ny - 1, nz - 1), dtype=bool)
    for c, (dx, dy, dz) in enumerate(MC_CORNERS):
        case |= inside[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz].astype(np.int64) << c
        ok &= valid[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz]
    cell_ids = np.flatnonzero((ok & (case > 0) & (case < 255)).ravel())
    return cell_ids, case.ravel()[cell_ids]


def test_classify_cells_matches_an_int64_case_index(rng):
    for shape in [(9, 7, 11), (2, 2, 2), (2, 30, 3)]:
        values = rng.standard_normal(shape)
        draw = rng.random(shape)
        values[draw < 0.1] = 0.0
        values[(draw >= 0.1) & (draw < 0.2)] = -0.0
        values[(draw >= 0.2) & (draw < 0.25)] = np.nan
        valid = rng.random(shape) > 0.05
        want_ids, want_cases = _classify_cells_int64(values, valid)
        got_ids, got_cases = classify_cells(values, valid)
        assert got_cases.dtype == np.uint8
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_cases, want_cases)
    ids, cases = classify_cells(np.zeros((1, 4, 4)), np.ones((1, 4, 4), dtype=bool))
    assert ids.size == 0 and cases.size == 0


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


def test_emit_triangles_gathers_one_byte_an_edge():
    ax = np.linspace(-1.2, 1.2, 40)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    values = np.sqrt(X**2 + Y**2 + Z**2) - 0.9 + 0.2 * np.sin(4 * X) * np.cos(3 * Y)
    cases = classify_cells(values, np.ones_like(values, dtype=bool))[1]
    counts = (CASE_TRIANGLES[cases] >= 0).sum(axis=1) // 3
    offsets = np.zeros(cases.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out_cell = np.empty(int(counts.sum()), dtype=np.int64)
    out_edges = np.empty((out_cell.size, 3), dtype=np.int64)
    tracemalloc.start()
    try:
        emit_triangles(cases, CASE_TRIANGLES, counts, offsets, out_cell, out_edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an int64 (m, 16) gather of the table rows alone takes 128 bytes a cut
    # cell; from an int8 table the whole emission peaks at about 40
    assert peak < 64 * cases.size


def _scene_sdf_one(x, y, z, types, params):
    """Reference: the scene SDF at one point, one primitive at a time."""
    best = 1e30
    for i in range(types.shape[0]):
        t = types[i]
        if t == PRIM_SPHERE:
            dx = x - params[i, 0]
            dy = y - params[i, 1]
            dz = z - params[i, 2]
            d = np.sqrt(dx * dx + dy * dy + dz * dz) - params[i, 3]
        elif t == PRIM_BOX:
            qx = max(params[i, 0] - x, x - params[i, 3])
            qy = max(params[i, 1] - y, y - params[i, 4])
            qz = max(params[i, 2] - z, z - params[i, 5])
            ox = max(qx, 0.0)
            oy = max(qy, 0.0)
            oz = max(qz, 0.0)
            d = np.sqrt(ox * ox + oy * oy + oz * oz) + min(max(qx, max(qy, qz)), 0.0)
        else:
            d = params[i, 0] * x + params[i, 1] * y + params[i, 2] * z - params[i, 3]
        if d < best:
            best = d
    return best


def trace_rays_loop(origins, dirs, types, params, max_range, eps, max_steps):
    """Reference: each ray sphere-traced in turn."""
    out = np.full(origins.shape[0], -1.0)
    for i in range(origins.shape[0]):
        t = 0.0
        for _ in range(max_steps):
            px = origins[i, 0] + t * dirs[i, 0]
            py = origins[i, 1] + t * dirs[i, 1]
            pz = origins[i, 2] + t * dirs[i, 2]
            d = _scene_sdf_one(px, py, pz, types, params)
            if d < eps:
                out[i] = t
                break
            t += d
            if t > max_range:
                break
    return out


def test_trace_lanes_agree_bitwise(rng):
    # the vectorized trace and the ray-by-ray loop give the same ranges
    types = np.array([0, 1, 2], dtype=np.int8)
    params = np.zeros((3, 6))
    params[0, :4] = [0.0, 0.0, 1.0, 0.6]        # sphere
    params[1] = [-2.0, -2.0, -0.5, 2.0, -1.0, 0.0]  # box
    params[2, :4] = [0.0, 0.0, 1.0, -0.2]       # plane z = -0.2
    n = 400
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    o = np.tile([0.0, 0.0, 2.5], (n, 1))
    ta = trace_rays_loop(o, d, types, params, 40.0, 1e-5, 256)
    tb = trace_rays(o, d, types, params, 40.0, 1e-5, 256)
    assert np.array_equal(ta, tb)
    assert (ta >= 0).any() and (ta < 0).any()  # mix of hits and misses
