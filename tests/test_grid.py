import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grid_helpers import record_rows
from tsdfmap.errors import UnallocatedQuery
from tsdfmap.hashmap import COORD_LIMIT, pack_coords, unpack_key
from tsdfmap.grid import (
    CORNER_OFFSETS,
    FeatureGrid,
    cell_keys,
    cell_of,
    cell_rows,
    corner_keys,
    distinct_cells,
    sorted_distinct,
    trilinear_weight_gradients,
    trilinear_weights,
)
from tsdfmap.uncertainty import PerturbField


def brute_weights(frac):
    """Product-form trilinear weights, one corner at a time."""
    out = np.empty((frac.shape[0], 8))
    for c, (i, j, k) in enumerate(CORNER_OFFSETS):
        wx = frac[:, 0] if i else 1.0 - frac[:, 0]
        wy = frac[:, 1] if j else 1.0 - frac[:, 1]
        wz = frac[:, 2] if k else 1.0 - frac[:, 2]
        out[:, c] = wx * wy * wz
    return out


def test_cell_of_basic():
    base, frac = cell_of(np.array([[0.35, -0.05, 0.0]]), 0.3)
    assert base.tolist() == [[1, -1, 0]]
    np.testing.assert_allclose(frac, [[0.35 / 0.3 - 1.0, -0.05 / 0.3 + 1.0, 0.0]],
                               atol=1e-12)
    assert frac.min() >= 0.0 and frac.max() < 1.0


def test_corner_keys_pack_each_corner_offset(rng):
    cells = rng.integers(-1000, 1000, size=(50, 3))
    keys = corner_keys(cell_keys(cells))
    assert keys.shape == (50, 8)
    for c, off in enumerate(CORNER_OFFSETS):
        assert np.array_equal(keys[:, c], pack_coords(cells + off))


def test_weights_match_brute_force(rng):
    frac = rng.random((500, 3))
    np.testing.assert_allclose(trilinear_weights(frac), brute_weights(frac),
                               rtol=0, atol=1e-12)


def test_weights_at_corner_are_delta():
    for c, off in enumerate(CORNER_OFFSETS):
        w = trilinear_weights(off[None].astype(np.float64))
        expect = np.zeros(8)
        expect[c] = 1.0
        np.testing.assert_allclose(w[0], expect, atol=1e-15)


def test_weight_gradients_match_finite_differences(rng):
    frac = rng.uniform(0.2, 0.8, size=(50, 3))
    vs = 0.3
    grads = trilinear_weight_gradients(frac, vs)
    h = 1e-6
    for a in range(3):
        dp = frac.copy()
        dm = frac.copy()
        dp[:, a] += h
        dm[:, a] -= h
        # d frac / d x = 1 / voxel_size
        fd = (trilinear_weights(dp) - trilinear_weights(dm)) / (2 * h) / vs
        np.testing.assert_allclose(grads[:, :, a], fd, rtol=0, atol=1e-8)


_SIGN = np.where(CORNER_OFFSETS == 0, -1.0, 1.0)  # (8, 3) d(axis factor)/dt


def gathered_factors(frac):
    """Reference: each corner's x, y and z factor, gathered per point, (n, 8) each."""
    f = np.stack([1.0 - frac, frac], axis=2)  # (n, 3, 2)
    bx, by, bz = CORNER_OFFSETS.T
    return f[:, 0, bx], f[:, 1, by], f[:, 2, bz]


def same_bits(a, b):
    """Equal shapes and bytes, so -0.0 differs from 0.0."""
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def test_weights_and_gradients_equal_the_gathered_factor_form_bitwise(rng):
    ulp_below_one = 1.0 - np.spacing(1.0)
    edges = np.array([[0.0, 0.0, 0.0], [ulp_below_one] * 3, [0.0, ulp_below_one, 0.5],
                      [-0.0, 0.25, ulp_below_one]])  # cell_of gives -0.0 at a coordinate of -0.0
    for frac in (edges, rng.random((1000, 3)), np.zeros((0, 3))):
        fx, fy, fz = gathered_factors(frac)
        assert same_bits(trilinear_weights(frac), fx * fy * fz)
        for vs in (0.3, 0.45):
            want = np.stack([_SIGN[:, 0] * fy * fz, _SIGN[:, 1] * fx * fz,
                             _SIGN[:, 2] * fx * fy], axis=2) / vs
            assert same_bits(trilinear_weight_gradients(frac, vs), want)


@settings(deadline=None, max_examples=100)
@given(arrays(np.float64, (7, 3), elements=st.floats(0, 1, exclude_max=True)))
def test_weights_sum_to_one_and_nonnegative(frac):
    w = trilinear_weights(frac)
    assert (w >= 0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_allocate_is_idempotent(rng):
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    pts = rng.uniform(-1, 1, size=(200, 3))
    added, skipped = g.allocate(pts)
    assert added > 0 and skipped == 0
    again, _ = g.allocate(pts)
    assert again == 0


def test_sorted_distinct_equals_np_unique(rng):
    ends = np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max])
    cases = [np.empty(0, np.int64), np.array([7]), np.full((3, 8), -5),
             rng.integers(-50, 50, size=(400, 8)), rng.permutation(np.repeat(ends, 3)),
             corner_keys(cell_keys(cell_of(rng.uniform(-2, 2, (500, 3)), 0.3)[0]))]
    for keys in cases:
        got, want = sorted_distinct(keys), np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_allocate_inserts_each_corner_once_in_key_order(rng):
    g = FeatureGrid(voxel_sizes=(0.3,), feature_dim=8)
    pts = rng.uniform(-1, 1, size=(300, 3))
    g.allocate(pts)
    keys = np.unique(corner_keys(distinct_cells(pts, 0.3)[0]))
    # rows are handed out in insertion order, so row i holds the i-th smallest key
    assert np.array_equal(g.levels[0].vertices.lookup(keys), np.arange(keys.size))


def test_allocate_skips_nonfinite():
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    pts = np.array([[0.0, 0.0, 0.0], [np.nan, 0, 0], [0, np.inf, 0]])
    added, skipped = g.allocate(pts)
    assert skipped == 2
    assert added == g.levels[0].n_vertices + g.levels[1].n_vertices


def test_interpolation_matches_manual(rng):
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    pts = rng.uniform(-0.9, 0.9, size=(60, 3))
    g.allocate(pts)
    for lvl in g.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    loc = g.locate(pts)
    feats, _ = g.interpolate(loc)
    manual = np.zeros_like(feats)
    for li, lvl in enumerate(g.levels):
        rows, frac = record_rows(loc)[:, li], cell_of(pts, lvl.voxel_size)[1]
        w = trilinear_weights(frac)
        for n in range(pts.shape[0]):
            for c in range(8):
                manual[n] += w[n, c] * lvl.features[rows[n, c]]
    np.testing.assert_allclose(feats, manual, rtol=0, atol=1e-12)


def test_interpolation_is_exact_on_trilinear_functions(rng):
    """A field linear per-axis is reproduced exactly inside one cell."""
    g = FeatureGrid(voxel_sizes=(1.0,), feature_dim=1)
    pts = rng.random((40, 3))  # all inside cell [0,1)^3
    g.allocate(pts)
    coef = rng.standard_normal(3)
    lvl = g.levels[0]
    coords = unpack_key(lvl.vertices.keys).astype(np.float64)
    lvl.features[:, 0] = coords @ coef
    feats, _ = g.interpolate(g.locate(pts))
    np.testing.assert_allclose(feats[:, 0], pts @ coef, atol=1e-12)


def test_features_sum_over_levels(rng):
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=2)
    pts = rng.uniform(-0.5, 0.5, size=(30, 3))
    g.allocate(pts)
    for lvl in g.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    loc = g.locate(pts)
    total, _ = g.interpolate(loc)
    parts = []
    for li, lvl in enumerate(g.levels):
        rows, frac = record_rows(loc)[:, li], cell_of(pts, lvl.voxel_size)[1]
        w = trilinear_weights(frac)
        parts.append(np.einsum("nc,ncd->nd", w, lvl.features[rows]))
    np.testing.assert_allclose(total, parts[0] + parts[1], atol=1e-12)


def test_unallocated_query_raises():
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    g.allocate(np.zeros((1, 3)))
    with pytest.raises(UnallocatedQuery):
        g.locate(np.array([[50.0, 50.0, 50.0]]))


def test_voxels_allocated_mask(rng):
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    inside = rng.uniform(0.01, 0.29, size=(20, 3))  # one coarse voxel's interior
    g.allocate(inside)
    probe = np.vstack([inside[:3], [[40.0, 0, 0]]])
    mask = g.voxels_allocated(probe)
    assert mask.tolist() == [True, True, True, False]


def test_bounds_cover_allocations():
    g = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    pts = np.array([[0.0, 0.0, 0.0], [2.0, -1.0, 3.0]])
    g.allocate(pts)
    lo, hi = g.bounds()
    assert (lo <= pts.min(0)).all() and (hi >= pts.max(0)).all()


def test_interpolate_with_a_taken_record_matches_a_fresh_one(rng):
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    pts = rng.uniform(-1, 1, (200, 3))
    grid.allocate(pts)
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    rec = grid.locate(pts)
    idx = rng.integers(0, 200, size=300)  # repeats rows, as batch draws do
    want_rec, got_rec = grid.locate(pts[idx]), rec.take(idx)
    want, want_corners = grid.interpolate(want_rec)
    got, got_corners = grid.interpolate(got_rec)
    assert np.array_equal(got, want)
    for a, b in zip(got_corners, want_corners):
        assert np.array_equal(a, b)
    assert_same_record(got_rec, want_rec)


def assert_same_record(got, want):
    assert len(got.cells) == len(want.cells)
    for a, b in zip(got.cells, want.cells):
        assert np.array_equal(a, b)
    assert np.array_equal(got.cell_index, want.cell_index)
    assert np.array_equal(got.frac.view(np.uint64), want.frac.view(np.uint64))


def per_point_rows(vertices, voxel_size, pts):
    """Reference corner rows: eight coordinates packed and looked up for every point."""
    coords = cell_of(pts, voxel_size)[0][:, None, :] + CORNER_OFFSETS
    return vertices.lookup(pack_coords(coords)).reshape(-1, 8)


def level_rows(grid, pts, li):
    lvl = grid.levels[li]
    return per_point_rows(lvl.vertices, lvl.voxel_size, pts)


@pytest.fixture
def shared_cell_grid(rng):
    """A grid over a small region straddling the origin, and query points that
    share cells, repeat, sit exactly on cell faces, or fall outside it."""
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    clustered = rng.uniform(-0.6, 0.5, size=(400, 3))  # ~7 points per 0.3 m cell
    faces = np.array([[0.0, 0.0, 0.0], [-0.9, 0.45, 0.3], [0.9, -0.3, -0.45],
                      [0.6, 0.6, -0.6], [-0.45, -0.9, 0.0]])  # on 0.3 and/or 0.45 faces
    grid.allocate(np.vstack([clustered, faces]))
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    repeated = clustered[[3, 3, 17, 3, 250, 17]]
    inside = np.vstack([clustered, faces, repeated])
    # far away, far away, a repeat, and next to the allocated cells (some corners present)
    outside = np.array([[5.0, 5.0, 5.0], [-7.2, 0.1, 3.3], [5.0, 5.0, 5.0], [1.25, -0.25, -0.5]])
    return grid, inside, outside


def test_distinct_cells_broadcast_back_to_each_point(rng):
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(200, 3)), [[-0.3, 0.0, 0.6]] * 3])
    keys, inverse, frac = distinct_cells(pts, 0.3)
    base, want_frac = cell_of(pts, 0.3)
    assert np.array_equal(keys[inverse], pack_coords(base))
    assert np.array_equal(frac, want_frac)
    assert keys.shape[0] == np.unique(base, axis=0).shape[0] < pts.shape[0]


def test_locate_matches_per_point_lookup(shared_cell_grid):
    grid, inside, outside = shared_cell_grid
    rec = grid.locate(inside)
    assert rec.frac.flags.c_contiguous  # so take copies each point's fractions as one row
    pts = np.vstack([inside[:50], outside, inside[50:]])
    for li, lvl in enumerate(grid.levels):
        frac = cell_of(inside, lvl.voxel_size)[1]
        assert np.array_equal(record_rows(rec)[:, li], level_rows(grid, inside, li))
        assert np.array_equal(rec.frac[:, li].view(np.uint64), frac.view(np.uint64))
        # outside points keep their -1 rows in the lookup `locate` makes
        rows, inverse, _ = cell_rows(lvl.vertices, lvl.voxel_size, pts)
        want = level_rows(grid, pts, li)
        assert np.array_equal(rows[inverse], want)
        assert (want[50:54] == -1).any(axis=1).all()
        assert (want[:50] >= 0).all()
    assert not grid.voxels_allocated(outside).any()
    assert (level_rows(grid, outside[3:], 0) >= 0).any()  # a partly allocated cell


def test_voxels_allocated_matches_per_point_lookup(shared_cell_grid):
    grid, inside, outside = shared_cell_grid
    pts = np.vstack([outside[:2], inside, outside[2:]])
    want = np.ones(pts.shape[0], dtype=bool)
    for li in range(grid.n_levels):
        want &= (level_rows(grid, pts, li) >= 0).all(axis=1)
    got = grid.voxels_allocated(pts)
    assert np.array_equal(got, want)
    assert got[2:-2].all() and not got[[0, 1, -2, -1]].any()


def test_fresh_interpolate_matches_per_point_lookup(shared_cell_grid):
    grid, inside, _ = shared_cell_grid
    rec = grid.locate(inside)
    feats, corners = grid.interpolate(rec)
    want = np.zeros((inside.shape[0], grid.feature_dim))
    for li, lvl in enumerate(grid.levels):
        rows = level_rows(grid, inside, li)
        frac = cell_of(inside, lvl.voxel_size)[1]
        want += np.einsum("nc,ncd->nd", trilinear_weights(frac), lvl.features[rows])
        assert np.array_equal(record_rows(rec)[:, li], rows)
        assert np.array_equal(corners[li], lvl.features[rows])
    assert np.array_equal(feats, want)


def test_taken_record_matches_locating_the_subset(shared_cell_grid, rng):
    grid, pts, _ = shared_cell_grid
    union = grid.locate(pts)
    for idx in (rng.integers(0, pts.shape[0], size=120),  # repeats, some cells left out
                np.array([3, 3, 3]), np.arange(pts.shape[0])[::-1]):
        taken, fresh = union.take(idx), grid.locate(pts[idx])
        assert_same_record(taken, fresh)
        for li in range(grid.n_levels):
            # only the cells of points[idx] are kept
            assert np.array_equal(np.unique(taken.cell_index[:, li]),
                                  np.arange(taken.cells[li].shape[0]))
            assert np.array_equal(record_rows(taken)[:, li], level_rows(grid, pts[idx], li))
    idx = rng.integers(0, pts.shape[0], size=120)
    got, _ = grid.interpolate(union.take(idx))
    want, _ = grid.interpolate(grid.locate(pts[idx]))
    assert np.array_equal(got, want)


def test_taken_and_lattice_records_carry_locates_fractions_bitwise(shared_cell_grid, rng):
    grid, pts, _ = shared_cell_grid
    union = grid.locate(pts)
    idx = rng.integers(0, pts.shape[0], size=300)
    taken = union.take(idx)
    for want in (grid.locate(pts[idx]).frac, union.frac[idx]):
        assert np.array_equal(taken.frac.view(np.uint64), want.view(np.uint64))
    # a lattice straddling the map's edge: its fractions come per axis, never from a node
    axes = [np.linspace(-0.93, 0.81, 29), np.linspace(-0.77, 0.95, 31), np.linspace(-0.88, 0.7, 27)]
    ok, lattice = grid.locate_lattice(axes, np.arange(29 * 31 * 27))
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    assert 0 < ok.sum() < ok.size
    want = grid.locate(nodes[ok]).frac
    assert np.array_equal(lattice.frac.view(np.uint64), want.view(np.uint64))
    for li, lvl in enumerate(grid.levels):
        frac = cell_of(nodes[ok], lvl.voxel_size)[1]
        assert np.array_equal(lattice.frac[:, li].view(np.uint64), frac.view(np.uint64))


def test_unallocated_query_names_the_first_bad_point(shared_cell_grid):
    grid, inside, outside = shared_cell_grid
    pts = np.vstack([inside[:20], outside[1:], inside[20:40], outside[:1]])
    with pytest.raises(UnallocatedQuery, match=re.escape(f"point {outside[1].tolist()} ")):
        grid.locate(pts)


def test_query_sigma_matches_per_point_lookup(shared_cell_grid, rng):
    _, inside, outside = shared_cell_grid
    field = PerturbField(grid_size=0.45, gamma=1.5)
    field.accumulate(inside[:300], rng.standard_normal((300, 3)))
    pts = np.vstack([outside[:2], inside, outside[2:]])
    rows = per_point_rows(field.vertices, 0.45, pts)
    fisher = np.where((rows >= 0)[:, :, None], field.fisher[rows], 0.0)
    var = 1.0 / (fisher + 1.5 ** -2)
    w = trilinear_weights(cell_of(pts, 0.45)[1])
    want = np.linalg.norm(np.einsum("nc,nci->ni", w, var), axis=1)
    assert np.array_equal(field.query_sigma(pts), want)
    assert (rows[:2] < 0).all() and (rows[2:-2] >= 0).any()


@pytest.mark.parametrize("lo, hi", [(-1000, 0), (-COORD_LIMIT, -COORD_LIMIT + 3),
                                    (COORD_LIMIT - 4, COORD_LIMIT - 1)])
def test_corner_keys_of_cell_keys_pack_each_corner(rng, lo, hi):
    """Key arithmetic equals packing each corner, down to both ends of the packable range."""
    cells = rng.integers(lo, hi, size=(40, 3))
    cells[0] = lo
    cells[1] = hi - 1  # COORD_LIMIT - 2 in the last case: its +1 corner is the last packable
    keys = corner_keys(cell_keys(cells))
    for c, off in enumerate(CORNER_OFFSETS):
        assert np.array_equal(keys[:, c], pack_coords(cells + off))


def test_cell_whose_far_corner_does_not_pack_is_rejected():
    """Cell COORD_LIMIT - 1 packs but its +1 corner does not; adding steps to its
    key would carry into the next axis, so every path raises instead."""
    edge = np.array([[0.5, 0.5, COORD_LIMIT - 0.5]])  # cell (0, 0, COORD_LIMIT - 1)
    grid = FeatureGrid(voxel_sizes=(1.0,), feature_dim=2)
    grid.allocate(np.zeros((1, 3)))
    calls = [lambda: grid.allocate(edge), lambda: grid.locate(edge),
             lambda: grid.voxels_allocated(edge),
             lambda: PerturbField(grid_size=1.0, gamma=1.0).accumulate(edge, np.ones((1, 3))),
             lambda: PerturbField(grid_size=1.0, gamma=1.0).query_sigma(edge)]
    for call in calls:
        with pytest.raises(ValueError, match="^grid coordinate outside packable range$"):
            call()
    assert grid.n_vertices == 8


def test_unallocated_query_names_the_first_level_with_a_miss():
    """The first level with a miss is named, then its first bad point, even if an
    earlier point misses only at a later level."""
    grid = FeatureGrid(voxel_sizes=(1.0, 2.0), feature_dim=2)
    grid.allocate(np.array([[0.5, 0.5, 0.5]]))
    lvl = grid.levels[0]  # level 0 alone also holds cell (2, 0, 0)
    lvl.vertices.insert(pack_coords(np.array([2, 0, 0]) + CORNER_OFFSETS))
    lvl.ensure_rows(lvl.n_vertices)
    ok, level1_miss, far = [0.5, 0.5, 0.5], [2.5, 0.5, 0.5], [9.0, 9.0, 9.0]
    for pts, bad, level in (([ok, level1_miss], level1_miss, 1),
                            ([ok, level1_miss, far], far, 0),
                            ([far, ok, level1_miss], far, 0)):
        message = re.escape(f"point {bad} lies in an unallocated voxel at level {level}")
        with pytest.raises(UnallocatedQuery, match=f"^{message}$"):
            grid.locate(np.array(pts))
