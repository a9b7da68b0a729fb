import tracemalloc

import numpy as np
import pytest

from tsdfmap import mesher
from tsdfmap.config import RunConfig
from tsdfmap.decoder import SdfDecoder
from tsdfmap.errors import EmptyMap, NoSurface
from tsdfmap.field import NeuralSdfField
from tsdfmap.grid import CORNER_OFFSETS, FeatureGrid, cell_of
from tsdfmap.hashmap import pack_coords
from tsdfmap.kernels.march import EDGE_AXIS, EDGE_BASE, classify_cells, emit
from tsdfmap.kernels.mc_tables import CASE_EDGES, CASE_TRIANGLES, EDGE_CORNERS, MC_CORNERS
from tsdfmap.mesher import (
    SdfGrid,
    TriMesh,
    _node_grid,
    edge_keys,
    eval_sdf_grid,
    extract_map_mesh,
    extract_mesh,
    load_mesh,
    sdf_grid_from_function,
    write_mesh,
)


def sphere_sdf(c, r):
    c = np.asarray(c, dtype=np.float64)
    return lambda p: np.linalg.norm(p - c, axis=1) - r


def signed_volume(mesh):
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum()) / 6.0


def test_case_tables_are_consistent():
    # the edge mask of each case is exactly the union of its triangle edges
    for case in range(256):
        tris = CASE_TRIANGLES[case]
        used = set(int(e) for e in tris if e >= 0)
        mask = int(CASE_EDGES[case])
        assert used == {e for e in range(12) if mask >> e & 1}
    # complementary cases intersect the same edges
    for case in range(256):
        assert CASE_EDGES[case] == CASE_EDGES[255 - case]
    # every triangle names three distinct edges of its cell, and a cell's
    # edges have distinct weld keys, so no face can repeat a vertex
    tris = CASE_TRIANGLES[CASE_TRIANGLES >= 0].reshape(-1, 3)
    assert tris.shape[0] == 820
    assert ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
            & (tris[:, 0] != tris[:, 2])).all()
    ends = MC_CORNERS[EDGE_CORNERS]
    for dims in ((2, 2, 2), (5, 2, 3), (4, 3, 2), (3, 7, 11), (9, 17, 4)):
        strides, edge_key = edge_keys(dims)
        assert np.unique(edge_key).size == 12
        assert np.array_equal(strides, np.ravel_multi_index(np.eye(3, dtype=int), dims))
        # edge e's key names its lower corner and its axis
        base = np.stack(np.unravel_index(edge_key // 3, dims), axis=1)
        upper = base + np.eye(3, dtype=int)[edge_key % 3]
        assert np.array_equal(np.minimum(ends[:, 0], ends[:, 1]), base)
        assert np.array_equal(np.maximum(ends[:, 0], ends[:, 1]), upper)


def test_sphere_mesh_radius_and_volume(rng):
    fn = sphere_sdf((0.0, 0.0, 0.0), 1.0)
    grid = sdf_grid_from_function(fn, ((-1.6, -1.6, -1.6), (1.6, 1.6, 1.6)),
                                  spacing=0.05)
    mesh = extract_mesh(grid)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert abs(r.mean() - 1.0) < 2e-3
    assert np.abs(r - 1.0).max() < 2.5e-3  # interpolation error O(h^2)
    vol = signed_volume(mesh)
    assert abs(vol - 4.0 * np.pi / 3.0) / (4.0 * np.pi / 3.0) < 0.01
    assert vol > 0  # outward orientation


def test_plane_mesh_is_exact(rng):
    # f = z - 0.275: crossing inside cells, off the lattice
    fn = lambda p: p[:, 2] - 0.275
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (1, 1, 1)), spacing=0.1)
    mesh = extract_mesh(grid)
    np.testing.assert_allclose(mesh.vertices[:, 2], 0.275, atol=1e-12)
    # area equals the slab cross-section
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    assert area == pytest.approx(1.0, abs=1e-9)


def test_plane_normals_face_positive_side():
    fn = lambda p: p[:, 2] - 0.275
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (1, 1, 1)), spacing=0.1)
    mesh = extract_mesh(grid)
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    n = np.cross(b - a, c - a)
    assert (n[:, 2] > 0).all()


def test_no_surface_raises():
    fn = lambda p: np.full(p.shape[0], 2.0)
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (1, 1, 1)), spacing=0.25)
    with pytest.raises(NoSurface):
        extract_mesh(grid)


def test_all_negative_raises_no_surface():
    fn = lambda p: np.full(p.shape[0], -1.0)
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (1, 1, 1)), spacing=0.25)
    with pytest.raises(NoSurface):
        extract_mesh(grid)


def test_vertices_are_welded(rng):
    fn = sphere_sdf((0.05, -0.03, 0.02), 0.8)
    grid = sdf_grid_from_function(fn, ((-1.3, -1.3, -1.3), (1.3, 1.3, 1.3)),
                                  spacing=0.1)
    mesh = extract_mesh(grid)
    uniq = np.unique(mesh.vertices, axis=0)
    assert uniq.shape[0] == mesh.n_vertices
    # every vertex is referenced
    assert np.unique(mesh.faces).size == mesh.n_vertices


def test_no_degenerate_triangles(rng):
    fn = sphere_sdf((0.0, 0.0, 0.0), 0.75)
    grid = sdf_grid_from_function(fn, ((-1.05, -1.05, -1.05), (1.2, 1.2, 1.2)),
                                  spacing=0.15)
    mesh = extract_mesh(grid)
    f = mesh.faces
    assert (f[:, 0] != f[:, 1]).all()
    assert (f[:, 1] != f[:, 2]).all()
    assert (f[:, 0] != f[:, 2]).all()
    a, b, c = (mesh.vertices[f[:, i]] for i in range(3))
    area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    assert (area2 > 0).all()


def test_invalid_cells_are_masked():
    # two disjoint valid blocks; surface only extracted where valid
    fn = lambda p: p[:, 2] - 0.5
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (2, 1, 1)), spacing=0.25)
    grid.valid[grid.dims[0] // 2:] = False  # invalidate the x > 1 half
    mesh = extract_mesh(grid)
    assert mesh.vertices[:, 0].max() <= 1.0 + 1e-9


def test_fully_invalid_grid_raises_no_surface():
    fn = lambda p: p[:, 2] - 0.5
    grid = sdf_grid_from_function(fn, ((0, 0, 0), (1, 1, 1)), spacing=0.25)
    grid.valid[:] = False
    with pytest.raises(NoSurface):
        extract_mesh(grid)


def reference_weld(grid):
    """`extract_mesh` with its former weld: per-corner (t, 3, 3) base nodes and
    keys, per-vertex coordinate rows, a duplicate-corner filter, and a second
    `np.unique` to compact the used vertices. Returns the mesh and the number
    of triangles the area filter dropped."""
    values, valid = grid.values, grid.valid
    nx, ny, nz = values.shape
    cell_ids, cases = classify_cells(values, valid)
    tri_cell, tri_edges = emit(cases)
    cx, cy, cz = np.unravel_index(cell_ids, (nx - 1, ny - 1, nz - 1))
    cell_coords = np.stack([cx, cy, cz], axis=1)
    base = cell_coords[tri_cell][:, None, :] + EDGE_BASE[tri_edges]
    axis = EDGE_AXIS[tri_edges]
    lin = (base[..., 0] * ny + base[..., 1]) * nz + base[..., 2]
    keys = lin * 3 + axis
    ukeys, inv = np.unique(keys.ravel(), return_inverse=True)
    faces = inv.reshape(-1, 3)
    uaxis = ukeys % 3
    ulin = ukeys // 3
    a = np.stack([ulin // (ny * nz), (ulin // nz) % ny, ulin % nz], axis=1)
    step = np.zeros((ukeys.shape[0], 3), dtype=np.int64)
    step[np.arange(ukeys.shape[0]), uaxis] = 1
    b = a + step
    va = values[a[:, 0], a[:, 1], a[:, 2]]
    vb = values[b[:, 0], b[:, 1], b[:, 2]]
    t = va / (va - vb)
    verts = grid.origin + (a + t[:, None] * step) * grid.spacing
    faces = faces[:, ::-1]
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cr = np.cross(p1 - p0, p2 - p0)
    area2 = np.einsum("ij,ij->i", cr, cr)
    dup = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 0] == faces[:, 2])
    assert not dup.any()
    faces = faces[(~dup) & (area2 > 0.0)]
    used, faces_flat = np.unique(faces.ravel(), return_inverse=True)
    dropped = tri_cell.size - faces.shape[0]
    return TriMesh(vertices=verts[used], faces=faces_flat.reshape(-1, 3)), dropped


def sphere_grid(spacing):
    return sdf_grid_from_function(sphere_sdf((0.05, -0.03, 0.02), 0.8),
                                  ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), spacing)


def zero_node_grid():
    """Values in {-1, 0, 1}: a zero node cut along several edges puts their
    vertices on one point, so some triangles have zero area."""
    rng = np.random.default_rng(11)
    values = rng.integers(-1, 2, size=(13, 9, 11)).astype(np.float64)
    return SdfGrid(np.array([0.1, -0.2, 0.3]), 0.07, values, np.ones(values.shape, dtype=bool))


def partly_invalid_grid():
    grid = sdf_grid_from_function(sphere_sdf((0.1, 0.0, -0.1), 0.613),
                                  ((-0.9, -0.8, -0.85), (1.0, 0.7, 0.9)), 0.05)
    grid.valid[: grid.dims[0] // 3] = False
    grid.valid[np.random.default_rng(2).random(grid.dims) < 0.02] = False
    return grid


@pytest.mark.parametrize("make_grid, zero_area", [
    (lambda: sphere_grid(0.04), False),
    (lambda: sdf_grid_from_function(sphere_sdf((0.0, 0.1, 0.0), 0.7),  # 54 x 40 x 36 nodes
                                    ((-1.0, -0.8, -0.75), (1.3, 0.9, 0.8)), 0.043), False),
    (partly_invalid_grid, False),
    (zero_node_grid, True),
], ids=["sphere", "non-cubic", "partly-invalid", "zero-nodes"])
def test_weld_equals_the_per_corner_reference_bitwise(make_grid, zero_area):
    grid = make_grid()
    want, dropped = reference_weld(grid)
    got = extract_mesh(grid)
    assert want.n_faces > 0
    assert got.vertices.dtype == want.vertices.dtype and got.faces.dtype == want.faces.dtype
    assert np.array_equal(got.vertices.view(np.uint64), want.vertices.view(np.uint64))
    assert np.array_equal(got.faces, want.faces)
    assert (dropped > 0) == zero_area


def test_weld_holds_no_per_corner_coordinates():
    grid = sphere_grid(0.03)
    triangles = emit(classify_cells(grid.values, grid.valid)[1])[0].size
    tracemalloc.start()
    try:
        extract_mesh(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a weld with int64 (t, 3, 3) corner coordinates and their edge offsets
    # peaks at about 560 bytes a candidate triangle here; keying each corner
    # by one add peaks at about 350
    assert peak < 450 * triangles


def test_zero_area_filter_holds_one_block_of_corners():
    grid = sphere_grid(0.03)
    triangles = emit(classify_cells(grid.values, grid.valid)[1])[0].size
    tracemalloc.start()
    try:
        extract_mesh(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three corner arrays, two differences and a cross product of every face
    # at once peak at about 350 bytes a candidate triangle here; one
    # `row_blocks` block of faces at a time at about 240
    assert peak < 300 * triangles


class StubField:
    """Analytic field with a restricted allocated region."""

    def __init__(self, fn, box):
        self.fn = fn
        self.box = np.asarray(box, dtype=np.float64)
        self.grid = self  # mesher reads allocation through field.grid

    def sdf(self, record):
        return self.fn(record)

    def locate_lattice(self, axes, nodes):
        """The nodes inside the box; their coordinates stand for the record."""
        ijk = np.unravel_index(nodes, tuple(len(a) for a in axes))
        p = np.stack([a[i] for a, i in zip(axes, ijk)], axis=1)
        ok = ((p >= self.box[0]) & (p <= self.box[1])).all(axis=1)
        return ok, p[ok]

    def bounds(self):
        return self.box[0], self.box[1]


def test_eval_sdf_grid_masks_unallocated():
    f = StubField(sphere_sdf((0, 0, 0), 0.5), ((-0.8, -0.8, -0.8), (0.8, 0.8, 0.8)))
    grid = eval_sdf_grid(f, ((-2, -2, -2), (2, 2, 2)), spacing=0.2)
    pts_ok = grid.valid.sum()
    assert 0 < pts_ok < grid.valid.size
    assert np.isnan(grid.values[~grid.valid]).all()
    mesh = extract_mesh(grid)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(r - 0.5).max() < 0.02


def test_eval_sdf_grid_empty_map():
    f = StubField(sphere_sdf((0, 0, 0), 0.5), ((5, 5, 5), (6, 6, 6)))
    with pytest.raises(EmptyMap):
        eval_sdf_grid(f, ((-1, -1, -1), (1, 1, 1)), spacing=0.5)


def test_eval_sdf_grid_batch_size_keeps_the_mask_and_the_values(rng, monkeypatch):
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    field = NeuralSdfField(grid, SdfDecoder(feature_dim=4, hidden_units=16, rng=rng))
    grid.allocate(rng.uniform(-1.0, 1.0, size=(200, 3)))
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    bounds = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    default = eval_sdf_grid(field, bounds, spacing=0.05)
    monkeypatch.setattr(mesher, "NODE_BATCH", 1000)
    small = eval_sdf_grid(field, bounds, spacing=0.05)
    assert 1000 < default.valid.sum() < default.valid.size
    np.testing.assert_array_equal(small.valid, default.valid)
    # the batch size may move a value in its last bits, no more
    np.testing.assert_allclose(small.values[small.valid], default.values[default.valid],
                               rtol=0, atol=1e-12)


def test_map_mesh_default_spacing_is_the_run_configs():
    """`extract_map_mesh`'s default and `tsdfmap mesh`'s are one value."""
    f = StubField(sphere_sdf((0.02, -0.01, 0.03), 0.5), ((-0.8, -0.8, -0.8), (0.8, 0.8, 0.8)))
    default = extract_map_mesh(f)
    configured = extract_map_mesh(f, spacing=RunConfig().mesh.spacing)
    assert np.array_equal(default.vertices, configured.vertices)
    assert np.array_equal(default.faces, configured.faces)
    # another spacing gives another mesh, so the comparison can fail
    assert extract_map_mesh(f, spacing=0.07).n_vertices != default.n_vertices


def dense_sdf_grid(field, bounds, spacing, batch_size):
    """The mesher's former dense path: every node's coordinates, then
    `voxels_allocated` and a fresh `predict` per batch."""
    lo, dims, axes = _node_grid(bounds, spacing)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    valid = np.zeros(nodes.shape[0], dtype=bool)
    values = np.full(nodes.shape[0], np.nan)
    for s in range(0, nodes.shape[0], batch_size):
        chunk = nodes[s : s + batch_size]
        ok = field.grid.voxels_allocated(chunk)
        valid[s : s + batch_size] = ok
        if ok.any():
            preds, _ = field.predict(field.grid.locate(chunk[ok]))
            values[s + np.flatnonzero(ok)] = preds
    shape = tuple(dims)
    return SdfGrid(lo, float(spacing), values.reshape(shape), valid.reshape(shape))


@pytest.fixture(scope="module")
def lattice_field():
    """A two-level map with a cluster straddling zero, one below zero on every
    axis, and one level-0 cell, (3, 0, 0), whose level-1 cell is unallocated."""
    rng = np.random.default_rng(7)
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    field = NeuralSdfField(grid, SdfDecoder(feature_dim=4, hidden_units=16, rng=rng))
    grid.allocate(np.vstack([rng.uniform(-0.7, 0.6, size=(600, 3)),
                             rng.uniform(-2.4, -1.6, size=(300, 3))]))
    lvl = grid.levels[0]
    lvl.vertices.insert(pack_coords(np.array([3, 0, 0]) + CORNER_OFFSETS))
    lvl.ensure_rows(lvl.n_vertices)
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    return field


def assert_same_sdf_grid(got, want):
    assert np.array_equal(got.origin, want.origin) and got.spacing == want.spacing
    assert np.array_equal(got.valid, want.valid)
    assert np.array_equal(np.isnan(got.values), ~want.valid)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


@pytest.mark.parametrize("bounds, spacing, batch_size", [
    (((-0.83, -0.71, -0.77), (0.69, 0.74, 0.58)), 0.05, 1000),  # straddles zero, off cells
    (((-0.83, -0.71, -0.77), (0.69, 0.74, 0.58)), 0.05, 65536),
    (((-0.83, -0.71, -0.77), (0.69, 0.74, 0.58)), 0.10, 7),
    (((-0.83, -0.71, -0.77), (0.69, 0.74, 0.58)), 0.50, 7),  # coarser than both levels
    (((-2.57, -2.49, -2.61), (-1.43, -1.52, -1.47)), 0.05, 1000),  # all negative
    (((-2.57, -2.49, -2.61), (-1.43, -1.52, -1.47)), 0.10, 7),
    (((-2.6, -2.6, -2.6), (1.3, 0.7, 0.7)), 0.10, 65536),  # both clusters
    (((-2.6, -2.6, -2.6), (1.3, 0.7, 0.7)), 0.50, 1000),
    (((0.65, -0.13, -0.11), (1.45, 0.37, 0.33)), 0.05, 7),  # the level-0-only cell
])
def test_eval_sdf_grid_equals_the_dense_path_bitwise(lattice_field, bounds, spacing,
                                                     batch_size, monkeypatch):
    want = dense_sdf_grid(lattice_field, bounds, spacing, batch_size)
    monkeypatch.setattr(mesher, "NODE_BATCH", batch_size)
    got = eval_sdf_grid(lattice_field, bounds, spacing)
    assert 0 < want.valid.sum() < want.valid.size
    assert_same_sdf_grid(got, want)


def test_lattice_nodes_valid_at_level_0_only_stay_invalid(lattice_field, monkeypatch):
    bounds = ((0.65, -0.13, -0.11), (1.45, 0.37, 0.33))
    monkeypatch.setattr(mesher, "NODE_BATCH", 7)
    got = eval_sdf_grid(lattice_field, bounds, spacing=0.05)
    lo, dims, axes = _node_grid(bounds, 0.05)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    per_level = []
    for lvl in lattice_field.grid.levels:
        coords = cell_of(nodes, lvl.voxel_size)[0][:, None, :] + CORNER_OFFSETS
        per_level.append((lvl.vertices.lookup(pack_coords(coords)).reshape(-1, 8) >= 0)
                         .all(axis=1))
    level0_only = per_level[0] & ~per_level[1]
    assert level0_only.any() and (per_level[0] & per_level[1]).any()
    assert np.array_equal(got.valid.reshape(-1), per_level[0] & per_level[1])


def test_locate_lattice_is_locate_of_the_valid_nodes(lattice_field):
    grid = lattice_field.grid
    lo, dims, axes = _node_grid(((-0.83, -0.71, -0.77), (0.69, 0.74, 1.4)), 0.1)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    chunk = np.arange(37, 2100)  # starts and ends mid-row
    ok, record = grid.locate_lattice(axes, chunk)
    assert np.array_equal(ok, grid.voxels_allocated(nodes[chunk]))
    want = grid.locate(nodes[chunk][ok])
    for li in range(grid.n_levels):
        assert np.array_equal(record.cells[li][record.cell_index[:, li]],
                              want.cells[li][want.cell_index[:, li]])
        # only the cells of valid nodes, each once, in key order
        assert np.array_equal(np.unique(record.cell_index[:, li]),
                              np.arange(record.cells[li].shape[0]))
        assert record.cells[li].shape == want.cells[li].shape
    assert np.array_equal(record.frac.view(np.uint64), want.frac.view(np.uint64))
    assert record.frac.flags.c_contiguous


def test_eval_sdf_grid_holds_no_box_of_coordinates(lattice_field):
    bounds = ((-3.0, -3.0, -3.0), (3.3, 3.3, 3.3))  # 127^3 = 2.05 M nodes at 0.05 m
    tracemalloc.start()
    try:
        got = eval_sdf_grid(lattice_field, bounds, spacing=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = got.valid.size
    assert nodes >= 2_000_000 and got.valid.any()
    # a (nodes, 3) float64 coordinate array alone would take 24 bytes a node
    assert peak < 24 * nodes


def test_eval_sdf_grid_holds_no_decoder_cache(monkeypatch):
    rng = np.random.default_rng(3)
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    ax = np.arange(-1.0, 1.01, 0.1)
    grid.allocate(np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3))
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    dec = SdfDecoder(feature_dim=4, hidden_units=128, rng=rng)
    batch = 16384
    monkeypatch.setattr(mesher, "NODE_BATCH", batch)
    tracemalloc.start()
    try:
        got = eval_sdf_grid(NeuralSdfField(grid, dec), ((-0.9,) * 3, (0.9,) * 3), spacing=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.valid.all() and got.valid.size > 3 * batch
    # a full batch's forward cache (x, z1, a1, z2, a2) alone would take this
    cache_bytes = batch * 8 * (dec.feature_dim + 4 * dec.hidden_units)
    assert peak - got.values.nbytes - got.valid.nbytes < cache_bytes


@pytest.mark.parametrize("spacing", [0.0, -0.1, float("nan"), float("inf")])
def test_bad_spacing_is_named(spacing):
    f = StubField(sphere_sdf((0, 0, 0), 0.5), ((-0.8, -0.8, -0.8), (0.8, 0.8, 0.8)))
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        eval_sdf_grid(f, f.bounds(), spacing=spacing)
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        sdf_grid_from_function(sphere_sdf((0, 0, 0), 0.5), f.bounds(), spacing=spacing)


def test_mesh_ply_roundtrip_bitwise(tmp_path, rng):
    fn = sphere_sdf((0, 0, 0), 0.6)
    grid = sdf_grid_from_function(fn, ((-1, -1, -1), (1, 1, 1)), spacing=0.2)
    mesh = extract_mesh(grid)
    for binary in (True, False):
        path = tmp_path / f"m_{binary}.ply"
        write_mesh(mesh, path, binary=binary)
        back = load_mesh(path)
        # storage is float32; the round trip must be exact at that width
        np.testing.assert_array_equal(back.vertices.astype(np.float32),
                                      mesh.vertices.astype(np.float32))
        np.testing.assert_array_equal(back.faces, mesh.faces)


def test_trimesh_counts():
    m = TriMesh(np.zeros((4, 3)), np.array([[0, 1, 2], [0, 2, 3]]))
    assert m.n_vertices == 4 and m.n_faces == 2
