import numpy as np
import pytest

from tsdfmap.decoder import SdfDecoder
from tsdfmap.errors import EmptyMap, NoSurface
from tsdfmap.field import NeuralSdfField
from tsdfmap.grid import FeatureGrid
from tsdfmap.kernels.mc_tables import CASE_EDGES, CASE_TRIANGLES
from tsdfmap.mesher import (
    SdfGrid,
    TriMesh,
    eval_sdf_grid,
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


class StubField:
    """Analytic field with a restricted allocated region."""

    def __init__(self, fn, box):
        self.fn = fn
        self.box = np.asarray(box, dtype=np.float64)
        self.grid = self  # mesher reads allocation through field.grid

    def predict(self, pts):
        return self.fn(np.asarray(pts)), None

    def voxels_allocated(self, pts):
        p = np.asarray(pts)
        return ((p >= self.box[0]) & (p <= self.box[1])).all(axis=1)

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


def test_eval_sdf_grid_batch_size_keeps_the_mask_and_the_values(rng):
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    field = NeuralSdfField(grid, SdfDecoder(feature_dim=4, hidden_units=16, rng=rng))
    grid.allocate(rng.uniform(-1.0, 1.0, size=(200, 3)))
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    bounds = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    small = eval_sdf_grid(field, bounds, spacing=0.05, batch_size=1000)
    default = eval_sdf_grid(field, bounds, spacing=0.05)
    assert 1000 < default.valid.sum() < default.valid.size
    np.testing.assert_array_equal(small.valid, default.valid)
    # the batch size may move a value in its last bits, no more
    np.testing.assert_allclose(small.values[small.valid], default.values[default.valid],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch_size", [0, -5])
def test_bad_batch_size_is_named(batch_size):
    f = StubField(sphere_sdf((0, 0, 0), 0.5), ((-0.8, -0.8, -0.8), (0.8, 0.8, 0.8)))
    with pytest.raises(ValueError, match="batch_size must be a positive node count"):
        eval_sdf_grid(f, f.bounds(), spacing=0.2, batch_size=batch_size)


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
