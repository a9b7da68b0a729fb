import re
import tracemalloc

import numpy as np
import pytest

from grid_helpers import record_rows
from one_blas_thread import run_at_one_thread
from tsdfmap.decoder import BLOCK_ROWS, PARAM_NAMES, SdfDecoder
from tsdfmap.errors import UnallocatedQuery
from tsdfmap.field import NeuralSdfField
from tsdfmap.grid import (CORNER_OFFSETS, FeatureGrid, cell_of, trilinear_weight_gradients,
                          trilinear_weights)
from tsdfmap.hashmap import pack_coords


def make_field(rng, feature_dim=4, hidden=6):
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=feature_dim)
    dec = SdfDecoder(feature_dim=feature_dim, hidden_units=hidden, rng=rng)
    field = NeuralSdfField(grid, dec)
    pts = rng.uniform(-0.7, 0.7, size=(40, 3))
    grid.allocate(pts)
    for lvl in grid.levels:
        lvl.features[:] = 0.1 * rng.standard_normal(lvl.features.shape)
    return field, pts


def total_loss(field, pts, labels):
    preds, _ = field.predict(field.grid.locate(pts))
    r = preds - labels
    return float(r @ r) / r.size


def test_predict_composes_interpolate_and_decode(rng):
    field, pts = make_field(rng)
    record = field.grid.locate(pts)
    preds, cache = field.predict(record)
    feats, _ = field.grid.interpolate(record)
    expect, _ = field.decoder.forward(feats)
    np.testing.assert_array_equal(preds, expect)
    assert cache.preds is preds


def test_sdf_is_predict_without_the_cache_bitwise(rng):
    field, pts = make_field(rng, feature_dim=8, hidden=32)
    record = field.grid.locate(pts)
    preds, _ = field.predict(record)
    assert field.sdf(record).tobytes() == preds.tobytes()


def test_backward_mse_loss_value(rng):
    field, pts = make_field(rng)
    labels = rng.standard_normal(pts.shape[0])
    preds, cache = field.predict(field.grid.locate(pts))
    loss, _ = field.backward_mse(cache, labels)
    assert loss == pytest.approx(np.mean((preds - labels) ** 2), abs=1e-15)


def test_decoder_gradients_match_finite_differences(rng):
    field, pts = make_field(rng)
    labels = rng.standard_normal(pts.shape[0])
    _, cache = field.predict(field.grid.locate(pts))
    _, store = field.backward_mse(cache, labels)
    h = 1e-6
    for name in PARAM_NAMES:
        p = field.decoder.params[name]
        flat = p.reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 7)):
            keep = flat[i]
            flat[i] = keep + h
            fp = total_loss(field, pts, labels)
            flat[i] = keep - h
            fm = total_loss(field, pts, labels)
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            a = store.decoder[name].reshape(-1)[i]
            assert abs(a - fd) / max(1.0, abs(a), abs(fd)) < 1e-7


def test_feature_gradients_match_finite_differences(rng):
    field, pts = make_field(rng)
    labels = rng.standard_normal(pts.shape[0])
    _, cache = field.predict(field.grid.locate(pts))
    _, store = field.backward_mse(cache, labels)
    h = 1e-6
    for li, lvl in enumerate(field.grid.levels):
        rows = store.level_rows[li]
        grads = store.level_grads[li]
        pick = rng.choice(rows.size, size=min(10, rows.size), replace=False)
        for idx in pick:
            r = rows[idx]
            for d in range(lvl.features.shape[1]):
                keep = lvl.features[r, d]
                lvl.features[r, d] = keep + h
                fp = total_loss(field, pts, labels)
                lvl.features[r, d] = keep - h
                fm = total_loss(field, pts, labels)
                lvl.features[r, d] = keep
                fd = (fp - fm) / (2 * h)
                a = grads[idx, d]
                assert abs(a - fd) / max(1.0, abs(a), abs(fd)) < 1e-7


def test_gradient_rows_cover_all_touched_vertices(rng):
    field, pts = make_field(rng)
    labels = np.zeros(pts.shape[0])
    _, cache = field.predict(field.grid.locate(pts))
    _, store = field.backward_mse(cache, labels)
    for li in range(2):
        rows = record_rows(field.grid.locate(pts))[:, li]
        assert np.array_equal(store.level_rows[li], np.unique(rows))


def test_zero_residual_gives_zero_gradients(rng):
    field, pts = make_field(rng)
    preds, cache = field.predict(field.grid.locate(pts))
    loss, store = field.backward_mse(cache, preds.copy())
    assert loss == 0.0
    for name in PARAM_NAMES:
        assert not store.decoder[name].any()
    for g in store.level_grads:
        assert not g.any()


def test_spatial_gradient_matches_finite_differences(rng):
    field, _ = make_field(rng, feature_dim=8, hidden=16)
    # probe strictly inside cells so the FD step cannot cross a voxel face
    probes = np.array([[0.11, 0.12, 0.13], [-0.22, 0.08, 0.31], [0.05, -0.41, 0.17]])
    field.grid.allocate(probes)
    for lvl in field.grid.levels:
        lvl.features[:] = 0.1 * np.random.default_rng(8).standard_normal(
            lvl.features.shape)
    grad = field.spatial_gradient(field.grid.locate(probes))
    h = 1e-6
    for a in range(3):
        dp = probes.copy()
        dm = probes.copy()
        dp[:, a] += h
        dm[:, a] -= h
        fd = (field.sdf(field.grid.locate(dp)) - field.sdf(field.grid.locate(dm))) / (2 * h)
        np.testing.assert_allclose(grad[:, a], fd, rtol=0, atol=1e-6)


def test_spatial_gradient_of_linear_field_is_exact(rng):
    """Features encoding a per-axis-linear SDF have that exact gradient."""
    from tsdfmap.hashmap import unpack_key

    grid = FeatureGrid(voxel_sizes=(1.0,), feature_dim=1)
    dec = SdfDecoder(feature_dim=1, hidden_units=4, rng=rng)
    field = NeuralSdfField(grid, dec)
    pts = rng.random((20, 3)) * 0.98 + 0.01
    grid.allocate(pts)
    coef = np.array([0.3, -0.7, 0.2])
    lvl = grid.levels[0]
    lvl.features[:, 0] = unpack_key(lvl.vertices.keys).astype(np.float64) @ coef

    # chain rule: d dec/d feat at each point times the feature's spatial grad
    h = 1e-7
    record = grid.locate(pts)
    feats, _ = grid.interpolate(record)
    dfeat = (dec.forward(feats + h)[0] - dec.forward(feats - h)[0]) / (2 * h)
    expect = dfeat[:, None] * coef[None, :]
    np.testing.assert_allclose(field.spatial_gradient(record), expect, atol=1e-5)


def two_level_map(n, seed):
    """A map at the mapper's level sizes and widths, allocated at its n query points."""
    rng = np.random.default_rng(seed)
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=8)
    pts = rng.uniform(-1.5, 1.5, size=(n, 3))
    grid.allocate(pts)
    for lvl in grid.levels:
        lvl.features[:] = 0.1 * rng.standard_normal(lvl.features.shape)
    return NeuralSdfField(grid, SdfDecoder(feature_dim=8, hidden_units=32, rng=rng)), pts


def points_gradient(field, pts):
    """`spatial_gradient` in one pass, with the weights and their gradients
    taken from the coordinates by `cell_of`, as the points-based reads did;
    only the corner rows come from `locate`."""
    record = field.grid.locate(pts)
    fracs = [cell_of(pts, lvl.voxel_size)[1] for lvl in field.grid.levels]
    corners = [field.grid.corner_features(record, li) for li in range(field.grid.n_levels)]
    feats = np.zeros((len(pts), field.grid.feature_dim))
    for frac, corner_feats in zip(fracs, corners):
        feats += np.einsum("nc,ncd->nd", trilinear_weights(frac), corner_feats)
    dfeat = field.decoder.input_gradient(feats)
    grad = np.zeros((len(pts), 3))
    for lvl, frac, corner_feats in zip(field.grid.levels, fracs, corners):
        s_c = np.einsum("ncd,nd->nc", corner_feats, dfeat)
        grad += np.einsum("nc,nca->na", s_c, trilinear_weight_gradients(frac, lvl.voxel_size))
    return grad


def blocked_reads_equal_one_call():
    """`sdf` and `spatial_gradient` over several row blocks equal one call
    over all points bitwise."""
    for n in (40_967, 3 * BLOCK_ROWS + 1):
        field, pts = two_level_map(n, n)
        record = field.grid.locate(pts)
        want_sdf = field.decoder.values(field.grid.interpolate(record)[0]).view(np.uint64)
        assert np.array_equal(field.sdf(record).view(np.uint64), want_sdf), n
        want_grad = points_gradient(field, pts).view(np.uint64)
        assert np.array_equal(field.spatial_gradient(record).view(np.uint64), want_grad), n


def test_blocked_reads_equal_one_call_bitwise():
    run_at_one_thread("test_field", "blocked_reads_equal_one_call")


def record_gradients_equal_the_points_form():
    """Records from `locate`, `take` and `locate_lattice` give the gradient
    of the coordinates' own fractions, bit for bit."""
    field, pts = two_level_map(3000, 9)
    idx = np.random.default_rng(9).integers(0, len(pts), size=2500)  # repeats rows
    record = field.grid.locate(pts)
    for got, points in ((record, pts), (record.take(idx), pts[idx])):
        assert np.array_equal(field.spatial_gradient(got).view(np.uint64),
                              points_gradient(field, points).view(np.uint64))
    axes = [np.linspace(-1.9, 1.7, 23), np.linspace(-1.6, 1.8, 19), np.linspace(-1.7, 1.9, 21)]
    ok, lattice = field.grid.locate_lattice(axes, np.arange(23 * 19 * 21))
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)[ok]
    assert 0 < len(nodes) < len(ok)
    assert np.array_equal(field.spatial_gradient(lattice).view(np.uint64),
                          points_gradient(field, nodes).view(np.uint64))


def test_spatial_gradient_of_a_record_equals_the_points_form_bitwise():
    run_at_one_thread("test_field", "record_gradients_equal_the_points_form")


def test_spatial_gradient_holds_one_block_of_intermediates():
    field, pts = two_level_map(40_000, 5)
    record = field.grid.locate(pts)
    peaks = []
    for gradient in (lambda: field.spatial_gradient(record), lambda: points_gradient(field, pts)):
        tracemalloc.start()
        try:
            gradient()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 2 KB a row of the largest block; one call holds about 2 KB a row of all 40 k
    bound = 2 * BLOCK_ROWS * 2048
    assert peaks[0] < bound < peaks[1]


def test_a_blocked_read_names_the_point_one_call_would():
    """`locate` checks every point before a read cuts rows into blocks, and
    names the first level with a miss, even when an earlier block misses
    only at a later level."""
    field, pts = two_level_map(3 * BLOCK_ROWS, 6)
    level1_miss = np.array([2.5, 0.0, 0.0])  # outside the map; level 0 alone grows to it
    lvl = field.grid.levels[0]
    cell = cell_of(level1_miss[None], lvl.voxel_size)[0]
    lvl.vertices.insert(pack_coords(cell + CORNER_OFFSETS))
    lvl.ensure_rows(lvl.n_vertices)
    far = np.array([9.0, 9.0, 9.0])
    pts[10], pts[-10] = level1_miss, far
    message = re.escape(f"point {far.tolist()} lies in an unallocated voxel at level 0")
    with pytest.raises(UnallocatedQuery, match=f"^{message}$"):
        field.grid.locate(pts)
