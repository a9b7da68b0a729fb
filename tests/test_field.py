import numpy as np
import pytest

from grid_helpers import record_rows
from tsdfmap.decoder import PARAM_NAMES, SdfDecoder
from tsdfmap.field import NeuralSdfField
from tsdfmap.grid import FeatureGrid


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
    preds, _ = field.predict(pts)
    r = preds - labels
    return float(r @ r) / r.size


def test_predict_composes_interpolate_and_decode(rng):
    field, pts = make_field(rng)
    preds, cache = field.predict(pts)
    feats, _ = field.grid.interpolate(pts)
    expect, _ = field.decoder.forward(feats)
    np.testing.assert_array_equal(preds, expect)
    assert cache.preds is preds


def test_sdf_is_predict_without_the_cache_bitwise(rng):
    field, pts = make_field(rng, feature_dim=8, hidden=32)
    preds, _ = field.predict(pts)
    assert field.sdf(pts).tobytes() == preds.tobytes()
    assert field.sdf(pts, record=field.grid.locate(pts)).tobytes() == preds.tobytes()


def test_backward_mse_loss_value(rng):
    field, pts = make_field(rng)
    labels = rng.standard_normal(pts.shape[0])
    preds, cache = field.predict(pts)
    loss, _ = field.backward_mse(cache, labels)
    assert loss == pytest.approx(np.mean((preds - labels) ** 2), abs=1e-15)


def test_decoder_gradients_match_finite_differences(rng):
    field, pts = make_field(rng)
    labels = rng.standard_normal(pts.shape[0])
    _, cache = field.predict(pts)
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
    _, cache = field.predict(pts)
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
    _, cache = field.predict(pts)
    _, store = field.backward_mse(cache, labels)
    for li in range(2):
        rows = record_rows(field.grid.locate(pts))[:, li]
        assert np.array_equal(store.level_rows[li], np.unique(rows))


def test_zero_residual_gives_zero_gradients(rng):
    field, pts = make_field(rng)
    preds, cache = field.predict(pts)
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
    grad = field.spatial_gradient(probes)
    h = 1e-6
    for a in range(3):
        dp = probes.copy()
        dm = probes.copy()
        dp[:, a] += h
        dm[:, a] -= h
        fd = (field.predict(dp)[0] - field.predict(dm)[0]) / (2 * h)
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
    feats, _ = grid.interpolate(pts)
    dfeat = (dec.forward(feats + h)[0] - dec.forward(feats - h)[0]) / (2 * h)
    expect = dfeat[:, None] * coef[None, :]
    np.testing.assert_allclose(field.spatial_gradient(pts), expect, atol=1e-5)
