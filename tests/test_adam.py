import numpy as np
import pytest

from tsdfmap.adam import AdamConfig, GradientStore, adam_step
from tsdfmap.decoder import PARAM_NAMES, SdfDecoder
from tsdfmap.grid import FeatureGrid


def reference_adam(param, grad, m, v, cfg, step):
    """Textbook Adam update with bias correction, one tensor."""
    m = cfg.beta1 * m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
    mh = m / (1 - cfg.beta1 ** step)
    vh = v / (1 - cfg.beta2 ** step)
    return param - cfg.lr * mh / (np.sqrt(vh) + cfg.eps), m, v


def make_state(rng, n_pts=20):
    grid = FeatureGrid(voxel_sizes=(0.3, 0.45), feature_dim=4)
    pts = rng.uniform(-0.6, 0.6, size=(n_pts, 3))
    grid.allocate(pts)
    for lvl in grid.levels:
        lvl.features[:] = rng.standard_normal(lvl.features.shape)
    dec = SdfDecoder(feature_dim=4, hidden_units=5, rng=rng)
    return grid, dec


def random_store(rng, grid, dec):
    dec_g = {n: rng.standard_normal(dec.params[n].shape) for n in PARAM_NAMES}
    rows, grads = [], []
    for lvl in grid.levels:
        r = np.sort(rng.choice(lvl.n_vertices, size=lvl.n_vertices // 2, replace=False))
        rows.append(r.astype(np.int64))
        grads.append(rng.standard_normal((r.size, 4)))
    return GradientStore(dec_g, rows, grads)


def test_matches_reference_trajectory(rng):
    grid, dec = make_state(rng)
    cfg = AdamConfig(lr=0.05)
    ref_p = {n: dec.params[n].copy() for n in PARAM_NAMES}
    ref_m = {n: np.zeros_like(ref_p[n]) for n in PARAM_NAMES}
    ref_v = {n: np.zeros_like(ref_p[n]) for n in PARAM_NAMES}
    ref_feat = [lvl.features.copy() for lvl in grid.levels]
    ref_fm = [np.zeros_like(f) for f in ref_feat]
    ref_fv = [np.zeros_like(f) for f in ref_feat]

    for step in range(1, 6):
        store = random_store(rng, grid, dec)
        adam_step(store, grid, dec, cfg, step)
        for n in PARAM_NAMES:
            ref_p[n], ref_m[n], ref_v[n] = reference_adam(
                ref_p[n], store.decoder[n], ref_m[n], ref_v[n], cfg, step)
        for li in range(2):
            # rows absent from the store stay frozen (lazy sparse update)
            for i, row in enumerate(store.level_rows[li]):
                ref_feat[li][row], ref_fm[li][row], ref_fv[li][row] = reference_adam(
                    ref_feat[li][row], store.level_grads[li][i],
                    ref_fm[li][row], ref_fv[li][row], cfg, step)
        for n in PARAM_NAMES:
            np.testing.assert_allclose(dec.params[n], ref_p[n], atol=1e-12)
        for li, lvl in enumerate(grid.levels):
            np.testing.assert_allclose(lvl.features, ref_feat[li], atol=1e-12)
    assert cfg == AdamConfig(lr=0.05)  # the step counter lives with the caller


def test_fresh_state_zero_grad_is_noop(rng):
    grid, dec = make_state(rng)
    cfg = AdamConfig()
    before = {n: dec.params[n].copy() for n in PARAM_NAMES}
    feat_before = [lvl.features.copy() for lvl in grid.levels]
    store = GradientStore(
        {n: np.zeros_like(dec.params[n]) for n in PARAM_NAMES},
        [np.arange(lvl.n_vertices, dtype=np.int64) for lvl in grid.levels],
        [np.zeros((lvl.n_vertices, 4)) for lvl in grid.levels],
    )
    adam_step(store, grid, dec, cfg, 1)
    for n in PARAM_NAMES:
        np.testing.assert_array_equal(dec.params[n], before[n])
    for li, lvl in enumerate(grid.levels):
        np.testing.assert_array_equal(lvl.features, feat_before[li])
    assert cfg == AdamConfig()


def test_rows_outside_store_are_untouched_at_fresh_state(rng):
    grid, dec = make_state(rng)
    cfg = AdamConfig()
    lvl = grid.levels[0]
    before = lvl.features.copy()
    store = GradientStore(
        {n: np.zeros_like(dec.params[n]) for n in PARAM_NAMES},
        [np.array([0, 2], dtype=np.int64), np.zeros(0, dtype=np.int64)],
        [np.ones((2, 4)), np.zeros((0, 4))],
    )
    adam_step(store, grid, dec, cfg, 1)
    changed = np.abs(lvl.features - before).sum(axis=1) > 0
    assert changed[0] and changed[2]
    assert not changed[[1] + list(range(3, lvl.n_vertices))].any()


def test_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(lr=-1.0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(eps=0.0)


def test_first_step_is_normalized_gradient(rng):
    """At t=1 bias correction cancels: update = -lr * g / (|g| + eps)."""
    grid, dec = make_state(rng)
    cfg = AdamConfig(lr=0.01)
    store = random_store(rng, grid, dec)
    before = dec.params["w1"].copy()
    adam_step(store, grid, dec, cfg, 1)
    delta = dec.params["w1"] - before
    g = store.decoder["w1"]
    np.testing.assert_allclose(delta, -cfg.lr * g / (np.abs(g) + cfg.eps),
                               atol=1e-15)
