import numpy as np
import pytest

from tsdfmap.decoder import SdfDecoder
from tsdfmap.errors import EmptyPool
from tsdfmap.field import NeuralSdfField
from tsdfmap.grid import CORNER_OFFSETS, FeatureGrid, cell_of, trilinear_weights
from tsdfmap.hashmap import pack_coords
from tsdfmap.pool import ReplayPool
from tsdfmap.sampler import SampleBatch
from tsdfmap.uncertainty import (
    PerturbField,
    UncertaintyConfig,
    VoxelPartition,
    draw_batch,
    partition_voxels,
)


def loop_fisher(positions, grads, grid_size):
    """Reference accumulation: per sample, per corner, w^2 * grad^2."""
    acc = {}
    base, frac = cell_of(positions, grid_size)
    w = trilinear_weights(frac)
    for n in range(positions.shape[0]):
        for c in range(8):
            key = tuple(base[n] + CORNER_OFFSETS[c])
            acc.setdefault(key, np.zeros(3))
            acc[key] += w[n, c] ** 2 * grads[n] ** 2
    return acc


def test_accumulate_matches_loop_oracle(rng):
    pf = PerturbField(grid_size=0.45, gamma=1.0)
    pos = rng.uniform(-1, 1, size=(50, 3))
    grads = rng.standard_normal((50, 3))
    pf.accumulate(pos, grads)
    expect = loop_fisher(pos, grads, 0.45)
    assert pf.n_vertices == len(expect)
    for key, val in expect.items():
        row = pf.vertices.lookup(pack_coords(np.array([key])))[0]
        np.testing.assert_allclose(pf.fisher[row], val, atol=1e-12)


def test_accumulate_is_additive(rng):
    pos = rng.uniform(-1, 1, size=(30, 3))
    g1 = rng.standard_normal((30, 3))
    g2 = rng.standard_normal((30, 3))
    a = PerturbField(0.45, 1.0)
    a.accumulate(pos, g1)
    a.accumulate(pos, g2)
    b = PerturbField(0.45, 1.0)
    b.accumulate(np.vstack([pos, pos]), np.vstack([g1, g2]))
    for key in a.vertices.keys:
        ra = a.vertices.lookup(np.array([key]))[0]
        rb = b.vertices.lookup(np.array([key]))[0]
        np.testing.assert_allclose(a.fisher[ra], b.fisher[rb], atol=1e-12)


def test_vertex_variance_formula():
    pf = PerturbField(grid_size=0.45, gamma=2.0)
    # sample exactly at a lattice point: all weight on one corner
    pf.accumulate(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 2.0, 0.0]]))
    row = pf.vertices.lookup(pack_coords(np.array([[0, 0, 0]])))[0]
    np.testing.assert_allclose(pf.fisher[row], [1.0, 4.0, 0.0])
    var = pf.vertex_variance()
    np.testing.assert_allclose(var[row], [1 / 1.25, 1 / 4.25, 4.0])


def test_variance_bounded_by_prior(rng):
    pf = PerturbField(grid_size=0.45, gamma=1.5)
    pf.accumulate(rng.uniform(-1, 1, (40, 3)), rng.standard_normal((40, 3)))
    var = pf.vertex_variance()
    assert (var > 0).all()
    assert (var <= 1.5 ** 2 + 1e-12).all()


def test_query_sigma_prior_only():
    pf = PerturbField(grid_size=0.45, gamma=1.0)
    sigma = pf.query_sigma(np.array([[3.0, -2.0, 7.0]]))
    assert sigma[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
    pf2 = PerturbField(grid_size=0.45, gamma=2.0)
    # each component carries gamma^2 prior variance
    assert pf2.query_sigma(np.zeros((1, 3)))[0] == pytest.approx(
        np.sqrt(3.0) * 4.0, abs=1e-12)


def test_query_sigma_interpolates_variance(rng):
    pf = PerturbField(grid_size=1.0, gamma=1.0)
    pos = rng.uniform(0.1, 0.9, size=(20, 3))
    grads = rng.standard_normal((20, 3))
    pf.accumulate(pos, grads)
    q = rng.uniform(0.2, 0.8, size=(5, 3))
    base, frac = cell_of(q, 1.0)
    w = trilinear_weights(frac)
    keys = pack_coords(base[:, None, :] + CORNER_OFFSETS[None, :, :])
    rows = pf.vertices.lookup(keys.ravel()).reshape(-1, 8)
    expect = np.empty(5)
    for i in range(5):
        v = np.zeros(3)
        for c in range(8):
            f = pf.fisher[rows[i, c]] if rows[i, c] >= 0 else np.zeros(3)
            v += w[i, c] * (1.0 / (f + 1.0))
        expect[i] = np.linalg.norm(v)
    np.testing.assert_allclose(pf.query_sigma(q), expect, atol=1e-12)


def test_sigma_decreases_with_supervision(rng):
    pf = PerturbField(grid_size=0.45, gamma=1.0)
    probe = np.array([[0.2, 0.2, 0.2]])
    s0 = pf.query_sigma(probe)[0]
    history = [s0]
    for _ in range(5):
        pf.accumulate(rng.uniform(0, 0.45, (20, 3)), rng.standard_normal((20, 3)))
        history.append(pf.query_sigma(probe)[0])
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]


# ---------------------------------------------------------------- partition


def pool_with(positions, rng=None, labels=None):
    pool = ReplayPool(voxel_size=0.45)
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = pos.shape[0]
    batch = SampleBatch(pos=pos, label=np.zeros(n) if labels is None else labels,
                        ray_len=np.ones(n), cos_inc=np.ones(n))
    pool.insert(batch, frame_id=0)
    return pool


def normalized_sigma(part):
    """Min-max normalized sigma per occupied bucket, as `partition_voxels` thresholds it."""
    lo, hi = part.sigma.min(), part.sigma.max()
    return np.zeros_like(part.sigma) if hi == lo else (part.sigma - lo) / (hi - lo)


def isin_rows(pool, uncertain):
    """Reference row split: pool rows in the given bucket keys, and the rest."""
    in_unc = np.isin(pool.bucket, uncertain)
    return np.flatnonzero(in_unc), np.flatnonzero(~in_unc)


def test_partition_empty_pool_raises():
    pool = ReplayPool(0.45)
    pf = PerturbField(0.45, 1.0)
    with pytest.raises(EmptyPool):
        partition_voxels(pool, pf, 0.98)


def test_partition_all_equal_sigma_is_all_certain(rng):
    # no supervision anywhere: every bucket has prior sigma, hi == lo
    pool = pool_with(rng.uniform(-1, 1, (30, 3)))
    pf = PerturbField(0.45, 1.0)
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size == 0
    assert part.certain.size == pool.bucket_sizes()[0].size
    assert (normalized_sigma(part) == 0).all()


def test_partition_single_bucket_is_certain():
    pool = pool_with([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    pf = PerturbField(0.45, 1.0)
    part = partition_voxels(pool, pf, 0.98)
    assert part.uncertain.size == 0 and part.certain.size == 1


def test_partition_splits_at_normalized_threshold(rng):
    # two far-apart clusters; supervise one heavily -> it becomes certain
    a = rng.uniform(0.0, 0.4, (25, 3))
    b = rng.uniform(4.0, 4.4, (25, 3))
    pool = pool_with(np.vstack([a, b]))
    pf = PerturbField(grid_size=0.45, gamma=1.0)
    for _ in range(10):
        pf.accumulate(a, np.ones((25, 3)))
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size > 0 and part.certain.size > 0
    centers_unc = pool.bucket_centers(part.uncertain)
    assert (centers_unc[:, 0] > 2).all()  # the unsupervised cluster
    # normalized sigma of uncertain buckets >= threshold
    sel = np.isin(pool.bucket_sizes()[0], part.uncertain)
    assert (normalized_sigma(part)[sel] >= 0.98).all()
    assert (normalized_sigma(part)[~sel] < 0.98).all()


def test_partition_keys_cover_pool():
    pool = pool_with([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0], [9.0, 0.0, 0.0]])
    pf = PerturbField(0.45, 1.0)
    part = partition_voxels(pool, pf, 0.98)
    keys = pool.bucket_sizes()[0]
    assert np.array_equal(np.sort(np.concatenate([part.uncertain, part.certain])), keys)
    assert part.sigma.shape == keys.shape


# ---------------------------------------------------------------- draw


def two_cluster_pool(rng, n_a=60, n_b=40):
    a = rng.uniform(0.0, 0.4, (n_a, 3))
    b = rng.uniform(4.0, 4.4, (n_b, 3))
    pool = pool_with(np.vstack([a, b]))
    pf = PerturbField(grid_size=0.45, gamma=1.0)
    for _ in range(10):
        pf.accumulate(a, np.ones((n_a, 3)))
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size and part.certain.size
    return pool, part


def test_partition_rows_match_an_isin_reference(rng):
    mixed = two_cluster_pool(rng)
    # equal sigma everywhere: every row is certain
    pool = pool_with(rng.uniform(-1, 1, (30, 3)))
    all_certain = (pool, partition_voxels(pool, PerturbField(0.45, 1.0), 0.98))
    assert all_certain[1].uncertain.size == 0
    for pool, part in (mixed, all_certain):
        unc_rows, cer_rows = isin_rows(pool, part.uncertain)
        assert np.array_equal(part.uncertain_rows, unc_rows)
        assert np.array_equal(part.certain_rows, cer_rows)


def test_draw_batch_size_and_composition(rng):
    pool, part = two_cluster_pool(rng)
    rows = draw_batch(pool, part, 64, 10, np.random.default_rng(0))
    assert rows.shape == (64,)
    in_unc = np.isin(pool.bucket[rows], part.uncertain)
    assert in_unc.sum() == 10


def test_draw_batch_caps_at_available_uncertain(rng):
    pool, part = two_cluster_pool(rng, n_a=60, n_b=7)
    n_avail = int(np.isin(pool.bucket, part.uncertain).sum())
    assert n_avail == 7
    rows = draw_batch(pool, part, 32, 20, np.random.default_rng(0))
    in_unc = np.isin(pool.bucket[rows], part.uncertain)
    assert in_unc.sum() == n_avail
    assert rows.shape == (32,)
    # uncertain side empty: a single bucket is certain, every row is drawn from it
    pool = pool_with([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    part = partition_voxels(pool, PerturbField(0.45, 1.0), 0.98)
    assert part.uncertain.size == 0
    rows = draw_batch(pool, part, 16, 4, np.random.default_rng(5))
    expected = part.certain_rows[np.random.default_rng(5).integers(0, 2, size=16)]
    assert np.array_equal(rows, expected)


def test_draw_batch_no_certain_samples_backfills(rng):
    # single bucket: everything certain; with a forced partition the other way
    pos = rng.uniform(0, 0.4, (20, 3))
    pool = pool_with(pos)
    keys = pool.bucket_sizes()[0]
    unc_rows, cer_rows = isin_rows(pool, keys)
    part = VoxelPartition(uncertain=keys, certain=np.empty(0, np.int64),
                          sigma=np.ones(keys.size),
                          uncertain_rows=unc_rows, certain_rows=cer_rows)
    rows = draw_batch(pool, part, 16, 4, np.random.default_rng(1))
    assert rows.shape == (16,)
    assert np.isin(pool.bucket[rows], keys).all()


def test_draw_batch_uniform_when_no_partition(rng):
    pool = pool_with(rng.uniform(-2, 2, (100, 3)))
    a = draw_batch(pool, None, 50, 10, np.random.default_rng(9))
    b = draw_batch(pool, None, 50, 10, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == (50,) and a.min() >= 0 and a.max() < pool.n


def test_draw_batch_deterministic_under_seed(rng):
    pool, part = two_cluster_pool(rng)
    a = draw_batch(pool, part, 32, 8, np.random.default_rng(77))
    b = draw_batch(pool, part, 32, 8, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_draw_batch_empty_pool_raises():
    pool = ReplayPool(0.45)
    with pytest.raises(EmptyPool):
        draw_batch(pool, None, 8, 2, np.random.default_rng(0))


def test_uncertainty_config_defaults():
    cfg = UncertaintyConfig()
    assert cfg.gamma == 1.0
    assert cfg.threshold == 0.98
