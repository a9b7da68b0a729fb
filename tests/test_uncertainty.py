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
    a = PerturbField()
    a.accumulate(pos, g1)
    a.accumulate(pos, g2)
    b = PerturbField()
    b.accumulate(np.vstack([pos, pos]), np.vstack([g1, g2]))
    for key in a.vertices.keys:
        ra = a.vertices.lookup(np.array([key]))[0]
        rb = b.vertices.lookup(np.array([key]))[0]
        np.testing.assert_allclose(a.fisher[ra], b.fisher[rb], atol=1e-12)


def test_vertex_variance_formula():
    pf = PerturbField(gamma=2.0)
    # sample exactly at a lattice point: all weight on one corner
    pf.accumulate(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 2.0, 0.0]]))
    row = pf.vertices.lookup(pack_coords(np.array([[0, 0, 0]])))[0]
    np.testing.assert_allclose(pf.fisher[row], [1.0, 4.0, 0.0])
    var = pf.vertex_variance()
    np.testing.assert_allclose(var[row], [1 / 1.25, 1 / 4.25, 4.0])


def test_variance_bounded_by_prior(rng):
    pf = PerturbField(gamma=1.5)
    pf.accumulate(rng.uniform(-1, 1, (40, 3)), rng.standard_normal((40, 3)))
    var = pf.vertex_variance()
    assert (var > 0).all()
    assert (var <= 1.5 ** 2 + 1e-12).all()


def test_query_sigma_prior_only():
    pf = PerturbField(gamma=1.0)
    sigma = pf.query_sigma(np.array([[3.0, -2.0, 7.0]]))
    assert sigma[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
    pf2 = PerturbField(gamma=2.0)
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
    pf = PerturbField(grid_size=0.45)
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
    pool = ReplayPool(voxel_size=0.45, capacity=256)
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = pos.shape[0]
    batch = SampleBatch(pos=pos, label=np.zeros(n) if labels is None else labels,
                        ray_len=np.ones(n), cos_inc=np.ones(n), mse=np.full(n, .1))
    pool.insert(batch, frame_id=0)
    return pool


def test_partition_empty_pool_raises():
    pool = ReplayPool()
    pf = PerturbField()
    with pytest.raises(EmptyPool):
        partition_voxels(pool, pf, 0.98)


def test_partition_all_equal_sigma_is_all_certain(rng):
    # no supervision anywhere: every bucket has prior sigma, hi == lo
    pool = pool_with(rng.uniform(-1, 1, (30, 3)))
    pf = PerturbField()
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size == 0
    assert part.certain.size == pool.occupied_buckets().size
    assert (part.normalized == 0).all()


def test_partition_single_bucket_is_certain():
    pool = pool_with([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    pf = PerturbField()
    part = partition_voxels(pool, pf, 0.98)
    assert part.uncertain.size == 0 and part.certain.size == 1


def test_partition_splits_at_normalized_threshold(rng):
    # two far-apart clusters; supervise one heavily -> it becomes certain
    a = rng.uniform(0.0, 0.4, (25, 3))
    b = rng.uniform(4.0, 4.4, (25, 3))
    pool = pool_with(np.vstack([a, b]))
    pf = PerturbField(grid_size=0.45)
    for _ in range(10):
        pf.accumulate(a, np.ones((25, 3)))
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size > 0 and part.certain.size > 0
    centers_unc = pool.bucket_centers(part.uncertain)
    assert (centers_unc[:, 0] > 2).all()  # the unsupervised cluster
    # normalized sigma of uncertain buckets >= threshold
    sel = np.isin(part.keys, part.uncertain)
    assert (part.normalized[sel] >= 0.98).all()
    assert (part.normalized[~sel] < 0.98).all()


def test_partition_keys_cover_pool():
    pool = pool_with([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0], [9.0, 0.0, 0.0]])
    pf = PerturbField()
    part = partition_voxels(pool, pf, 0.98)
    assert np.array_equal(np.sort(np.concatenate([part.uncertain, part.certain])),
                          np.sort(part.keys))
    assert np.array_equal(np.sort(part.keys), pool.occupied_buckets())


# ---------------------------------------------------------------- draw


def two_cluster_pool(rng, n_a=60, n_b=40):
    a = rng.uniform(0.0, 0.4, (n_a, 3))
    b = rng.uniform(4.0, 4.4, (n_b, 3))
    pool = pool_with(np.vstack([a, b]))
    pf = PerturbField(grid_size=0.45)
    for _ in range(10):
        pf.accumulate(a, np.ones((n_a, 3)))
    part = partition_voxels(pool, pf, threshold=0.98)
    assert part.uncertain.size and part.certain.size
    return pool, part


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


def test_draw_batch_no_certain_samples_backfills(rng):
    # single bucket: everything certain; with a forced partition the other way
    pos = rng.uniform(0, 0.4, (20, 3))
    pool = pool_with(pos)
    keys = pool.occupied_buckets()
    part = VoxelPartition(uncertain=keys, certain=np.empty(0, np.int64),
                          keys=keys, sigma=np.ones(keys.size),
                          normalized=np.ones(keys.size), threshold=0.98)
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
    pool = ReplayPool()
    with pytest.raises(EmptyPool):
        draw_batch(pool, None, 8, 2, np.random.default_rng(0))


def test_uncertainty_config_defaults():
    cfg = UncertaintyConfig()
    assert cfg.gamma == 1.0
    assert cfg.threshold == 0.98
