import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdfmap.hashmap import COORD_LIMIT, unpack_key
from tsdfmap.pool import _COLUMNS, PoolConfig, ReplayPool, reliability_mse
from tsdfmap.sampler import SampleBatch, SamplerConfig, Scan, estimate_normals, generate_samples


def make_batch(pos, ray_len=None, label=None):
    """Samples at normal incidence, so the pool's score rises with `ray_len`."""
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 3)
    n = pos.shape[0]
    ray_len = np.ones(n) if ray_len is None else np.asarray(ray_len, dtype=np.float64)
    label = np.zeros(n) if label is None else np.asarray(label, dtype=np.float64)
    return SampleBatch(pos=pos, label=label, ray_len=ray_len, cos_inc=np.ones(n))


def rand_batch(rng, n, extent=5.0):
    return make_batch(rng.uniform(-extent, extent, size=(n, 3)),
                      ray_len=rng.random(n))


def test_reliability_examples():
    p = PoolConfig(alpha=1.0, prune_radius=50.0)
    # normal incidence at half the pruning radius: bias 0, sigma 0.5
    assert reliability_mse(np.array([25.0]), np.array([1.0]), p)[0] == \
        pytest.approx(0.25)
    # grazing incidence at the pruning radius: bias 1, sigma 1
    assert reliability_mse(np.array([50.0]), np.array([0.0]), p)[0] == \
        pytest.approx(2.0)
    # additivity of the two terms
    v = reliability_mse(np.array([25.0]), np.array([0.5]), p)[0]
    assert v == pytest.approx(0.25 + 0.25)


def test_reliability_monotonic_in_range_and_incidence(rng):
    p = PoolConfig()
    r = np.linspace(1.0, 50.0, 20)
    v = reliability_mse(r, np.full(20, 0.8), p)
    assert (np.diff(v) > 0).all()
    c = np.linspace(0.01, 1.0, 20)
    v = reliability_mse(np.full(20, 10.0), c, p)
    assert (np.diff(v) < 0).all()


def test_insert_scores_each_sample_with_the_pool_config(rng):
    cfg = PoolConfig(alpha=2.0, prune_radius=7.0)
    pool = ReplayPool(0.45, cfg)
    n = 300
    batch = SampleBatch(pos=rng.uniform(-3, 3, (n, 3)), label=np.zeros(n),
                        ray_len=rng.uniform(0.1, 20.0, n), cos_inc=rng.uniform(1e-3, 1.0, n))
    pool.insert(batch, frame_id=0)
    want = reliability_mse(batch.ray_len, batch.cos_inc, cfg)
    assert np.array_equal(pool.mse.view(np.uint64), want.view(np.uint64))


def test_sampled_rays_score_positive(rng):
    pts = np.column_stack([rng.uniform(-4, 4, 200), rng.uniform(-4, 4, 200), np.zeros(200)])
    scan = Scan(origin=np.array([0.0, 0.0, 3.0]), points=pts, frame_id=0)
    normals, _ = estimate_normals(scan, k=20)
    pool = ReplayPool(0.45)
    pool.insert(generate_samples(scan, normals, SamplerConfig(), rng), frame_id=0)
    assert pool.n > 0 and (pool.mse > 0).all()


def test_zero_capacity_is_rejected():
    with pytest.raises(ValueError, match="capacity must be at least 1"):
        ReplayPool(0.45, PoolConfig(capacity=0))
    with pytest.raises(TypeError):
        ReplayPool(0.45, capacity=0)  # the settings come whole, as a checked PoolConfig


def test_bucket_keys_follow_the_floor_convention():
    pool = ReplayPool(voxel_size=0.45)
    pool.insert(make_batch([[0.0, 0.0, 0.0], [0.44, 0.44, 0.44], [-0.01, 0.0, 0.0]]), 0)
    assert unpack_key(pool.bucket).tolist() == [[0, 0, 0], [0, 0, 0], [-1, 0, 0]]


def test_insert_outside_the_lattice_leaves_the_pool_unchanged(rng):
    pool = ReplayPool(voxel_size=0.5)
    pool.insert(rand_batch(rng, 4), frame_id=0)
    edge = 0.5 * (COORD_LIMIT - 1) + 0.1  # cell COORD_LIMIT - 1: its +1 corner does not pack
    with pytest.raises(ValueError, match="outside packable range"):
        pool.insert(make_batch([[0.0, 0.0, 0.0], [edge, 0.0, 0.0]]), frame_id=1)
    assert pool.n == 4 and all(len(getattr(pool, c)) == 4 for c in ("pos", "seq", "bucket"))
    pool.insert(rand_batch(rng, 2), frame_id=1)
    assert pool.seq.tolist() == list(range(6))


def test_insert_appends_in_order(rng):
    pool = ReplayPool(0.45)
    pool.insert(rand_batch(rng, 10), frame_id=0)
    pool.insert(rand_batch(rng, 5), frame_id=1)
    assert pool.n == 15
    assert pool.seq.tolist() == list(range(15))
    assert pool.frame_id.tolist() == [0] * 10 + [1] * 5


def test_prune_window_strict_boundary():
    pool = ReplayPool(0.45, PoolConfig(prune_radius=50.0))
    pos = np.array([[49.99, 0, 0], [50.0, 0, 0], [50.01, 0, 0]])
    pool.insert(make_batch(pos), frame_id=0)
    evicted = pool.prune_window(np.zeros(3))
    assert evicted == 2  # keep strictly inside the radius
    assert pool.n == 1
    np.testing.assert_allclose(pool.pos[0], pos[0])


def columns(pool):
    """{name: copy} of every pool column."""
    return {name: getattr(pool, name).copy() for name, _, _ in _COLUMNS}


def assert_rows_kept(pool, before, kept):
    """Every column equals its `before` copy at rows `kept`, bit for bit."""
    for name, _, _ in _COLUMNS:
        want = before[name][kept]
        got = getattr(pool, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_prune_window_equals_the_norm_form_bitwise(rng):
    o = np.array([1.0, -2.0, 3.0])
    r = 5.0
    edge = o + np.array([[3.0, 4.0, 0.0], [0.0, -3.0, 4.0], [-5.0, 0.0, 0.0]])  # exactly r
    ulps = [np.nextafter(edge, edge + s) for s in (np.inf, -np.inf)]  # one ulp in or out
    u = rng.normal(size=(2000, 3))
    sphere = o + r * u / np.linalg.norm(u, axis=1, keepdims=True)  # within ulps of r
    pos = np.vstack([edge, *ulps, sphere, rng.uniform(-10, 10, (500, 3))])
    for radius in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
        pool = ReplayPool(0.45, PoolConfig(prune_radius=radius))
        pool.insert(make_batch(pos, ray_len=rng.random(len(pos))), frame_id=0)
        before = columns(pool)
        keep = np.linalg.norm(pool.pos - o, axis=1) < radius
        assert 0 < keep.sum() < len(pos)
        assert pool.prune_window(o) == int((~keep).sum())
        assert_rows_kept(pool, before, keep)


def test_prune_window_is_idempotent(rng):
    pool = ReplayPool(0.45, PoolConfig(prune_radius=5.0))
    pool.insert(rand_batch(rng, 200, extent=8.0), frame_id=0)
    pool.prune_window(np.zeros(3))
    n = pool.n
    assert pool.prune_window(np.zeros(3)) == 0
    assert pool.n == n


def brute_force_capacity(pool, capacity):
    """Reference: per bucket keep tau lowest-mse rows, newer frame wins
    ties, then insertion order."""
    keep = []
    for b in np.unique(pool.bucket):
        idx = np.flatnonzero(pool.bucket == b)
        ranked = sorted(idx, key=lambda i: (pool.mse[i], -pool.frame_id[i],
                                            pool.seq[i]))
        keep.extend(ranked[:capacity])
    return np.sort(np.asarray(keep))


def test_enforce_capacity_matches_brute_force(rng):
    pool = ReplayPool(0.45, PoolConfig(capacity=4))
    for f in range(6):
        pool.insert(rand_batch(rng, 300, extent=2.0), frame_id=f)
    expect = brute_force_capacity(pool, 4)
    expect_seq = pool.seq[expect]
    evicted = pool.enforce_capacity()
    assert evicted == 1800 - expect_seq.size
    assert np.array_equal(np.sort(pool.seq), np.sort(expect_seq))


def capacity_full_sort(pool):
    """Reference: rank every row by the 4-key lexsort; ascending rows kept."""
    order = np.lexsort((pool.seq, -pool.frame_id.astype(np.int64), pool.mse, pool.bucket))
    b = pool.bucket[order]
    group_start = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    rank = np.arange(b.size) - np.repeat(group_start, np.diff(np.r_[group_start, b.size]))
    return np.sort(order[rank < pool.capacity])


def test_enforce_capacity_under_capacity_leaves_the_columns_untouched(rng):
    pool = ReplayPool(1.0, PoolConfig(capacity=8))
    for f in range(2):
        pool.insert(make_batch(rng.uniform(0, 4, (40, 3)), ray_len=rng.random(40)), frame_id=f)
    assert pool.bucket_sizes()[1].max() <= 8
    before = {name: getattr(pool, name) for name, _, _ in _COLUMNS}
    assert pool.enforce_capacity() == 0
    assert all(getattr(pool, name) is before[name] for name in before)


def test_enforce_capacity_equals_the_full_sort_bitwise(rng):
    # buckets of 2 rows (under), cap (exactly at), cap + 1 and 40 (over); mse
    # ties within and across frames; frames inserted out of order
    cap = 6
    cells = np.repeat([3, 0, 1, 2], [2, cap, cap + 1, 40])
    for trial in range(4):
        frames = rng.integers(0, 4, cells.size)
        score = rng.choice([0.1, 0.2, 0.3], size=cells.size)
        pos = np.column_stack([cells + rng.uniform(0.1, 0.9, cells.size),
                               rng.uniform(0.1, 0.9, (cells.size, 2))])
        pool = ReplayPool(1.0, PoolConfig(capacity=cap))
        for f in rng.permutation(4):
            sel = frames == f
            pool.insert(make_batch(pos[sel], ray_len=score[sel]), frame_id=int(f))
        assert sorted(pool.bucket_sizes()[1].tolist()) == [2, cap, cap + 1, 40]
        before = columns(pool)
        kept = capacity_full_sort(pool)
        assert pool.enforce_capacity() == cells.size - kept.size == 1 + 40 - cap
        assert_rows_kept(pool, before, kept)


def test_enforce_capacity_tie_rule_prefers_newer_frame():
    pool = ReplayPool(1.0, PoolConfig(capacity=1))
    p = [[0.5, 0.5, 0.5]]
    pool.insert(make_batch(p, ray_len=[0.7]), frame_id=0)
    pool.insert(make_batch(p, ray_len=[0.7]), frame_id=3)
    pool.insert(make_batch(p, ray_len=[0.7]), frame_id=1)
    pool.enforce_capacity()
    assert pool.n == 1
    assert pool.frame_id[0] == 3


def test_enforce_capacity_tie_rule_then_insertion_order():
    pool = ReplayPool(1.0, PoolConfig(capacity=2))
    p = [[0.5, 0.5, 0.5]]
    for _ in range(4):
        pool.insert(make_batch(p, ray_len=[0.7]), frame_id=5)
    pool.enforce_capacity()
    assert pool.seq.tolist() == [0, 1]


def test_enforce_capacity_keeps_low_mse():
    pool = ReplayPool(1.0, PoolConfig(capacity=2))
    p = np.tile([[0.5, 0.5, 0.5]], (5, 1))
    pool.insert(make_batch(p, ray_len=[0.9, 0.1, 0.5, 0.05, 0.8]), frame_id=0)
    pool.enforce_capacity()
    assert sorted(pool.ray_len.tolist()) == [0.05, 0.1]


def test_rows_stay_sequence_ordered_after_enforcement(rng):
    pool = ReplayPool(0.45, PoolConfig(capacity=3))
    for f in range(5):
        pool.insert(rand_batch(rng, 100, extent=1.5), frame_id=f)
    pool.enforce_capacity()
    assert (np.diff(pool.seq) > 0).all()


def test_enforce_capacity_idempotent(rng):
    pool = ReplayPool(0.45, PoolConfig(capacity=5))
    pool.insert(rand_batch(rng, 500, extent=2.0), frame_id=0)
    pool.enforce_capacity()
    n = pool.n
    assert pool.enforce_capacity() == 0
    assert pool.n == n


def test_bucket_census(rng):
    pool = ReplayPool(voxel_size=1.0)
    pos = np.array([[0.1, 0.1, 0.1], [0.2, 0.3, 0.4], [1.5, 0.0, 0.0]])
    pool.insert(make_batch(pos), frame_id=0)
    keys, counts = pool.bucket_sizes()
    assert keys.size == 2
    assert np.array_equal(keys, np.unique(pool.bucket))
    assert sorted(counts.tolist()) == [1, 2]
    centers = pool.bucket_centers(keys)
    assert {tuple(c) for c in centers} == {(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
def test_capacity_enforcement_oracle_property(seed, capacity):
    r = np.random.default_rng(seed)
    pool = ReplayPool(0.9, PoolConfig(capacity=capacity))
    for f in range(3):
        n = int(r.integers(1, 60))
        pool.insert(make_batch(r.uniform(-1, 1, size=(n, 3)), ray_len=r.random(n)),
                    frame_id=f)
    expect_seq = pool.seq[brute_force_capacity(pool, capacity)]
    pool.enforce_capacity()
    assert np.array_equal(pool.seq, np.sort(expect_seq))
    counts = np.unique(pool.bucket, return_counts=True)[1]
    assert (counts <= capacity).all()
