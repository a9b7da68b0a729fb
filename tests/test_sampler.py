import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tsdfmap.sampler import (
    SamplerConfig,
    Scan,
    _neighbour_covariance,
    estimate_normals,
    generate_samples,
    voxel_downsample,
)


def plane_scan(rng, n=400, z=0.0, origin=(0.0, 0.0, 3.0)):
    pts = np.column_stack([rng.uniform(-4, 4, n), rng.uniform(-4, 4, n),
                           np.full(n, z)])
    return Scan(origin=np.asarray(origin, dtype=np.float64), points=pts, frame_id=0)


def sphere_scan(rng, n=2000, radius=2.0):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # sensor outside, keep the visible hemisphere
    v = v[v[:, 0] > 0.15]
    return Scan(origin=np.array([10.0, 0.0, 0.0]), points=radius * v, frame_id=0)


def test_plane_normals_are_exact(rng):
    scan = plane_scan(rng)
    normals, degenerate = estimate_normals(scan, k=20)
    assert not degenerate.any()
    np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
    # oriented toward the sensor (above the plane)
    assert (normals[:, 2] > 0).all()


def test_sphere_normals_match_analytic(rng):
    scan = sphere_scan(rng)
    normals, degenerate = estimate_normals(scan, k=20)
    analytic = scan.points / np.linalg.norm(scan.points, axis=1, keepdims=True)
    # outward on the sensor-facing hemisphere; allow boundary neighborhoods
    # to bend a little
    cos = np.abs(np.sum(normals * analytic, axis=1))
    ok = ~degenerate
    assert np.quantile(cos[ok], 0.01) > np.cos(np.radians(10.0))
    assert np.mean(cos[ok] > np.cos(np.radians(10.0))) > 0.99


def test_collinear_points_fall_back_to_ray_direction():
    t = np.linspace(0.0, 1.0, 30)
    pts = np.column_stack([t, 0.5 * t, np.full_like(t, 2.0)]) + [5.0, -1.0, 0.0]
    scan = Scan(origin=np.array([0.3, -0.2, 5.0]), points=pts, frame_id=0)
    normals, degenerate = estimate_normals(scan, k=10)
    assert degenerate.all()
    ray = pts - scan.origin
    assert np.array_equal(bits(normals), bits(-(ray / np.linalg.norm(ray, axis=1)[:, None])))


def test_tiny_scan_uses_fallback_normals():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    scan = Scan(origin=np.zeros(3), points=pts, frame_id=0)
    normals, degenerate = estimate_normals(scan, k=20)
    assert degenerate.all()
    np.testing.assert_allclose(normals, -pts, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_scans_of_fewer_than_three_points_fall_back_without_raising(n):
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])[:n]
    scan = Scan(origin=np.zeros(3), points=pts)
    normals, degenerate = estimate_normals(scan, k=20)
    assert normals.shape == (n, 3) and degenerate.shape == (n,) and degenerate.all()
    cfg = SamplerConfig()
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(0))
    assert batch.pos.shape == (len(batch), 3)
    assert len(batch) == n * (1 + cfg.n_front + cfg.n_behind + cfg.n_free)
    for column in (batch.label, batch.ray_len, batch.cos_inc):
        assert column.shape == (len(batch),)


def gathered_covariance(pts, idx):
    """Reference: the (n, k, 3) neighbour gather, `mean(axis=1)` and `einsum` covariance."""
    neigh = pts[idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    return np.einsum("nki,nkj->nij", centered, centered) / idx.shape[1]


def estimate_normals_gathered(scan, k=20):
    """Reference: `estimate_normals` built on `gathered_covariance`."""
    pts = scan.points
    n = pts.shape[0]
    to_sensor = scan.origin[None, :] - pts
    fallback = to_sensor / np.maximum(np.linalg.norm(to_sensor, axis=1), 1e-300)[:, None]
    if n < 3:
        return fallback.copy(), np.ones(n, dtype=bool)
    _, idx = cKDTree(pts, balanced_tree=False, compact_nodes=False).query(pts, k=min(k, n))
    evals, evecs = np.linalg.eigh(gathered_covariance(pts, idx))
    normals = evecs[:, :, 0]
    degenerate = evals[:, 1] <= 1e-8 * np.maximum(evals[:, 2], 1e-300)
    degenerate |= ~np.isfinite(normals).all(axis=1)
    flip = np.einsum("ni,ni->n", normals, to_sensor) < 0
    normals[flip] *= -1.0
    normals[degenerate] = fallback[degenerate]
    return normals, degenerate


def bits(a):
    """The float64 bit patterns of `a`, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def normal_clouds(rng):
    """(name, points, k): random, plane, signed-zero, collinear, coincident and k >= n clouds."""
    g = np.arange(-3, 4) * 0.25
    gx, gy = (a.ravel() for a in np.meshgrid(g, g))
    flat = np.column_stack([gx, gy, np.zeros(gx.size)])  # centred z exactly 0
    signed = flat.copy()
    signed[::2, 2] = -0.0  # -0.0 and 0.0 partners in every neighbourhood
    signed[gx == 0, 0] = -0.0
    signed[1::2][gy[1::2] == 0, 1] = -0.0
    wall = np.column_stack([np.full(gx.size, 1.5), gx, gy])  # 1.5 - 1.5: exact zeros again
    line = np.zeros((40, 3))
    line[:, 0] = np.arange(40) * 0.1
    line[::2, 1:] = -0.0
    same = np.tile([0.5, -0.0, 2.0], (12, 1))
    return [
        ("random", rng.normal(size=(600, 3)) * 4.0, 20),
        ("random k=7", rng.uniform(-1, 1, (300, 3)), 7),
        ("plane z=0", flat, 20),
        ("plane with -0.0", signed, 9),
        ("plane x=1.5", wall, 20),
        ("collinear", line, 20),
        ("coincident", same, 20),
        ("k >= n", rng.normal(size=(6, 3)), 20),
        ("k == n", rng.normal(size=(20, 3)), 20),
    ]


def test_neighbour_covariance_equals_the_gathered_form_bitwise(rng):
    for name, pts, k in normal_clouds(rng):
        _, idx = cKDTree(pts).query(pts, k=min(k, len(pts)))
        got, ref = _neighbour_covariance(pts, idx), gathered_covariance(pts, idx)
        assert got.shape == ref.shape, name
        assert np.array_equal(bits(got), bits(ref)), name


def test_estimate_normals_equals_the_gathered_form_bitwise(rng):
    degenerate_seen = set()
    for name, pts, k in normal_clouds(rng):
        scan = Scan(origin=np.array([0.3, -0.2, 5.0]), points=pts)
        normals, degenerate = estimate_normals(scan, k=k)
        ref_normals, ref_degenerate = estimate_normals_gathered(scan, k=k)
        assert np.array_equal(bits(normals), bits(ref_normals)), name
        assert np.array_equal(degenerate, ref_degenerate), name
        if degenerate.all():
            degenerate_seen.add(name)
    # the fallback branch is exercised as well as the PCA one
    assert {"collinear", "coincident"} <= degenerate_seen


@pytest.mark.parametrize("k", [2, 1, 0])
def test_estimate_normals_rejects_k_below_3(rng, k):
    with pytest.raises(ValueError, match=f"^k must be >= 3, got {k}$"):
        estimate_normals(plane_scan(rng, n=50), k=k)


def test_incidence_clamped(rng):
    scan = plane_scan(rng, n=50)
    cfg = SamplerConfig()
    normals = rng.standard_normal((50, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    # a normal orthogonal to its ray pins to the floor
    ray = scan.points[0] - scan.origin
    normals[0] = np.cross(ray, [1.0, 0.0, 0.0])
    normals[0] /= np.linalg.norm(normals[0])
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(0))
    assert (batch.cos_inc >= cfg.cos_eps).all() and (batch.cos_inc <= 1.0).all()
    assert batch.cos_inc[0] == pytest.approx(cfg.cos_eps)


def make_batch(rng, scan, cfg=None):
    cfg = cfg or SamplerConfig()
    normals, _ = estimate_normals(scan, k=cfg.normal_k)
    return generate_samples(scan, normals, cfg, rng), cfg


def test_sample_layout_and_surface_labels(rng):
    scan = plane_scan(rng, n=100)
    batch, cfg = make_batch(rng, scan)
    n = scan.points.shape[0]
    per_extra = cfg.n_front + cfg.n_behind + cfg.n_free
    assert len(batch) <= n * (1 + per_extra)
    assert (batch.label[:n] == 0.0).all()
    np.testing.assert_allclose(batch.pos[:n], scan.points, atol=1e-12)


def test_labels_bounded_by_truncation(rng):
    scan = sphere_scan(rng)
    batch, cfg = make_batch(rng, scan)
    assert (np.abs(batch.label) <= cfg.trunc_dist + 1e-12).all()


def test_samples_lie_on_their_rays(rng):
    scan = plane_scan(rng, n=60)
    batch, _ = make_batch(rng, scan)
    o = scan.origin
    d = batch.pos - o
    # each sample's direction matches some measured ray: cross product with
    # the ray through the matching surface point is zero
    depth = np.linalg.norm(d, axis=1)
    unit = d / depth[:, None]
    # reconstruct the endpoint from ray_len: o + ray_len * unit must be a
    # measured point
    end = o + batch.ray_len[:, None] * unit
    dmin = np.min(np.linalg.norm(end[:, None, :] - scan.points[None, :, :],
                                 axis=2), axis=1)
    assert dmin.max() < 1e-9


def test_label_is_clamped_projective_distance(rng):
    scan = plane_scan(rng, n=80)
    batch, cfg = make_batch(rng, scan)
    o = scan.origin
    depth = np.linalg.norm(batch.pos - o, axis=1)
    expect = np.clip(batch.ray_len - depth, -cfg.trunc_dist, cfg.trunc_dist)
    n = scan.points.shape[0]
    np.testing.assert_allclose(batch.label[n:], expect[n:], atol=1e-9)


def test_front_labels_nonnegative_behind_nonpositive(rng):
    scan = plane_scan(rng, n=50)
    cfg = SamplerConfig()
    normals, _ = estimate_normals(scan, k=cfg.normal_k)
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(0))
    n = scan.points.shape[0]
    front = batch.label[n:n + n * cfg.n_front]
    behind = batch.label[n + n * cfg.n_front:n + n * (cfg.n_front + cfg.n_behind)]
    assert (front >= 0).all()
    assert (behind <= 0).all()


def test_free_space_skipped_for_short_rays(rng):
    # all ranges below min_range + trunc: no room for free-space samples
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.55, 0.0], [0.0, 0.0, 0.52]])
    scan = Scan(origin=np.zeros(3), points=pts, frame_id=0)
    cfg = SamplerConfig()
    normals, _ = estimate_normals(scan, k=20)
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(0))
    n = pts.shape[0]
    assert len(batch) == n * (1 + cfg.n_front + cfg.n_behind)


def test_free_space_labels_saturate_at_truncation(rng):
    scan = plane_scan(rng, n=40, origin=(0.0, 0.0, 5.0))
    batch, cfg = make_batch(rng, scan)
    n = 40
    k = n * (1 + cfg.n_front + cfg.n_behind)
    free = batch.label[k:]
    assert free.size > 0
    np.testing.assert_allclose(free, cfg.trunc_dist, atol=1e-12)


def test_measured_bias_law_on_plane(rng):
    """Projective labels exceed true distance by (r - d)(1 - cos theta)."""
    scan = plane_scan(rng, n=300, z=0.0, origin=(0.0, 0.0, 3.0))
    cfg = SamplerConfig()
    normals, _ = estimate_normals(scan, k=cfg.normal_k)
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(2))
    n = scan.points.shape[0]
    sl = slice(n, n + n * (cfg.n_front + cfg.n_behind))
    pos, label = batch.pos[sl], batch.label[sl]
    depth = np.linalg.norm(pos - scan.origin, axis=1)
    s_true = pos[:, 2]  # signed distance to the z=0 plane
    cos = batch.cos_inc[sl]
    measured = label - s_true
    predicted = (batch.ray_len[sl] - depth) * (1.0 - cos)
    np.testing.assert_allclose(measured, predicted, atol=1e-6)


def test_generate_is_seed_deterministic(rng):
    scan = plane_scan(rng, n=30)
    cfg = SamplerConfig()
    normals, _ = estimate_normals(scan, k=20)
    a = generate_samples(scan, normals, cfg, np.random.default_rng(42))
    b = generate_samples(scan, normals, cfg, np.random.default_rng(42))
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.label, b.label)


def test_voxel_downsample_keeps_one_per_voxel(rng):
    pts = rng.uniform(0, 1, size=(500, 3))
    out = voxel_downsample(pts, 0.25)
    key = np.floor(out / 0.25).astype(int)
    assert np.unique(key, axis=0).shape[0] == out.shape[0]
    assert out.shape[0] <= 4 ** 3 + 3 * 4 * 4  # loose cap


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_label_bounds_property(seed):
    r = np.random.default_rng(seed)
    scan = plane_scan(r, n=25, origin=(0.0, 0.0, r.uniform(1.0, 6.0)))
    cfg = SamplerConfig(normal_k=8)
    normals, _ = estimate_normals(scan, k=8)
    batch = generate_samples(scan, normals, cfg, np.random.default_rng(seed))
    assert (np.abs(batch.label) <= cfg.trunc_dist).all()
    assert (batch.cos_inc >= 1e-3).all() and (batch.cos_inc <= 1.0).all()
