import numpy as np
import pytest

from tsdfmap.sim import (
    Box,
    LidarModel,
    Plane,
    Scene,
    Sphere,
    orbit_poses,
    ray_directions,
    room,
    simulate_scan,
)


def identity_pose(t):
    pose = np.zeros((3, 4))
    pose[:, :3] = np.eye(3)
    pose[:, 3] = t
    return pose


def test_sphere_sdf_values():
    s = Scene([Sphere((0, 0, 0), 2.0)])
    d = s.sdf(np.array([[3.0, 0, 0], [0, 0, 0], [0, 2.0, 0]]))
    np.testing.assert_allclose(d, [1.0, -2.0, 0.0], atol=1e-12)


def test_box_sdf_values():
    s = Scene([Box((0, 0, 0), (2, 2, 2))])
    d = s.sdf(np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0], [3.0, 3.0, 1.0]]))
    np.testing.assert_allclose(d, [-1.0, 1.0, np.sqrt(2.0)], atol=1e-12)


def test_plane_sdf_normalizes():
    s = Scene([Plane((0, 0, 2.0), 4.0)])  # scaled input: z - 2
    d = s.sdf(np.array([[0, 0, 5.0], [0, 0, 0.0]]))
    np.testing.assert_allclose(d, [3.0, -2.0], atol=1e-12)


def test_scene_union_is_min(rng):
    a = Sphere((0, 0, 0), 1.0)
    b = Box((2, -1, -1), (4, 1, 1))
    scene = Scene([a, b])
    pts = rng.uniform(-3, 5, size=(200, 3))
    da = Scene([a]).sdf(pts)
    db = Scene([b]).sdf(pts)
    np.testing.assert_array_equal(scene.sdf(pts), np.minimum(da, db))


def test_scene_normals_match_analytic_sphere(rng):
    scene = Scene([Sphere((1.0, -2.0, 0.5), 2.0)])
    v = rng.standard_normal((50, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = np.array([1.0, -2.0, 0.5]) + 2.0 * v
    n = scene.normals(pts)
    np.testing.assert_allclose(n, v, atol=1e-6)


def test_room_is_six_inward_planes():
    prims = room((-1, -1, 0), (1, 1, 2))
    assert len(prims) == 6
    scene = Scene(prims)
    # center is inside (positive), outside any wall is negative
    assert scene.sdf(np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(1.0)
    assert scene.sdf(np.array([[1.5, 0.0, 1.0]]))[0] == pytest.approx(-0.5)


def test_ray_directions_grid_order():
    m = LidarModel(azimuth_count=4, elevation_count=2,
                   elevation_min_deg=0.0, elevation_max_deg=30.0)
    d = ray_directions(m)
    assert d.shape == (8, 3)
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    # elevation-major: first four rays share elevation 0
    np.testing.assert_allclose(d[:4, 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(d[4:, 2], np.sin(np.radians(30.0)), atol=1e-12)
    np.testing.assert_allclose(d[0], [1.0, 0.0, 0.0], atol=1e-12)


def test_plane_hit_distance_analytic():
    scene = Scene([Plane((0, 0, 1.0), 0.0)])  # floor z=0
    model = LidarModel(azimuth_count=8, elevation_count=1,
                       elevation_min_deg=-45.0, elevation_max_deg=-45.0,
                       max_range=100.0)
    scan, normals = simulate_scan(identity_pose((0, 0, 3.0)), model, scene)
    # each ray descends at 45 degrees from height 3: range = 3 * sqrt(2)
    r = np.linalg.norm(scan.points - scan.origin, axis=1)
    np.testing.assert_allclose(r, 3.0 * np.sqrt(2.0), atol=1e-4)
    np.testing.assert_allclose(scan.points[:, 2], 0.0, atol=1e-4)
    np.testing.assert_allclose(normals, [[0.0, 0.0, 1.0]] * 8, atol=1e-6)


def test_sphere_hit_distance_analytic():
    scene = Scene([Sphere((10.0, 0.0, 0.0), 2.0)])
    model = LidarModel(azimuth_count=1, elevation_count=1,
                       elevation_min_deg=0.0, elevation_max_deg=0.0,
                       max_range=50.0)
    scan, _ = simulate_scan(identity_pose((0, 0, 0)), model, scene)
    assert scan.points.shape == (1, 3)
    np.testing.assert_allclose(scan.points[0], [8.0, 0.0, 0.0], atol=1e-4)


def test_hits_lie_on_surface(rng):
    scene = Scene(room((-4, -4, 0), (4, 4, 3)) + [Sphere((0, 0, 1.2), 1.0)])
    model = LidarModel(azimuth_count=64, elevation_count=16,
                       elevation_min_deg=-40, elevation_max_deg=40,
                       max_range=30.0)
    scan, _ = simulate_scan(identity_pose((2.0, 0.0, 1.5)), model, scene)
    assert scan.points.shape[0] > 500
    sd = np.abs(scene.sdf(scan.points))
    assert sd.max() < 2e-4  # sphere-tracing epsilon scale


def test_misses_are_omitted():
    scene = Scene([Sphere((10.0, 0.0, 0.0), 1.0)])
    model = LidarModel(azimuth_count=16, elevation_count=1,
                       elevation_min_deg=0.0, elevation_max_deg=0.0,
                       max_range=30.0)
    scan, normals = simulate_scan(identity_pose((0, 0, 0)), model, scene)
    assert 0 < scan.points.shape[0] < 16
    assert normals.shape == scan.points.shape


def test_empty_scene_yields_empty_scan():
    scene = Scene([])
    model = LidarModel(azimuth_count=4, elevation_count=2)
    scan, normals = simulate_scan(identity_pose((0, 0, 0)), model, scene)
    assert scan.points.shape == (0, 3)
    assert normals.shape == (0, 3)


def test_range_noise_statistics():
    scene = Scene([Plane((0, 0, 1.0), 0.0)])
    model = LidarModel(azimuth_count=256, elevation_count=16,
                       elevation_min_deg=-60, elevation_max_deg=-20,
                       max_range=100.0, beta=0.01, seed=3)
    clean = LidarModel(azimuth_count=256, elevation_count=16,
                       elevation_min_deg=-60, elevation_max_deg=-20,
                       max_range=100.0, beta=0.0, seed=3)
    pose = identity_pose((0, 0, 5.0))
    noisy, _ = simulate_scan(pose, model, scene, frame_id=0)
    ref, _ = simulate_scan(pose, clean, scene, frame_id=0)
    rn = np.linalg.norm(noisy.points - noisy.origin, axis=1)
    rc = np.linalg.norm(ref.points - ref.origin, axis=1)
    rel = (rn - rc) / rc
    assert abs(rel.mean()) < 3 * 0.01 / np.sqrt(rel.size)
    assert rel.std() == pytest.approx(0.01, rel=0.1)


def test_noise_is_along_ray():
    scene = Scene([Plane((0, 0, 1.0), 0.0)])
    model = LidarModel(azimuth_count=32, elevation_count=4,
                       elevation_min_deg=-50, elevation_max_deg=-30,
                       max_range=100.0, beta=0.02, seed=1)
    clean = LidarModel(azimuth_count=32, elevation_count=4,
                       elevation_min_deg=-50, elevation_max_deg=-30,
                       max_range=100.0, beta=0.0, seed=1)
    pose = identity_pose((0, 0, 4.0))
    a, _ = simulate_scan(pose, model, scene)
    b, _ = simulate_scan(pose, clean, scene)
    da = a.points - pose[:, 3]
    db = b.points - pose[:, 3]
    cos = np.sum(da * db, axis=1) / (np.linalg.norm(da, axis=1) *
                                     np.linalg.norm(db, axis=1))
    np.testing.assert_allclose(cos, 1.0, atol=1e-12)


def test_simulation_is_frame_seeded():
    scene = Scene([Plane((0, 0, 1.0), 0.0)])
    model = LidarModel(azimuth_count=16, elevation_count=2,
                       elevation_min_deg=-50, elevation_max_deg=-30,
                       beta=0.01, seed=9)
    pose = identity_pose((0, 0, 4.0))
    a, _ = simulate_scan(pose, model, scene, frame_id=0)
    b, _ = simulate_scan(pose, model, scene, frame_id=0)
    c, _ = simulate_scan(pose, model, scene, frame_id=1)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_orbit_poses_geometry():
    poses = orbit_poses(8, radius=3.0, height=1.5)
    assert len(poses) == 8
    for pose in poses:
        np.testing.assert_array_equal(pose[:, :3], np.eye(3))
        t = pose[:, 3]
        assert np.hypot(t[0], t[1]) == pytest.approx(3.0)
        assert t[2] == pytest.approx(1.5)
    # evenly spaced azimuths about the z axis
    t0, t2 = poses[0][:, 3], poses[2][:, 3]
    np.testing.assert_allclose(t0, [3.0, 0.0, 1.5], atol=1e-12)
    np.testing.assert_allclose(t2, [0.0, 3.0, 1.5], atol=1e-12)


def test_primitives_check_their_values():
    for make, match in (
        (lambda: Sphere((0, 0, 0), -1.0), "radius must be positive and finite"),
        (lambda: Sphere((0, 0, np.nan), 1.0), "center must be 3 finite numbers"),
        (lambda: Sphere((0, 0), 1.0), "center must be 3 finite numbers"),
        (lambda: Box((0, 0, 0), (1, -1, 1)), "min must be below max on every axis"),
        (lambda: Box((0, 0, 0), (1, 0, 1)), "min must be below max on every axis"),
        (lambda: Plane((0, 0, 0), 1.0), "normal must be nonzero"),
        (lambda: Plane((0, 0, 1), np.inf), "offset must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{match}$"):
            make()


def test_model_validation():
    with pytest.raises(ValueError):
        LidarModel(azimuth_count=0)
    with pytest.raises(ValueError):
        LidarModel(elevation_min_deg=10.0, elevation_max_deg=-10.0)
    with pytest.raises(ValueError):
        LidarModel(beta=-0.1)
    with pytest.raises(ValueError):
        LidarModel(max_range=0.0)
