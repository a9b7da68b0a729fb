"""Synthetic LiDAR over analytic SDF scenes.

Scenes are unions (min) of spheres, axis-aligned boxes and half-space
planes -- all exact, 1-Lipschitz SDFs, so sphere tracing finds first
hits to a fixed tolerance and every component of the pipeline can be
checked against closed-form geometry. The sensor fires an
azimuth/elevation raster; returns are perturbed along the ray with
zero-mean Gaussian noise whose std grows linearly with range.
"""

from dataclasses import dataclass

import numpy as np

from .kernels.trace import (
    PRIM_BOX,
    PRIM_PLANE,
    PRIM_SPHERE,
    scene_sdf_points,
    trace_rays,
)
from .mesher import TriMesh, extract_mesh, sdf_grid_from_function
from .sampler import Scan

TRACE_EPS = 1e-5
TRACE_MAX_STEPS = 256


def _check_point(value, name):
    try:
        p = np.asarray(value, dtype=np.float64)
        if p.shape == (3,) and np.isfinite(p).all():
            return p
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be 3 finite numbers")


@dataclass
class Sphere:
    center: tuple
    radius: float

    def __post_init__(self):
        _check_point(self.center, "center")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")


@dataclass
class Box:
    min: tuple
    max: tuple

    def __post_init__(self):
        if not (_check_point(self.min, "min") < _check_point(self.max, "max")).all():
            raise ValueError("min must be below max on every axis")


@dataclass
class Plane:
    """Half-space boundary: sdf = normal . x - offset (normal unit)."""

    normal: tuple
    offset: float

    def __post_init__(self):
        if not np.linalg.norm(_check_point(self.normal, "normal")) > 0:
            raise ValueError("normal must be nonzero")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")


class Scene:
    """Union-of-primitives SDF, packed into arrays for the trace kernels."""

    def __init__(self, primitives):
        self.primitives = list(primitives)
        self.types = np.zeros(len(self.primitives), dtype=np.int8)
        self.params = np.zeros((len(self.primitives), 6))
        for i, prim in enumerate(self.primitives):
            if isinstance(prim, Sphere):
                self.types[i], self.params[i, :4] = PRIM_SPHERE, (*prim.center, prim.radius)
            elif isinstance(prim, Box):
                self.types[i], self.params[i] = PRIM_BOX, (*prim.min, *prim.max)
            elif isinstance(prim, Plane):
                norm = np.linalg.norm(prim.normal)
                self.types[i] = PRIM_PLANE
                self.params[i, :4] = (*np.divide(prim.normal, norm), prim.offset / norm)
            else:
                raise TypeError(f"unknown primitive {type(prim).__name__}")

    def sdf(self, points):
        """Signed distance (min over primitives) at (n, 3) points."""
        return scene_sdf_points(points, self.types, self.params)

    def normals(self, points, h: float = 1e-5):
        """Unit SDF gradient by central differences."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        g = np.empty_like(pts)
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = h
            g[:, a] = self.sdf(pts + dp) - self.sdf(pts - dp)
        return g / np.maximum(np.linalg.norm(g, axis=1), 1e-300)[:, None]


def room(vmin, vmax):
    """Six inward-facing planes enclosing an axis-aligned room."""
    return [wall for a, axis in enumerate(np.eye(3))  # 0.0 - axis keeps off-axis entries +0.0
            for wall in (Plane(tuple(axis), vmin[a]), Plane(tuple(0.0 - axis), -vmax[a]))]


@dataclass
class RayModel:
    """The sensor's azimuth/elevation raster, range limit and range noise."""

    azimuth_count: int = 256
    elevation_count: int = 32
    elevation_min_deg: float = -45.0
    elevation_max_deg: float = 45.0
    max_range: float = 30.0
    beta: float = 0.0  # range noise std = beta * range

    def __post_init__(self):
        if min(self.azimuth_count, self.elevation_count) < 1:
            raise ValueError("ray counts must be >= 1")
        if not np.isfinite([self.elevation_min_deg, self.elevation_max_deg]).all():
            raise ValueError("elevation_min_deg and elevation_max_deg must be finite")
        if self.elevation_min_deg > self.elevation_max_deg:
            raise ValueError("elevation_min_deg must be <= elevation_max_deg")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not self.max_range < np.inf:
            raise ValueError("max_range must be finite")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if not self.beta < np.inf:
            raise ValueError("beta must be finite")


@dataclass
class LidarModel(RayModel):
    seed: int = 0  # of the range noise stream


def ray_directions(model: RayModel):
    """Sensor-frame unit directions, elevation-major then azimuth."""
    el = np.deg2rad(
        np.linspace(model.elevation_min_deg, model.elevation_max_deg, model.elevation_count)
    )
    az = np.arange(model.azimuth_count) * (2.0 * np.pi / model.azimuth_count)
    ce, se = np.cos(el), np.sin(el)
    ca, sa = np.cos(az), np.sin(az)
    dirs = np.empty((model.elevation_count, model.azimuth_count, 3))
    dirs[:, :, 0] = ce[:, None] * ca[None, :]
    dirs[:, :, 1] = ce[:, None] * sa[None, :]
    dirs[:, :, 2] = se[:, None]
    return dirs.reshape(-1, 3)


def simulate_scan(pose, model: LidarModel, scene: Scene, frame_id: int = 0):
    """Trace one raster scan; returns (Scan, true normals at the hits).

    Misses are omitted. Noise perturbs each return along its ray, drawn
    from the model's stream for this frame; the reported normals are the
    SDF gradients at the noiseless hits.
    """
    pose = np.asarray(pose, dtype=np.float64).reshape(3, 4)
    origin = pose[:, 3]
    dirs = ray_directions(model) @ pose[:, :3].T
    origins = np.broadcast_to(origin, dirs.shape)
    t = trace_rays(
        np.ascontiguousarray(origins),
        np.ascontiguousarray(dirs),
        scene.types,
        scene.params,
        model.max_range,
        TRACE_EPS,
        TRACE_MAX_STEPS,
    )
    hit = t >= 0.0
    ranges = t[hit]
    hit_dirs = dirs[hit]
    exact = origin + ranges[:, None] * hit_dirs
    rng = np.random.default_rng(np.random.SeedSequence([model.seed, frame_id]))
    noisy_range = ranges + rng.standard_normal(ranges.shape[0]) * (model.beta * ranges)
    points = origin + noisy_range[:, None] * hit_dirs
    normals = scene.normals(exact) if exact.shape[0] else np.zeros((0, 3))
    return Scan(origin=origin, points=points, frame_id=frame_id), normals


def ground_truth_mesh(scene: Scene, bounds, spacing: float = 0.05) -> TriMesh:
    """Marching cubes directly over the analytic scene SDF."""
    grid = sdf_grid_from_function(scene.sdf, bounds, spacing)
    return extract_mesh(grid)  # raises NoSurface for empty level sets


def orbit_poses(n_frames: int, radius: float, height: float):
    """Identity-rotation poses on a horizontal circle about the z axis (world-frame rig)."""
    poses = []
    for k in range(n_frames):
        phi = 2.0 * np.pi * k / max(n_frames, 1)
        t = np.array([radius * np.cos(phi), radius * np.sin(phi), height])
        pose = np.zeros((3, 4))
        pose[:, :3] = np.eye(3)
        pose[:, 3] = t
        poses.append(pose)
    return poses
