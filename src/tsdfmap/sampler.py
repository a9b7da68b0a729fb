"""Turn a posed LiDAR scan into truncated-SDF supervision samples.

Per ray with endpoint p and origin o (range ||r||, r = p - o):
  1 surface sample at depth ||r|| (label 0),
  n_front  at depth U(||r|| - trunc, ||r||),
  n_behind at depth U(||r||, ||r|| + trunc),
  n_free   at depth U(min_range, ||r|| - trunc)   (skipped for short rays).
Labels are the projective distance ||r|| - d clamped to [-trunc, +trunc],
so free-space samples sit exactly at +trunc. Each sample also carries the
generating ray's length and incidence cosine, from which the replay pool
scores reliability; the sampler emits geometry only.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grid import cell_of

# eigenvalue ratio below which a PCA neighborhood counts as degenerate
# (collinear or coincident points: the normal direction is ambiguous)
_DEGENERATE_RATIO = 1e-8


@dataclass
class Scan:
    """One posed scan: world-frame origin and endpoints."""

    origin: np.ndarray  # (3,)
    points: np.ndarray  # (n, 3) world frame
    frame_id: int = 0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)


@dataclass
class SamplerConfig:
    n_front: int = 3
    n_behind: int = 1
    n_free: int = 2
    trunc_dist: float = 0.3
    min_range: float = 0.3
    normal_k: int = 20
    cos_eps: float = 1e-3
    downsample_voxel: float = 0.0  # 0 disables input decimation

    def __post_init__(self):
        if min(self.n_front, self.n_behind, self.n_free) < 0:
            raise ValueError("sample counts must be nonnegative")
        if not self.trunc_dist > 0:
            raise ValueError("trunc_dist must be positive")
        if not self.trunc_dist < np.inf:
            raise ValueError("trunc_dist must be finite")
        if not self.min_range > 0:
            raise ValueError("min_range must be positive")
        if not self.min_range < np.inf:
            raise ValueError("min_range must be finite")
        if self.normal_k < 3:  # k counts the point itself; a plane needs 3 points
            raise ValueError("normal_k must be >= 3")
        if not 0 < self.cos_eps <= 1:
            raise ValueError("cos_eps must lie in (0, 1]")
        if not 0 <= self.downsample_voxel < np.inf:
            raise ValueError("downsample_voxel must be finite and nonnegative (0 is off)")


@dataclass
class SampleBatch:
    """Columnar supervision samples (one row per sample); the pool scores them."""

    pos: np.ndarray  # (m, 3)
    label: np.ndarray  # (m,) in [-trunc, +trunc]
    ray_len: np.ndarray  # (m,) generating-ray length
    cos_inc: np.ndarray  # (m,) incidence cosine of the generating ray

    def __len__(self) -> int:
        return self.pos.shape[0]


def voxel_downsample(points, voxel_size):
    """Keep the first point per voxel (deterministic decimation)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cells = cell_of(pts, voxel_size)[0]
    # lexicographic unique over rows, keeping first occurrence
    _, first = np.unique(cells, axis=0, return_index=True)
    return pts[np.sort(first)]


# the six distinct entries (a, b), a <= b, of a symmetric 3x3 covariance
_COV_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _neighbour_covariance(pts, idx):
    """(n, 3, 3) covariance of each point's neighbours pts[idx[i]], idx (n, k).

    The neighbours are gathered as a (3, k, n) block, so every step runs
    over a contiguous row of n points. The mean and each covariance
    entry are sums over the neighbours in order, starting from zero,
    then divided by k: the arithmetic, in the same order, of
    `mean(axis=1)` and `einsum("nki,nkj->nij")` over the (n, k, 3) gather.
    """
    n, k = idx.shape
    block = np.take(np.ascontiguousarray(pts.T), np.ascontiguousarray(idx.T), axis=1)
    mean = np.zeros((3, n))
    for j in range(k):
        mean += block[:, j]
    mean /= k
    block -= mean[:, None, :]
    cov = np.empty((n, 3, 3))
    acc, prod = np.empty(n), np.empty(n)
    for a, b in _COV_ENTRIES:
        acc[:] = 0.0
        for j in range(k):
            acc += np.multiply(block[a, j], block[b, j], out=prod)
        acc /= k
        cov[:, a, b] = acc
        cov[:, b, a] = acc
    return cov


def estimate_normals(scan: Scan, k: int):
    """PCA normals over k nearest neighbors, oriented toward the sensor.

    Returns (normals (n, 3), degenerate (n,) bool). Degenerate
    neighborhoods (collinear/coincident) and scans of fewer than 3 points
    fall back to the reversed ray direction and are flagged. The scan is
    gated (`Mapper._gate`), so every point has a ray. k counts the point
    itself and must be at least 3: fewer points span no plane.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    pts = scan.points
    n = pts.shape[0]
    to_sensor = scan.origin[None, :] - pts
    if n < 3:
        return to_sensor / np.linalg.norm(to_sensor, axis=1)[:, None], np.ones(n, dtype=bool)

    k_eff = min(k, n)
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)  # quicker to build
    _, idx = tree.query(pts, k=k_eff)
    evals, evecs = np.linalg.eigh(_neighbour_covariance(pts, idx))  # ascending eigenvalues
    normals = evecs[:, :, 0]

    degenerate = evals[:, 1] <= _DEGENERATE_RATIO * np.maximum(evals[:, 2], 1e-300)
    degenerate |= ~np.isfinite(normals).all(axis=1)
    # face the sensor: n . (o - p) >= 0
    flip = np.einsum("ni,ni->n", normals, to_sensor) < 0
    normals[flip] *= -1.0
    back = to_sensor[degenerate]
    normals[degenerate] = back / np.linalg.norm(back, axis=1)[:, None]
    return normals, degenerate


def generate_samples(scan: Scan, normals, cfg: SamplerConfig, rng) -> SampleBatch:
    """Emit supervision samples for every ray of a gated scan.

    `Mapper._gate` admits only finite, packable returns off the sensor
    origin, so every point has a ray of positive length; an empty scan
    gives an empty batch. Each sample's incidence cosine is
    |normal . ray| / |ray| clamped to [cos_eps, 1]. Sample order is fixed
    (surface block, then front, behind, free-space blocks, each
    ray-major), so a seeded rng reproduces batches exactly.
    """
    rays = scan.points - scan.origin[None, :]
    ray_len = np.linalg.norm(rays, axis=1)
    dirs = rays / ray_len[:, None]
    cos = np.clip(np.abs(np.einsum("ni,ni->n", normals, rays)) / ray_len, cfg.cos_eps, 1.0)
    n = rays.shape[0]
    dt = cfg.trunc_dist

    depth_blocks = [ray_len[:, None]]  # surface
    ray_blocks = [np.arange(n)]
    if cfg.n_front > 0:
        lo = np.maximum(ray_len - dt, 0.0)
        d = lo[:, None] + rng.random((n, cfg.n_front)) * (ray_len - lo)[:, None]
        depth_blocks.append(d)
        ray_blocks.append(np.repeat(np.arange(n), cfg.n_front))
    if cfg.n_behind > 0:
        d = ray_len[:, None] + rng.random((n, cfg.n_behind)) * dt
        depth_blocks.append(d)
        ray_blocks.append(np.repeat(np.arange(n), cfg.n_behind))
    if cfg.n_free > 0:
        hi = ray_len - dt
        fmask = hi > cfg.min_range
        m = int(fmask.sum())
        if m:
            d = cfg.min_range + rng.random((m, cfg.n_free)) * (hi[fmask] - cfg.min_range)[:, None]
            depth_blocks.append(d)
            ray_blocks.append(np.repeat(np.flatnonzero(fmask), cfg.n_free))

    depth = np.concatenate([b.ravel() for b in depth_blocks])
    ray_idx = np.concatenate(ray_blocks)
    pos = scan.origin[None, :] + depth[:, None] * dirs[ray_idx]
    rl = ray_len[ray_idx]
    label = np.clip(rl - depth, -dt, dt)
    label[: n] = 0.0  # surface block: exact zeros, no roundoff residue
    return SampleBatch(pos, label, rl, cos[ray_idx])
