"""Replay pool: window-pruned, voxel-bucketed sample store.

Samples are bucketed on the coarsest grid level's voxel lattice; the
Mapper derives that spacing from `max(voxel_sizes)` and hands it to the
pool, so the pool and the perturbation field share one lattice. Each
frame the pool drops samples outside a sliding window around the sensor
and caps every bucket at `capacity` samples, keeping the lowest expected
squared error (bias^2 + variance, from incidence angle and range). Old,
oblique, far samples die first; memory plateaus once the local window
saturates.
"""

from dataclasses import dataclass

import numpy as np

from .hashmap import pack_coords, unpack_key


@dataclass
class PoolConfig:
    capacity: int = 256  # max samples per bucket
    prune_radius: float = 50.0  # window radius, also normalizes range
    alpha: float = 1.0  # range-variance scale

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not (self.alpha > 0 and self.prune_radius > 0):
            raise ValueError("alpha and prune_radius must be positive")


def reliability_mse(ray_len, cos_incidence, cfg: PoolConfig):
    """Expected squared error of a sample: bias^2 + variance.

    bias = 1 - cos(theta) (projective-distance overshoot, depth term
    dropped), std = alpha * range / prune_radius.
    """
    bias = 1.0 - np.asarray(cos_incidence, dtype=np.float64)
    sigma = cfg.alpha * np.asarray(ray_len, dtype=np.float64) / cfg.prune_radius
    return bias * bias + sigma * sigma


_COLUMNS = ("pos", "label", "ray_len", "cos_inc", "mse", "frame_id", "seq", "bucket")


class ReplayPool:
    """Columnar sample store; rows stay in insertion order."""

    def __init__(self, voxel_size: float = 0.45, capacity: int = 256,
                 prune_radius: float = 50.0):
        self.voxel_size = float(voxel_size)
        self.capacity = int(capacity)
        self.prune_radius = float(prune_radius)
        self.pos = np.zeros((0, 3))
        self.label = np.zeros(0)
        self.ray_len = np.zeros(0)
        self.cos_inc = np.zeros(0)
        self.mse = np.zeros(0)
        self.frame_id = np.zeros(0, dtype=np.int32)
        self.seq = np.zeros(0, dtype=np.int64)
        self.bucket = np.zeros(0, dtype=np.int64)  # packed bucket key
        self._next_seq = 0

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    def __len__(self) -> int:
        return self.n

    def bucket_of(self, u):
        """Integer bucket coordinates floor(u / voxel_size) per axis."""
        return np.floor(np.asarray(u, dtype=np.float64) / self.voxel_size).astype(np.int64)

    def _take(self, idx):
        self.pos = self.pos[idx]
        self.label = self.label[idx]
        self.ray_len = self.ray_len[idx]
        self.cos_inc = self.cos_inc[idx]
        self.mse = self.mse[idx]
        self.frame_id = self.frame_id[idx]
        self.seq = self.seq[idx]
        self.bucket = self.bucket[idx]

    def insert(self, batch, frame_id: int):
        """Append a SampleBatch; rows get consecutive sequence numbers."""
        m = len(batch)
        if m == 0:
            return
        self.pos = np.concatenate([self.pos, batch.pos])
        self.label = np.concatenate([self.label, batch.label])
        self.ray_len = np.concatenate([self.ray_len, batch.ray_len])
        self.cos_inc = np.concatenate([self.cos_inc, batch.cos_inc])
        self.mse = np.concatenate([self.mse, batch.mse])
        self.frame_id = np.concatenate(
            [self.frame_id, np.full(m, frame_id, dtype=np.int32)]
        )
        self.seq = np.concatenate(
            [self.seq, np.arange(self._next_seq, self._next_seq + m, dtype=np.int64)]
        )
        self._next_seq += m
        self.bucket = np.concatenate([self.bucket, pack_coords(self.bucket_of(batch.pos))])

    def prune_window(self, origin) -> int:
        """Drop samples with ||u - origin|| >= prune_radius; returns count."""
        if self.n == 0:
            return 0
        o = np.asarray(origin, dtype=np.float64).reshape(3)
        keep = np.linalg.norm(self.pos - o, axis=1) < self.prune_radius
        evicted = int(self.n - keep.sum())
        if evicted:
            self._take(keep)
        return evicted

    def enforce_capacity(self) -> int:
        """Cap each bucket at `capacity` samples, keeping the lowest mse.

        Ties keep newer frames first, then earlier insertion order.
        """
        if self.n == 0:
            return 0
        order = np.lexsort((self.seq, -self.frame_id.astype(np.int64), self.mse, self.bucket))
        b = self.bucket[order]
        new_group = np.r_[True, b[1:] != b[:-1]]
        group_start = np.flatnonzero(new_group)
        sizes = np.diff(np.r_[group_start, b.size])
        rank = np.arange(b.size) - np.repeat(group_start, sizes)
        keep = order[rank < self.capacity]
        evicted = self.n - keep.size
        if evicted:
            self._take(np.sort(keep))  # restore insertion order
        return int(evicted)

    def occupied_buckets(self):
        """Unique packed bucket keys currently holding samples."""
        return np.unique(self.bucket)

    def bucket_centers(self, keys=None):
        """World centers of (given or all occupied) packed bucket keys."""
        if keys is None:
            keys = self.occupied_buckets()
        return (unpack_key(keys) + 0.5) * self.voxel_size

    def bucket_sizes(self):
        """(keys, counts) over occupied buckets."""
        return np.unique(self.bucket, return_counts=True)
