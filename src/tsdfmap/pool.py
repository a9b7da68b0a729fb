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
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.prune_radius > 0:
            raise ValueError("prune_radius must be positive")


def reliability_mse(ray_len, cos_incidence, cfg: PoolConfig):
    """Expected squared error of a sample: bias^2 + variance.

    bias = 1 - cos(theta) (projective-distance overshoot, depth term
    dropped), std = alpha * range / prune_radius.
    """
    bias = 1.0 - np.asarray(cos_incidence, dtype=np.float64)
    sigma = cfg.alpha * np.asarray(ray_len, dtype=np.float64) / cfg.prune_radius
    return bias * bias + sigma * sigma


# (name, dtype, trailing shape) of every pool column, in checkpoint order
_COLUMNS = (
    ("pos", np.float64, (3,)),
    ("label", np.float64, ()),
    ("ray_len", np.float64, ()),
    ("cos_inc", np.float64, ()),
    ("mse", np.float64, ()),
    ("frame_id", np.int32, ()),
    ("seq", np.int64, ()),
    ("bucket", np.int64, ()),  # packed bucket key
)


class ReplayPool:
    """Columnar sample store; rows stay in insertion order."""

    def __init__(self, voxel_size: float = 0.45, capacity: int = 256,
                 prune_radius: float = 50.0):
        self.voxel_size = float(voxel_size)
        self.capacity = int(capacity)
        self.prune_radius = float(prune_radius)
        for name, dtype, shape in _COLUMNS:
            setattr(self, name, np.zeros((0, *shape), dtype=dtype))
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
        for name, _, _ in _COLUMNS:
            setattr(self, name, getattr(self, name)[idx])

    def insert(self, batch, frame_id: int):
        """Append a SampleBatch; rows get consecutive sequence numbers."""
        m = len(batch)
        if m == 0:
            return
        # the other columns come from the batch's fields of the same name
        derived = {
            "frame_id": np.full(m, frame_id, dtype=np.int32),
            "seq": np.arange(self._next_seq, self._next_seq + m, dtype=np.int64),
            "bucket": pack_coords(self.bucket_of(batch.pos)),
        }
        self._next_seq += m
        for name, _, _ in _COLUMNS:
            new = derived[name] if name in derived else getattr(batch, name)
            setattr(self, name, np.concatenate([getattr(self, name), new]))

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
