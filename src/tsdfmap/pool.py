"""Replay pool: the active-pooling policy, under one `PoolConfig`.

`insert` scores each sample's expected squared error (bias^2 + variance,
from its ray's incidence angle and range) and buckets it on the coarsest
grid level's lattice, which the Mapper shares with the perturbation
field. Each frame the pool drops samples outside a sliding window around
the sensor and caps every bucket at `capacity` samples, keeping the
lowest scores. Old, oblique, far samples die first; memory plateaus once
the local window saturates.
"""

from dataclasses import dataclass

import numpy as np

from .grid import cell_keys, cell_of
from .hashmap import unpack_key


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

    def __init__(self, voxel_size: float, cfg: PoolConfig = None):
        self.voxel_size = float(voxel_size)
        self.cfg = cfg if cfg is not None else PoolConfig()
        for name, dtype, shape in _COLUMNS:
            setattr(self, name, np.zeros((0, *shape), dtype=dtype))
        self._next_seq = 0

    @property
    def capacity(self) -> int:
        return self.cfg.capacity

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    def _take(self, keep):
        """Keep the rows where the boolean mask `keep` is set, in their order."""
        rows = np.flatnonzero(keep)
        for name, _, _ in _COLUMNS:
            setattr(self, name, np.take(getattr(self, name), rows, axis=0))

    def insert(self, batch, frame_id: int):
        """Append a SampleBatch, scored; rows get consecutive sequence numbers."""
        m = len(batch)
        if m == 0:
            return
        # the other columns come from the batch's fields of the same name
        derived = {
            "mse": reliability_mse(batch.ray_len, batch.cos_inc, self.cfg),
            "frame_id": np.full(m, frame_id, dtype=np.int32),
            "seq": np.arange(self._next_seq, self._next_seq + m, dtype=np.int64),
            "bucket": cell_keys(cell_of(batch.pos, self.voxel_size)[0]),
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
        # ((dx^2 + dy^2) + dz^2), then sqrt: np.linalg.norm(axis=1), bit for bit
        dist = np.zeros(self.n)
        for a in range(3):
            d = self.pos[:, a] - o[a]
            dist += d * d
        keep = np.sqrt(dist, out=dist) < self.cfg.prune_radius
        evicted = int(self.n - keep.sum())
        if evicted:
            self._take(keep)
        return evicted

    def enforce_capacity(self) -> int:
        """Cap each bucket at `capacity` samples, keeping the lowest mse.

        Ties keep newer frames first, then earlier insertion order. Only
        the rows of buckets over capacity are ranked: rows sit in
        insertion order, and `lexsort` is stable.
        """
        if self.n == 0:
            return 0
        _, inverse, counts = np.unique(self.bucket, return_inverse=True, return_counts=True)
        rows = np.flatnonzero((counts > self.capacity)[inverse])
        if rows.size == 0:
            return 0
        order = rows[np.lexsort((-self.frame_id[rows].astype(np.int64), self.mse[rows],
                                 inverse[rows]))]
        b = inverse[order]
        group_start = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        rank = np.arange(b.size) - np.repeat(group_start, np.diff(np.r_[group_start, b.size]))
        evict = order[rank >= self.capacity]
        keep = np.ones(self.n, dtype=bool)
        keep[evict] = False
        self._take(keep)
        return int(evict.size)

    def bucket_centers(self, keys):
        """World centers of packed bucket keys."""
        return (unpack_key(keys) + 0.5) * self.voxel_size

    def bucket_sizes(self):
        """(keys, counts) over occupied buckets."""
        return np.unique(self.bucket, return_counts=True)
