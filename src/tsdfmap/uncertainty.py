"""Epistemic uncertainty via a zero-valued perturbation field.

A virtual 3-vector displacement field sits on the vertices of the
coarsest grid level's lattice; the Mapper derives that spacing from
`max(voxel_sizes)`, so the field shares its lattice with the replay
pool's buckets. It is never trained or applied, it only defines
Jacobians. For a sample at u with trilinear weight w_v at vertex v, the
output Jacobian w.r.t. that vertex's displacement is w_v * grad_x s(u),
so the diagonal Fisher accumulates w_v^2 * grad^2 per component. Vertex
variance is the Laplace-approximation diagonal 1 / (fisher + gamma^-2);
a fresh vertex has prior variance gamma^2 per component. Query sigma is
the norm of the trilinearly interpolated variance vector; supervision
can only shrink it, so high sigma marks poorly constrained map regions.

Batches then mix `n_uncertain` draws from the uncertain buckets with
bulk draws from the certain ones, focusing optimization on regions the
map has not yet absorbed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPool
from .grid import CORNER_OFFSETS, cell_of, trilinear_weights
from .hashmap import VoxelHash, pack_coords
from .kernels.scatter import scatter_add_rows


@dataclass
class UncertaintyConfig:
    gamma: float = 1.0  # prior std of the virtual displacement
    threshold: float = 0.98  # on per-frame min-max normalized sigma

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


class PerturbField:
    """Per-vertex 3-component Fisher accumulators on a coarse lattice."""

    def __init__(self, grid_size: float = 0.45, gamma: float = 1.0):
        self.grid_size = float(grid_size)
        self.gamma = float(gamma)
        self.vertices = VoxelHash()
        self._fisher = np.zeros((0, 3))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def fisher(self):
        return self._fisher[: self.n_vertices]

    def _ensure_rows(self, n: int):
        cap = self._fisher.shape[0]
        if n <= cap:
            return
        buf = np.zeros((max(n, 2 * cap, 256), 3))
        buf[:cap] = self._fisher
        self._fisher = buf

    def accumulate(self, positions, spatial_grads):
        """Add w_v^2 * grad^2 to the 8 enclosing vertices per sample."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        g2 = np.square(np.asarray(spatial_grads, dtype=np.float64).reshape(-1, 3))
        base, frac = cell_of(pos, self.grid_size)
        keys = pack_coords(base[:, None, :] + CORNER_OFFSETS[None, :, :])
        rows = self.vertices.insert(keys.ravel())
        self._ensure_rows(self.n_vertices)
        w2 = np.square(trilinear_weights(frac))  # (n, 8)
        contrib = (w2[:, :, None] * g2[:, None, :]).reshape(-1, 3)
        scatter_add_rows(self._fisher, rows, contrib)

    def vertex_variance(self):
        """Diagonal posterior variance per allocated vertex (n, 3)."""
        return 1.0 / (self.fisher + self.gamma ** -2)

    def query_sigma(self, points):
        """Norm of the interpolated variance vector at each point.

        Vertices never touched by supervision contribute the prior
        variance gamma^2 per component, so untouched space reads
        sqrt(3) * gamma^2.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        base, frac = cell_of(pts, self.grid_size)
        keys = pack_coords(base[:, None, :] + CORNER_OFFSETS[None, :, :])
        rows = self.vertices.lookup(keys.ravel()).reshape(-1, 8)
        fisher = np.zeros(rows.shape + (3,))
        hit = rows >= 0
        if hit.any():
            fisher[hit] = self._fisher[rows[hit]]
        var = 1.0 / (fisher + self.gamma ** -2)  # (n, 8, 3)
        w = trilinear_weights(frac)
        return np.linalg.norm(np.einsum("nc,nci->ni", w, var), axis=1)


@dataclass
class VoxelPartition:
    """Occupied pool buckets split at a normalized-sigma threshold."""

    uncertain: np.ndarray  # packed bucket keys, sorted
    certain: np.ndarray
    keys: np.ndarray  # all evaluated bucket keys, sorted
    sigma: np.ndarray  # raw sigma per key
    normalized: np.ndarray  # min-max normalized sigma per key
    threshold: float


def partition_voxels(pool, field: PerturbField, threshold: float = 0.98) -> VoxelPartition:
    """Split occupied pool buckets into uncertain/certain sets.

    Sigma is evaluated at bucket centers and min-max normalized over
    this call; buckets at or above the threshold are uncertain. If all
    sigmas are equal (e.g. nothing accumulated yet) every bucket is
    certain.
    """
    if pool.n == 0:
        raise EmptyPool("cannot partition an empty pool")
    keys = pool.occupied_buckets()
    sigma = field.query_sigma(pool.bucket_centers(keys))
    lo, hi = float(sigma.min()), float(sigma.max())
    if hi == lo:
        normalized = np.zeros_like(sigma)
    else:
        normalized = (sigma - lo) / (hi - lo)
    unc = normalized >= threshold
    return VoxelPartition(
        uncertain=keys[unc],
        certain=keys[~unc],
        keys=keys,
        sigma=sigma,
        normalized=normalized,
        threshold=threshold,
    )


def draw_batch(pool, partition, batch_size: int, n_uncertain: int, rng):
    """Row indices into the pool for one training batch.

    Draws uniformly with replacement: min(n_uncertain, #samples in
    uncertain buckets) rows from the uncertain side, the remainder from
    the certain side, backfilling across sides when one is empty. With
    partition=None the whole pool is drawn uniformly (the non-guided
    baseline). Always returns exactly batch_size rows. The caller
    guarantees 0 <= n_uncertain <= batch_size, as `TrainConfig` does.
    """
    if pool.n == 0:
        raise EmptyPool("cannot draw a batch from an empty pool")
    if partition is None:
        return rng.integers(0, pool.n, size=batch_size)
    unc_mask = _bucket_member(pool.bucket, partition.uncertain)
    unc_rows = np.flatnonzero(unc_mask)
    cer_rows = np.flatnonzero(~unc_mask)
    n_unc = min(n_uncertain, unc_rows.size)
    if cer_rows.size == 0:
        n_unc = batch_size  # certain side empty: all draws uncertain
    n_cer = batch_size - n_unc
    parts = []
    if n_unc:
        parts.append(unc_rows[rng.integers(0, unc_rows.size, size=n_unc)])
    if n_cer:
        src = cer_rows if cer_rows.size else unc_rows
        parts.append(src[rng.integers(0, src.size, size=n_cer)])
    return np.concatenate(parts)


def _bucket_member(buckets, sorted_keys):
    """Membership of packed bucket ids in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(buckets.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_keys, buckets)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == buckets
