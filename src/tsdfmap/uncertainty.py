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
from .grid import cell_keys, cell_of, cell_rows, corner_keys, grow_rows, trilinear_weights
from .hashmap import VoxelHash
from .kernels.scatter import scatter_add_rows


@dataclass
class UncertaintyConfig:
    gamma: float = 1.0  # prior std of the virtual displacement
    threshold: float = 0.98  # on per-frame min-max normalized sigma

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


class PerturbField:
    """Per-vertex 3-component Fisher accumulators on a coarse lattice."""

    def __init__(self, grid_size: float, gamma: float):
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

    def ensure_rows(self, n: int):
        self._fisher = grow_rows(self._fisher, n)

    def accumulate(self, positions, spatial_grads):
        """Add w_v^2 * grad^2 to the 8 enclosing vertices per sample."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        g2 = np.square(np.asarray(spatial_grads, dtype=np.float64).reshape(-1, 3))
        base, frac = cell_of(pos, self.grid_size)
        rows = self.vertices.insert(corner_keys(cell_keys(base)))
        self.ensure_rows(self.n_vertices)
        w2 = np.square(trilinear_weights(frac))  # (n, 8)
        contrib = (w2[:, :, None] * g2[:, None, :]).reshape(-1, 3)
        scatter_add_rows(self._fisher, rows, contrib)

    def _variance(self, fisher):
        return 1.0 / (fisher + self.gamma ** -2)

    def vertex_variance(self):
        """Diagonal posterior variance per allocated vertex (n, 3)."""
        return self._variance(self.fisher)

    def query_sigma(self, points):
        """Norm of the interpolated variance vector at each point.

        Vertices never touched by supervision contribute the prior
        variance gamma^2 per component, so untouched space reads
        sqrt(3) * gamma^2.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        rows, inverse, frac = cell_rows(self.vertices, self.grid_size, pts)
        fisher = np.zeros(rows.shape + (3,))
        hit = rows >= 0
        if hit.any():
            fisher[hit] = self._fisher[rows[hit]]
        var = self._variance(fisher)[inverse]  # (n, 8, 3)
        return np.linalg.norm(np.einsum("nc,nci->ni", trilinear_weights(frac), var), axis=1)


@dataclass
class VoxelPartition:
    """Occupied pool buckets and their rows, split at a normalized-sigma threshold."""

    uncertain: np.ndarray  # packed bucket keys, sorted
    certain: np.ndarray
    sigma: np.ndarray  # raw sigma per occupied bucket, in sorted key order
    uncertain_rows: np.ndarray  # ascending pool rows in uncertain buckets
    certain_rows: np.ndarray  # ascending pool rows in certain buckets


def partition_voxels(pool, field: PerturbField, threshold: float) -> VoxelPartition:
    """Split occupied pool buckets and their rows into uncertain/certain sets.

    Sigma is evaluated at bucket centers and min-max normalized over
    this call; buckets at or above the threshold are uncertain. If all
    sigmas are equal (e.g. nothing accumulated yet) every bucket is
    certain.
    """
    if pool.n == 0:
        raise EmptyPool("cannot partition an empty pool")
    keys, inverse = np.unique(pool.bucket, return_inverse=True)
    sigma = field.query_sigma(pool.bucket_centers(keys))
    lo, hi = float(sigma.min()), float(sigma.max())
    if hi == lo:
        normalized = np.zeros_like(sigma)
    else:
        normalized = (sigma - lo) / (hi - lo)
    unc = normalized >= threshold
    row_unc = unc[inverse]
    return VoxelPartition(
        uncertain=keys[unc],
        certain=keys[~unc],
        sigma=sigma,
        uncertain_rows=np.flatnonzero(row_unc),
        certain_rows=np.flatnonzero(~row_unc),
    )


def draw_batch(pool, partition, batch_size: int, n_uncertain: int, rng):
    """Row indices into the pool for one training batch.

    Draws uniformly with replacement: min(n_uncertain, #samples in
    uncertain buckets) rows from the uncertain side and the remainder
    from the certain side; when the certain side is empty every row is
    uncertain. With partition=None the whole pool is drawn uniformly
    (the non-guided baseline). Always returns exactly batch_size rows.
    The caller guarantees 0 <= n_uncertain <= batch_size, as
    `TrainConfig` does.
    """
    if pool.n == 0:
        raise EmptyPool("cannot draw a batch from an empty pool")
    if partition is None:
        return rng.integers(0, pool.n, size=batch_size)
    unc_rows, cer_rows = partition.uncertain_rows, partition.certain_rows
    n_unc = min(n_uncertain, unc_rows.size)
    if cer_rows.size == 0:
        n_unc = batch_size  # certain side empty: all draws uncertain
    n_cer = batch_size - n_unc
    parts = []
    if n_unc:
        parts.append(unc_rows[rng.integers(0, unc_rows.size, size=n_unc)])
    if n_cer:
        parts.append(cer_rows[rng.integers(0, cer_rows.size, size=n_cer)])
    return np.concatenate(parts)
