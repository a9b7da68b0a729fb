"""Multi-resolution sparse voxel feature grid with trilinear queries.

Each level is an independent integer lattice (vertex spacing = level
voxel size). A learnable feature vector lives at every allocated corner
vertex; a point query sums the trilinear interpolation of the eight
enclosing corner features over all levels, so the aggregated feature
keeps dimension ``feature_dim``. Features initialize to zero, which
makes unseen regions decode to the decoder's zero-feature output.
"""

from typing import NamedTuple

import numpy as np

from .errors import UnallocatedQuery
from .hashmap import VoxelHash, pack_coords, unpack_key

# Corner c = 4*bx + 2*by + bz, bits along x, y, z.
CORNER_OFFSETS = np.array(
    [
        [0, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [1, 1, 1],
    ],
    dtype=np.int64,
)
_XB = CORNER_OFFSETS[:, 0]
_YB = CORNER_OFFSETS[:, 1]
_ZB = CORNER_OFFSETS[:, 2]
_SIGN = np.where(CORNER_OFFSETS == 0, -1.0, 1.0)  # (8, 3) d(axis factor)/dt


def cell_of(points, voxel_size):
    """Integer cell coordinates and in-cell fractions for points."""
    scaled = np.asarray(points, dtype=np.float64) / voxel_size
    base = np.floor(scaled).astype(np.int64)
    return base, scaled - base


def corner_keys(cells):
    """(n, 3) integer cells -> (n, 8) packed keys of their corner vertices."""
    return pack_coords(cells[:, None, :] + CORNER_OFFSETS[None, :, :])


def distinct_cells(points, voxel_size):
    """The distinct cells that (n, 3) points fall in, and how to broadcast back.

    Returns (cells (m, 3) in key order, inverse (n,) with point i in
    cells[inverse[i]], fractions (n, 3) per point). Points share cells, so
    per-cell work (corner keys, hash lookups) is done m times, not n.
    """
    base, frac = cell_of(points, voxel_size)
    uniq, inverse = np.unique(pack_coords(base), return_inverse=True)
    return unpack_key(uniq), inverse.ravel(), frac


def grow_rows(buf, n: int):
    """`buf`, or a zero-padded copy with capacity max(n, 2 * cap, 256) if n > cap."""
    cap = buf.shape[0]
    if n <= cap:
        return buf
    out = np.zeros((max(n, 2 * cap, 256),) + buf.shape[1:], dtype=buf.dtype)
    out[:cap] = buf
    return out


def _axis_factors(frac):
    """(n, 3) cell fractions -> the x, y and z factor of each corner, each (n, 8)."""
    f = np.stack([1.0 - frac, frac], axis=2)  # (n, 3, 2)
    return f[:, 0, _XB], f[:, 1, _YB], f[:, 2, _ZB]


def trilinear_weights(frac):
    """(n, 3) cell fractions -> (n, 8) barycentric corner weights."""
    fx, fy, fz = _axis_factors(frac)
    return fx * fy * fz


def trilinear_weight_gradients(frac, voxel_size):
    """d(weight)/d(world position): (n, 3) fractions -> (n, 8, 3)."""
    fx, fy, fz = _axis_factors(frac)
    return np.stack([_SIGN[:, 0] * fy * fz, _SIGN[:, 1] * fx * fz, _SIGN[:, 2] * fx * fy],
                    axis=2) / voxel_size


class InterpRecord(NamedTuple):
    """Per-level vertex rows and weights retained for the backward pass."""

    rows: np.ndarray  # (n, L, 8) int64
    weights: np.ndarray  # (n, L, 8) float64
    fracs: np.ndarray  # (n, L, 3) float64

    def take(self, idx):
        """The record of points[idx], given the record of points."""
        return InterpRecord(self.rows[idx], self.weights[idx], self.fracs[idx])


class GridLevel:
    """One resolution level: vertex hash plus dense per-row payloads."""

    def __init__(self, voxel_size: float, feature_dim: int):
        self.voxel_size = float(voxel_size)
        self.feature_dim = int(feature_dim)
        self.vertices = VoxelHash()
        self._feat = np.zeros((0, feature_dim))
        self._adam_m = np.zeros((0, feature_dim))
        self._adam_v = np.zeros((0, feature_dim))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def features(self):
        return self._feat[: self.n_vertices]

    @property
    def adam_m(self):
        return self._adam_m[: self.n_vertices]

    @property
    def adam_v(self):
        return self._adam_v[: self.n_vertices]

    def buffers(self):
        """Full capacity buffers for in-place row kernels."""
        return self._feat, self._adam_m, self._adam_v

    def ensure_rows(self, n: int):
        self._feat, self._adam_m, self._adam_v = (grow_rows(b, n) for b in self.buffers())


class FeatureGrid:
    """L-level sparse corner-feature grid over world space."""

    def __init__(self, voxel_sizes=(0.3, 0.45), feature_dim: int = 8):
        if len(voxel_sizes) < 1:
            raise ValueError("need at least one level")
        self.levels = [GridLevel(s, feature_dim) for s in voxel_sizes]
        self.feature_dim = int(feature_dim)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_vertices(self) -> int:
        return sum(lvl.n_vertices for lvl in self.levels)

    def allocate(self, points):
        """Allocate the voxels enclosing each point at every level.

        All eight corner vertices of an occupied voxel are created with
        zero features. Returns (new_vertex_count, skipped_points);
        non-finite points are skipped, repeated allocation is a no-op.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        finite = np.isfinite(pts).all(axis=1)
        skipped = int((~finite).sum())
        pts = pts[finite]
        added = 0
        for lvl in self.levels:
            if pts.shape[0] == 0:
                break
            cells, _, _ = distinct_cells(pts, lvl.voxel_size)
            before = lvl.n_vertices
            lvl.vertices.insert(np.unique(corner_keys(cells)))
            lvl.ensure_rows(lvl.n_vertices)
            added += lvl.n_vertices - before
        return added, skipped

    def corner_rows(self, points, level: int):
        """(n, 8) vertex rows of each point's cell corners (-1 if absent), (n, 3) fractions.

        Each distinct cell's eight corners are looked up once and the rows
        broadcast to its points; fractions are per point.
        """
        lvl = self.levels[level]
        cells, inverse, frac = distinct_cells(points, lvl.voxel_size)
        return lvl.vertices.lookup(corner_keys(cells)).reshape(-1, 8)[inverse], frac

    def interpolate(self, points, record=None):
        """Aggregated features for a batch of points.

        Returns (features (n, feature_dim), InterpRecord). Raises
        UnallocatedQuery if any point lies in a voxel with missing
        corners at any level: unknown space is an error, not zero.
        Given the record of these points from an earlier call, only the
        current features are gathered: a vertex keeps its row once
        allocated, so corner rows and weights stay valid.
        """
        if record is not None:
            feats = np.zeros((record.rows.shape[0], self.feature_dim))
            for li, lvl in enumerate(self.levels):
                feats += np.einsum("nc,ncd->nd", record.weights[:, li],
                                   lvl.features[record.rows[:, li]])
            return feats, record
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        n = pts.shape[0]
        L = self.n_levels
        feats = np.zeros((n, self.feature_dim))
        all_rows = np.empty((n, L, 8), dtype=np.int64)
        all_weights = np.empty((n, L, 8))
        all_fracs = np.empty((n, L, 3))
        for li, lvl in enumerate(self.levels):
            rows, frac = self.corner_rows(pts, li)
            missing = rows < 0
            if missing.any():
                bad = int(np.argmax(missing.any(axis=1)))
                raise UnallocatedQuery(
                    f"point {pts[bad].tolist()} lies in an unallocated voxel at level {li}"
                )
            w = trilinear_weights(frac)
            feats += np.einsum("nc,ncd->nd", w, lvl.features[rows])
            all_rows[:, li] = rows
            all_weights[:, li] = w
            all_fracs[:, li] = frac
        return feats, InterpRecord(all_rows, all_weights, all_fracs)

    def voxels_allocated(self, points):
        """Boolean mask: point lies in a fully allocated voxel at every level.

        Each distinct cell is checked once and the answer broadcast to its points.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        ok = np.ones(pts.shape[0], dtype=bool)
        for lvl in self.levels:
            cells, inverse, _ = distinct_cells(pts, lvl.voxel_size)
            rows = lvl.vertices.lookup(corner_keys(cells)).reshape(-1, 8)
            ok &= (rows >= 0).all(axis=1)[inverse]
        return ok

    def bounds(self):
        """(min, max) world extent of allocated vertices, or None if empty."""
        mins, maxs = [], []
        for lvl in self.levels:
            if lvl.n_vertices == 0:
                continue
            coords = unpack_key(lvl.vertices.keys) * lvl.voxel_size
            mins.append(coords.min(axis=0))
            maxs.append(coords.max(axis=0))
        if not mins:
            return None
        return np.min(mins, axis=0), np.max(maxs, axis=0)
