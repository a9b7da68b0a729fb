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


def trilinear_weights(frac):
    """(n, 3) cell fractions -> (n, 8) barycentric corner weights."""
    fx = np.stack([1.0 - frac[:, 0], frac[:, 0]], axis=1)
    fy = np.stack([1.0 - frac[:, 1], frac[:, 1]], axis=1)
    fz = np.stack([1.0 - frac[:, 2], frac[:, 2]], axis=1)
    return fx[:, _XB] * fy[:, _YB] * fz[:, _ZB]


def trilinear_weight_gradients(frac, voxel_size):
    """d(weight)/d(world position): (n, 3) fractions -> (n, 8, 3)."""
    fx = np.stack([1.0 - frac[:, 0], frac[:, 0]], axis=1)
    fy = np.stack([1.0 - frac[:, 1], frac[:, 1]], axis=1)
    fz = np.stack([1.0 - frac[:, 2], frac[:, 2]], axis=1)
    out = np.empty((frac.shape[0], 8, 3))
    out[:, :, 0] = _SIGN[None, :, 0] * fy[:, _YB] * fz[:, _ZB]
    out[:, :, 1] = _SIGN[None, :, 1] * fx[:, _XB] * fz[:, _ZB]
    out[:, :, 2] = _SIGN[None, :, 2] * fx[:, _XB] * fy[:, _YB]
    out /= voxel_size
    return out


class InterpRecord(NamedTuple):
    """Per-level vertex rows and weights retained for the backward pass."""

    rows: np.ndarray  # (n, L, 8) int64
    weights: np.ndarray  # (n, L, 8) float64
    fracs: np.ndarray  # (n, L, 3) float64


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
        cap = self._feat.shape[0]
        if n <= cap:
            return
        new_cap = max(n, 2 * cap, 256)
        for name in ("_feat", "_adam_m", "_adam_v"):
            old = getattr(self, name)
            buf = np.zeros((new_cap, self.feature_dim))
            buf[: old.shape[0]] = old
            setattr(self, name, buf)


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
            base, _ = cell_of(pts, lvl.voxel_size)
            vox_keys = np.unique(pack_coords(base))
            corners = unpack_key(vox_keys)[:, None, :] + CORNER_OFFSETS[None, :, :]
            corner_keys = np.unique(pack_coords(corners))
            before = lvl.n_vertices
            lvl.vertices.insert(corner_keys)
            lvl.ensure_rows(lvl.n_vertices)
            added += lvl.n_vertices - before
        return added, skipped

    def corner_rows(self, points, level: int):
        """(n, 8) vertex rows for the enclosing voxel corners, -1 if absent."""
        lvl = self.levels[level]
        base, frac = cell_of(points, lvl.voxel_size)
        keys = pack_coords(base[:, None, :] + CORNER_OFFSETS[None, :, :])
        rows = lvl.vertices.lookup(keys.ravel()).reshape(-1, 8)
        return rows, frac

    def interpolate(self, points):
        """Aggregated features for a batch of points.

        Returns (features (n, feature_dim), InterpRecord). Raises
        UnallocatedQuery if any point lies in a voxel with missing
        corners at any level: unknown space is an error, not zero.
        """
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
        """Boolean mask: point lies in a fully allocated voxel at every level."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        ok = np.ones(pts.shape[0], dtype=bool)
        for lvl in self.levels:
            base, _ = cell_of(pts, lvl.voxel_size)
            vox_keys = pack_coords(base)
            uniq, inv = np.unique(vox_keys, return_inverse=True)
            corners = unpack_key(uniq)[:, None, :] + CORNER_OFFSETS[None, :, :]
            rows = lvl.vertices.lookup(pack_coords(corners).ravel()).reshape(-1, 8)
            ok &= (rows >= 0).all(axis=1)[inv]
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
