"""Multi-resolution sparse voxel feature grid with trilinear queries.

Each level is an independent integer lattice (vertex spacing = level
voxel size). A learnable feature vector lives at every allocated corner
vertex; a point query sums the trilinear interpolation of the eight
enclosing corner features over all levels, so the aggregated feature
keeps dimension ``feature_dim``. Features initialize to zero, which
makes unseen regions decode to the decoder's zero-feature output.
Points are read once: `locate` checks that their corners are allocated
and keeps each point's in-cell fractions in the record every read takes.
"""

from typing import NamedTuple

import numpy as np

from .errors import UnallocatedQuery
from .hashmap import COORD_LIMIT, VoxelHash, pack_coords, unpack_key

CELL_LIMIT = COORD_LIMIT - 1  # cell coordinates stay below this, so each +1 corner packs

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


def cell_of(points, voxel_size):
    """Integer cell coordinates and in-cell fractions for points."""
    scaled = np.asarray(points, dtype=np.float64) / voxel_size
    base = np.floor(scaled).astype(np.int64)
    return base, scaled - base


def cell_keys(cells):
    """(n, 3) integer cells -> (n,) packed keys; each cell's +1 corner must pack too."""
    c = np.asarray(cells, dtype=np.int64)
    if np.any(c >= CELL_LIMIT):
        raise ValueError("grid coordinate outside packable range")
    return pack_coords(c)


# pack_coords is offset-binary per axis, so a 0/1 offset adds to a cell key without a carry.
_CORNER_STEPS = pack_coords(CORNER_OFFSETS) - pack_coords(np.zeros(3, dtype=np.int64))


def corner_keys(keys):
    """(n,) cell keys from `cell_keys` -> (n, 8) packed keys of their corner vertices."""
    return keys[:, None] + _CORNER_STEPS


def distinct_cells(points, voxel_size):
    """The distinct cells that (n, 3) points fall in, and how to broadcast back.

    Returns (keys (m,) sorted, inverse (n,) with point i in cell
    keys[inverse[i]], fractions (n, 3) per point). Points share cells, so
    per-cell work (corner keys, hash lookups) is done m times, not n.
    """
    base, frac = cell_of(points, voxel_size)
    keys, inverse = np.unique(cell_keys(base), return_inverse=True)
    return keys, inverse.ravel(), frac


def sorted_distinct(keys):
    """The distinct values of an int64 array, flattened and sorted: `np.unique(keys)`.

    Sorts and keeps each key unequal to its predecessor; numpy 2.4's
    plain `np.unique` of int64 takes a hash path that is several times
    slower than this sort.
    """
    s = np.sort(keys, axis=None)
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def cell_rows(vertices, voxel_size, points):
    """`distinct_cells`, with (m, 8) corner rows in `vertices` (-1 if absent) for the keys."""
    keys, inverse, frac = distinct_cells(points, voxel_size)
    return vertices.lookup(corner_keys(keys)).reshape(-1, 8), inverse, frac


def grow_rows(buf, n: int):
    """`buf`, or a zero-padded copy with capacity max(n, 2 * cap, 256) if n > cap."""
    cap = buf.shape[0]
    if n <= cap:
        return buf
    out = np.zeros((max(n, 2 * cap, 256),) + buf.shape[1:], dtype=buf.dtype)
    out[:cap] = buf
    return out


def _axis_factors(frac):
    """(n, 3) cell fractions -> (3, 2, n): per axis, the factors 1 - t and t of all points."""
    t = np.asarray(frac, dtype=np.float64).T
    f = np.empty((3, 2, t.shape[1]))
    np.subtract(1.0, t, out=f[:, 0])
    f[:, 1] = t
    return f


def trilinear_weights(frac):
    """(n, 3) cell fractions -> (n, 8) barycentric corner weights.

    Built corner-major, as whole rows of n: weight 4*bx + 2*by + bz is
    (fx[bx] * fy[by]) * fz[bz]. The (n, 8) result is a view of that block.
    """
    fx, fy, fz = _axis_factors(frac)
    w = (fx[:, None, None] * fy[None, :, None]) * fz[None, None, :]  # (2, 2, 2, n)
    return w.reshape(8, fx.shape[1]).T


def trilinear_weight_gradients(frac, voxel_size):
    """d(weight)/d(world position): (n, 3) fractions -> (n, 8, 3).

    Axis a's derivative is the product of the other two axes' factors,
    divided by the voxel size, and negated at the corners whose bit a is
    clear. The (n, 8, 3) result is a view of an axis-major block.
    """
    fx, fy, fz = _axis_factors(frac)
    n = fx.shape[1]
    out = np.empty((3, 2, 2, 2, n))
    for a, (u, v) in enumerate(((fy, fz), (fx, fz), (fx, fy))):
        hi = (u[:, None] * v[None, :]) / voxel_size  # (2, 2, n) over the other two bits
        dst = np.moveaxis(out[a], a, 0)  # bit a first
        np.negative(hi, out=dst[0])
        dst[1] = hi
    return out.reshape(3, 8, n).transpose(2, 1, 0)


class InterpRecord(NamedTuple):
    """Per-level corner rows and in-cell fractions of located points.

    Rows are kept once per distinct cell: level l's point i has corner
    rows cells[l][cell_index[i, l]]. Every cell of a level is the cell of
    at least one point, and every corner row is allocated. The reads take
    their weights and weight gradients from `frac`.
    """

    cells: tuple  # per level (m_l, 8) int64 corner rows
    cell_index: np.ndarray  # (n, L) int64
    frac: np.ndarray  # (n, L, 3) float64, each point's `cell_of` fractions per level

    def take(self, idx):
        """The record of points[idx], given the record of points.

        Keeps only the cells that points[idx] fall in, in their order here.
        """
        kept = [used_rows(rows, self.cell_index[idx, li]) for li, rows in enumerate(self.cells)]
        return InterpRecord(tuple(cells for cells, _ in kept),
                            np.stack([index for _, index in kept], axis=1),
                            np.take(self.frac, idx, axis=0))


def used_rows(rows, index):
    """The rows that `index` uses, in their order, and `index` renumbered to them."""
    used = np.zeros(rows.shape[0], dtype=bool)
    used[index] = True
    kept = np.flatnonzero(used)
    renumber = np.empty(rows.shape[0], dtype=np.int64)
    renumber[kept] = np.arange(kept.size)
    return np.take(rows, kept, axis=0), renumber[index]


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

    def ensure_rows(self, n: int):
        self._feat = grow_rows(self._feat, n)
        self._adam_m = grow_rows(self._adam_m, n)
        self._adam_v = grow_rows(self._adam_v, n)


class FeatureGrid:
    """L-level sparse corner-feature grid over world space."""

    def __init__(self, voxel_sizes, feature_dim: int):
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
            keys, _, _ = distinct_cells(pts, lvl.voxel_size)
            before = lvl.n_vertices
            lvl.vertices.insert(sorted_distinct(corner_keys(keys)))
            lvl.ensure_rows(lvl.n_vertices)
            added += lvl.n_vertices - before
        return added, skipped

    def locate(self, points) -> InterpRecord:
        """Each point's corner rows and in-cell fractions per level.

        Raises UnallocatedQuery if any point lies in a voxel with missing
        corners at any level, naming the first such level's first such
        point: unknown space is an error, not zero.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        frac = np.empty((pts.shape[0], self.n_levels, 3))  # C order: take copies whole rows
        cells, index = [], []
        for li, lvl in enumerate(self.levels):
            rows, inverse, frac[:, li] = cell_rows(lvl.vertices, lvl.voxel_size, pts)
            missing = (rows < 0).any(axis=1)  # (m_l,)
            if missing.any():
                bad = pts[np.argmax(missing[inverse])]
                raise UnallocatedQuery(f"point {bad.tolist()} lies in an unallocated voxel "
                                       f"at level {li}")
            cells.append(rows)
            index.append(inverse)
        return InterpRecord(tuple(cells), np.stack(index, axis=1), frac)

    def corner_features(self, record: InterpRecord, li: int):
        """(n, 8, D) level-li corner features of each point in `record`.

        Each cell's (8, D) block is gathered once, then copied whole to each
        of its points.
        """
        cell_feats = np.take(self.levels[li].features, record.cells[li], axis=0)
        return np.take(cell_feats, record.cell_index[:, li], axis=0)

    def interpolate(self, record: InterpRecord):
        """Aggregated features of located points, and each level's corner features.

        Returns (features (n, feature_dim), [corner_features(record, l) for
        each level l]). Only the current features are gathered: a vertex
        keeps its row once allocated, so a record stays valid while features
        train.
        """
        feats = np.zeros((record.cell_index.shape[0], self.feature_dim))
        corners = [self.corner_features(record, li) for li in range(self.n_levels)]
        for li, corner_feats in enumerate(corners):
            feats += np.einsum("nc,ncd->nd", trilinear_weights(record.frac[:, li]), corner_feats)
        return feats, corners

    def locate_lattice(self, axes, nodes):
        """`voxels_allocated` and `locate` of lattice nodes given by linear index.

        Node (i, j, k) sits at (axes[0][i], axes[1][j], axes[2][k]) and has
        linear index (i * ny + j) * nz + k. Returns (ok, record): ok (n,) is
        `voxels_allocated` of the nodes' points, and record is the record of
        the points of nodes[ok], each point's corner rows and fractions bit
        for bit those of `locate` (cells in key order). Cells and fractions
        come per axis, from the same floats `cell_of` sees on the points, so
        no node's coordinates are formed. A node's cell is numbered by its
        offset from the lowest cell of the batch's span, so marking those
        codes lists the distinct cells in key order without a sort, and each
        is looked up once.
        """
        ijk = np.unravel_index(nodes, tuple(len(a) for a in axes))
        span = [slice(i.min(), i.max() + 1) for i in ijk]
        ok = np.ones(len(nodes), dtype=bool)
        found = []
        for lvl in self.levels:
            base, frac = zip(*(cell_of(a, lvl.voxel_size) for a in axes))
            low = np.array([b[s].min() for b, s in zip(base, span)])
            shape = tuple(int(b[s].max() - lo) + 1 for b, s, lo in zip(base, span, low))
            strides = (shape[1] * shape[2], shape[2], 1)
            gx, gy, gz = ((b - lo) * st for b, lo, st in zip(base, low, strides))
            code = gx[ijk[0]] + gy[ijk[1]] + gz[ijk[2]]
            mark = np.zeros(np.prod(shape), dtype=bool)
            mark[code] = True
            present = np.flatnonzero(mark)  # ascending code is ascending key
            number = np.empty(mark.size, dtype=np.int64)
            number[present] = np.arange(present.size)
            cells = np.stack(np.unravel_index(present, shape), axis=1) + low
            rows = lvl.vertices.lookup(corner_keys(cell_keys(cells))).reshape(-1, 8)
            index = number[code]
            ok &= (rows >= 0).all(axis=1)[index]
            found.append((rows, index, frac))
        hit = np.flatnonzero(ok)
        hit_ijk = [i[hit] for i in ijk]
        kept = [used_rows(rows, index[hit]) for rows, index, _ in found]
        hit_frac = np.empty((hit.size, self.n_levels, 3))  # C order, as `locate` lays it out
        for li, (_, _, frac) in enumerate(found):
            for a, (f, i) in enumerate(zip(frac, hit_ijk)):
                hit_frac[:, li, a] = f[i]
        return ok, InterpRecord(tuple(cells for cells, _ in kept),
                                np.stack([index for _, index in kept], axis=1), hit_frac)

    def voxels_allocated(self, points):
        """Boolean mask: point lies in a fully allocated voxel at every level.

        Each distinct cell is checked once and the answer broadcast to its
        points. The mesher uses `locate_lattice`; this per-point form is its
        oracle in the tests, and perfbench's `grid.voxels_allocated` probe
        names it.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        ok = np.ones(pts.shape[0], dtype=bool)
        for lvl in self.levels:
            rows, inverse, _ = cell_rows(lvl.vertices, lvl.voxel_size, pts)
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
