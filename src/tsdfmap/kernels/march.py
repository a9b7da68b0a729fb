"""Marching-cubes cell classification and triangle emission.

Both steps are vectorized gathers over the case tables; emission is a
small share of meshing time. Output ordering is fixed (ascending cell
id, table order within a cell).
"""

import numpy as np

from .mc_tables import CASE_TRIANGLES, EDGE_CORNERS, MC_CORNERS

# triangles per case, derived from the table
N_TRIS = (CASE_TRIANGLES >= 0).sum(axis=1) // 3

# every cell edge runs along one axis from a base corner
_a = MC_CORNERS[EDGE_CORNERS[:, 0]]
_b = MC_CORNERS[EDGE_CORNERS[:, 1]]
EDGE_AXIS = np.argmax(np.abs(_a - _b), axis=1)
EDGE_BASE = np.minimum(_a, _b)


def classify_cells(values, valid):
    """Flat ids + uint8 case index of cells that are valid and cut the surface.

    A corner is inside when its value < 0; bit i of the case index is
    corner v_i's inside flag. Cells with any invalid corner, or case
    0/255, are dropped.
    """
    nx, ny, nz = values.shape
    if min(nx, ny, nz) < 2:
        return np.empty(0, np.int64), np.empty(0, np.uint8)
    inside = (values < 0.0).view(np.uint8)

    def corner_block(arr, c):
        dx, dy, dz = MC_CORNERS[c]
        return arr[dx : nx - 1 + dx, dy : ny - 1 + dy, dz : nz - 1 + dz]

    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
    bit = np.empty_like(case)
    ok = np.ones((nx - 1, ny - 1, nz - 1), dtype=bool)
    for c in range(8):
        case |= np.left_shift(corner_block(inside, c), np.uint8(c), out=bit)
        ok &= corner_block(valid, c)
    keep = ok & (case > 0) & (case < 255)
    cell_ids = np.flatnonzero(keep.ravel())
    return cell_ids, case.ravel()[cell_ids]


def emit_triangles(cases, tri_table, counts, offsets, out_cell, out_edges):
    """Fill out_cell/out_edges with each cut cell's triangles, in order.

    `counts` holds the per-cell triangle counts and `offsets` their
    exclusive prefix sum, where a per-cell loop would write each cell;
    this gather does not need `offsets`. The outputs are preallocated to
    counts.sum() rows. Edge numbers run 0-11 and -1, so the gather reads
    an int8 copy of the table: 16 bytes a cell.
    """
    rows = tri_table.astype(np.int8)[cases]
    out_edges[:] = rows[rows >= 0].reshape(-1, 3)
    out_cell[:] = np.repeat(np.arange(cases.shape[0]), counts)


def emit(cases):
    """Triangle (local cell index, edge triple) arrays for cut cells."""
    counts = N_TRIS[cases]
    total = int(counts.sum())
    offsets = np.zeros(cases.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out_cell = np.empty(total, dtype=np.int64)
    out_edges = np.empty((total, 3), dtype=np.int64)
    emit_triangles(cases, CASE_TRIANGLES, counts, offsets, out_cell, out_edges)
    return out_cell, out_edges
