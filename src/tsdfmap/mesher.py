"""Dense SDF evaluation on a uniform grid and mesh extraction.

The learned field is sampled at grid nodes (nodes in unallocated voxels
are masked invalid rather than guessed), then marching cubes walks the
valid cells: one vertex per cut edge at the linear zero crossing, welded
by the edge's key `3 * (linear index of its lower node) + axis`, and
triangles from the classic 256-case table. Triangle winding puts normals
on the positive-value side, i.e. outward for a signed distance field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decoder import row_blocks
from .errors import EmptyMap, NoSurface
from .grid import used_rows
from .kernels.march import EDGE_AXIS, EDGE_BASE, classify_cells, emit
from .plyio import load_ply, write_mesh_ply

# grid nodes that `eval_sdf_grid` locates and decodes at a time
NODE_BATCH = 65536


@dataclass
class MeshConfig:
    spacing: float = 0.10
    ascii: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be positive and finite")


@dataclass
class SdfGrid:
    origin: np.ndarray  # (3,) world position of node (0,0,0)
    spacing: float
    values: np.ndarray  # (nx, ny, nz) float
    valid: np.ndarray  # (nx, ny, nz) bool

    @property
    def dims(self):
        return self.values.shape


@dataclass
class TriMesh:
    vertices: np.ndarray  # (v, 3)
    faces: np.ndarray  # (t, 3) int

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def _node_grid(bounds, spacing):
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"mesh spacing must be positive and finite, got {spacing}")
    lo = np.asarray(bounds[0], dtype=np.float64).reshape(3)
    hi = np.asarray(bounds[1], dtype=np.float64).reshape(3)
    if np.any(hi <= lo):
        raise ValueError("bounds must satisfy max > min per axis")
    dims = np.maximum(2, np.floor((hi - lo) / spacing + 1e-9).astype(np.int64) + 1)
    axes = [lo[a] + spacing * np.arange(dims[a]) for a in range(3)]
    return lo, dims, axes


def eval_sdf_grid(field, bounds, spacing: float) -> SdfGrid:
    """Sample a neural field on a uniform node grid over bounds.

    Nodes whose enclosing voxels are unallocated at any level get
    valid=False and NaN values. Raises EmptyMap when nothing is valid.
    Nodes are taken NODE_BATCH at a time in linear order, and `NeuralSdfField.sdf`
    decodes each batch's valid nodes in `decoder.row_blocks`, whose last
    block takes the remainder: that gives the bits of one decoder call over
    the batch. Another batch size, or blocks that leave a short last one,
    can move node values in the last bits (the scalar head's gemv and the
    transposed products give a short call's rows other bits), but not which
    nodes are valid. Only `values`, `valid`, one batch's record and one
    block's decoder arrays are held: nodes are located on the lattice by
    index (`FeatureGrid.locate_lattice`), so no node's coordinates are
    formed, and the decoder reads that record values-only, keeping no
    training cache.
    """
    lo, dims, axes = _node_grid(bounds, spacing)
    shape = tuple(dims)
    n = int(np.prod(dims))
    valid = np.zeros(n, dtype=bool)
    values = np.full(n, np.nan)
    for s in range(0, n, NODE_BATCH):
        nodes = np.arange(s, min(s + NODE_BATCH, n))
        ok, record = field.grid.locate_lattice(axes, nodes)
        valid[s : s + nodes.size] = ok
        if ok.any():
            values[nodes[ok]] = field.sdf(record)
    if not valid.any():
        raise EmptyMap("no grid node falls inside an allocated voxel")
    return SdfGrid(lo, float(spacing), values.reshape(shape), valid.reshape(shape))


def sdf_grid_from_function(fn, bounds, spacing: float) -> SdfGrid:
    """SdfGrid from an analytic SDF callable over (n, 3) points."""
    lo, dims, axes = _node_grid(bounds, spacing)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    values = np.asarray(fn(nodes), dtype=np.float64).reshape(-1)
    shape = tuple(dims)
    return SdfGrid(lo, float(spacing), values.reshape(shape),
                   np.ones(shape, dtype=bool))


def edge_keys(dims):
    """Node strides of a grid of `dims`, and the 12 cell edges' weld keys less `3 * base node`."""
    strides = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
    return strides, 3 * (EDGE_BASE @ strides) + EDGE_AXIS


def extract_mesh(grid: SdfGrid) -> TriMesh:
    """Marching cubes over the valid cells of an SdfGrid.

    A corner's weld key is its cell's `3 * base node` plus its edge's
    `edge_keys` entry. A table triangle names three distinct edges, so no
    face repeats a vertex; faces of zero area (exact-zero nodes) are dropped,
    testing one `row_blocks` block of faces at a time.
    """
    values, valid = grid.values, grid.valid
    cell_ids, cases = classify_cells(values, valid)
    if cell_ids.size == 0:
        raise NoSurface("no sign change among fully valid cells")
    tri_cell, tri_edges = emit(cases)

    strides, edge_key = edge_keys(values.shape)
    cells = np.unravel_index(cell_ids, tuple(d - 1 for d in values.shape))
    cell_key = 3 * np.ravel_multi_index(cells, values.shape)
    keys = cell_key[tri_cell][:, None] + edge_key[tri_edges]
    ukeys, inv = np.unique(keys, return_inverse=True)
    # winding: the table's order comes out inward for value<0 interiors
    faces = inv.reshape(-1, 3)[:, ::-1]

    ulin, uaxis = np.divmod(ukeys, 3)
    va, vb = np.take(values, [ulin, ulin + strides[uaxis]])  # flat indices
    t = va / (va - vb)  # cut edges have strictly opposite inside flags
    pos = np.stack(np.unravel_index(ulin, values.shape), axis=1).astype(np.float64)
    pos[np.arange(ulin.size), uaxis] += t
    verts = grid.origin + pos * grid.spacing

    has_area = np.empty(faces.shape[0], dtype=bool)
    for s, e in row_blocks(faces.shape[0]):
        p0, p1, p2 = (np.take(verts, faces[s:e, c], axis=0) for c in range(3))
        cr = np.cross(p1 - p0, p2 - p0)
        has_area[s:e] = np.einsum("ij,ij->i", cr, cr) > 0.0
    faces = faces[has_area]
    if faces.shape[0] == 0:
        raise NoSurface("every candidate triangle was degenerate")
    return TriMesh(*used_rows(verts, faces))


def map_bounds(field):
    """World bounds of the allocated map: no node outside them is valid."""
    b = field.grid.bounds()
    if b is None:
        raise EmptyMap("the map has no allocated vertices")
    return b


def extract_map_mesh(field, spacing: float = MeshConfig.spacing) -> TriMesh:
    """Mesh the learned field over its allocated extent."""
    return extract_mesh(eval_sdf_grid(field, map_bounds(field), spacing))


def write_mesh(mesh: TriMesh, path, binary: bool = True):
    write_mesh_ply(path, mesh.vertices, mesh.faces, binary=binary)


def load_mesh(path) -> TriMesh:
    data = load_ply(path)
    faces = data.get("faces")
    if faces is None:
        faces = np.zeros((0, 3), dtype=np.int64)
    return TriMesh(vertices=data["points"], faces=faces)
