"""Reconstruction quality metrics between meshes / point clouds.

Both surfaces are turned into point sets (area-uniform mesh sampling,
or a cloud used as-is), then exact nearest-neighbor distances give:
accuracy (recon->gt mean), completeness (gt->recon mean), Chamfer-L1
(their mean), precision/recall (% within threshold) and F1. Distances
are reported in centimeters, rates in percent.
"""

import csv
import json
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyMesh


@dataclass
class EvalConfig:
    n_points: int = 1_000_000  # samples per mesh
    threshold: float = 0.10  # meters
    seed: int = 0

    def __post_init__(self):
        if self.n_points <= 0:
            raise ValueError("n_points must be positive")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not self.threshold < np.inf:
            raise ValueError("threshold must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EvalResult:
    accuracy_cm: float
    completeness_cm: float
    chamfer_l1_cm: float
    precision_pct: float
    recall_pct: float
    f1_pct: float

    def to_dict(self):
        return asdict(self)


def sample_surface(mesh, n: int, rng):
    """n area-uniform samples: triangle by area, uniform barycentric."""
    if mesh.n_faces == 0:
        raise EmptyMesh("cannot sample an empty mesh")
    if n == 0:
        return np.zeros((0, 3))
    v = mesh.vertices[mesh.faces]  # (t, 3, 3)
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    area = 0.5 * np.linalg.norm(cross, axis=1)
    total = area.sum()
    if not total > 0:
        raise EmptyMesh("mesh has zero total area")
    cum = np.cumsum(area)
    # looked up in ascending order, each search starts near the last one;
    # a triangle id depends only on its draw, so the order changes nothing
    draw = rng.random(n) * total
    order = np.argsort(draw)
    tri = np.empty(n, dtype=np.int64)
    tri[order] = np.searchsorted(cum, draw[order], side="right")
    np.minimum(tri, area.shape[0] - 1, out=tri)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = v[tri, 0], v[tri, 1], v[tri, 2]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c


def _tree(points):
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def nn_distances(a, b):
    """Exact Euclidean nearest-neighbor distances (a->b, b->a).

    One k-d tree is built per point set and serves both directions: it
    is searched by the other set's queries and orders its own set's
    queries. Each direction queries in the leaf order of its own tree,
    so consecutive queries are close and share most of their search
    path; the distances are scattered back to input order. A nearest
    distance depends only on the two point sets, so neither that order
    nor the trees' shape changes a result. Trees split at the midpoint
    (balanced_tree=False), which builds faster and searches faster far
    from the other set than median splits do.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("nn_distances needs non-empty point sets")
    ta, tb = _tree(a), _tree(b)

    def query(src, dst):
        d = np.empty(src.n)
        d[src.indices] = dst.query(src.data[src.indices])[0]
        return d

    return query(ta, tb), query(tb, ta)


def _first_nonfinite(points, used=None):
    """Index of the first row with a NaN or inf coordinate among the rows
    `used` indexes (all rows by default), or None."""
    bad = ~np.isfinite(points).all(axis=1)
    if used is not None and bad.any():
        bad &= np.isin(np.arange(bad.size), used)
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _as_points(obj, cfg: EvalConfig, side: str):
    if isinstance(obj, np.ndarray):
        points = obj.reshape(-1, 3)
        bad = _first_nonfinite(points)
        if bad is not None:
            raise ValueError(f"{side}: point {bad} is not finite: {points[bad]}")
        return points
    bad = _first_nonfinite(obj.vertices, obj.faces)
    if bad is not None:
        raise ValueError(f"{side}: mesh vertex {bad} is not finite: {obj.vertices[bad]}")
    # identical meshes must sample identical points, so each side gets
    # its own rng seeded the same way: evaluate(X, X) is exactly 0/100
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))
    return sample_surface(obj, cfg.n_points, rng)


def evaluate(recon, gt, cfg: EvalConfig = None) -> EvalResult:
    """Compare a reconstructed mesh against ground truth (mesh or cloud).

    Raises ValueError naming the side and the first point, or vertex
    used by a face, with a NaN or inf coordinate.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    rp = _as_points(recon, cfg, "recon")
    gp = _as_points(gt, cfg, "gt")
    d_rg, d_gr = nn_distances(rp, gp)
    acc = float(d_rg.mean())
    comp = float(d_gr.mean())
    precision = float((d_rg < cfg.threshold).mean() * 100.0)
    recall = float((d_gr < cfg.threshold).mean() * 100.0)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalResult(
        accuracy_cm=acc * 100.0,
        completeness_cm=comp * 100.0,
        chamfer_l1_cm=(acc + comp) / 2.0 * 100.0,
        precision_pct=precision,
        recall_pct=recall,
        f1_pct=f1,
    )


_CSV_FIELDS = tuple(f.name for f in fields(EvalResult))


def write_eval_json(result: EvalResult, path):
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")


def write_eval_csv(result: EvalResult, path):
    d = result.to_dict()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_FIELDS)
        w.writerow([f"{d[k]:.4f}" for k in _CSV_FIELDS])
