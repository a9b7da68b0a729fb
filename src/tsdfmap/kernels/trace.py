"""Sphere tracing against analytic primitive scenes.

Primitives are encoded as parallel arrays: types (int8; 0 sphere, 1
axis-box, 2 plane) and params (p, 6) float64 rows:
  sphere: cx, cy, cz, R        box: minx..z, maxx..z        plane: nx, ny, nz, offset
`trace_rays` marches every ray still in flight one step per round, so each
ray's range is the one a ray-by-ray sphere trace gives, bitwise.
"""

import numpy as np

PRIM_SPHERE = 0
PRIM_BOX = 1
PRIM_PLANE = 2

_FAR = 1e30


def scene_sdf_points(points, types, params):
    """Scene SDF over (n, 3) points: the minimum over the primitives."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    best = np.full(pts.shape[0], _FAR)
    for i in range(types.shape[0]):
        t = types[i]
        if t == PRIM_SPHERE:
            dx = x - params[i, 0]
            dy = y - params[i, 1]
            dz = z - params[i, 2]
            d = np.sqrt(dx * dx + dy * dy + dz * dz) - params[i, 3]
        elif t == PRIM_BOX:
            qx = np.maximum(params[i, 0] - x, x - params[i, 3])
            qy = np.maximum(params[i, 1] - y, y - params[i, 4])
            qz = np.maximum(params[i, 2] - z, z - params[i, 5])
            ox = np.maximum(qx, 0.0)
            oy = np.maximum(qy, 0.0)
            oz = np.maximum(qz, 0.0)
            d = np.sqrt(ox * ox + oy * oy + oz * oz) + np.minimum(
                np.maximum(qx, np.maximum(qy, qz)), 0.0
            )
        else:
            d = params[i, 0] * x + params[i, 1] * y + params[i, 2] * z - params[i, 3]
        best = np.minimum(best, d)
    return best


def trace_rays(origins, dirs, types, params, max_range, eps, max_steps):
    n = origins.shape[0]
    out = np.full(n, -1.0)
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        p = origins[idx] + t[idx, None] * dirs[idx]
        d = scene_sdf_points(p, types, params)
        hit = d < eps
        out[idx[hit]] = t[idx[hit]]
        active[idx[hit]] = False
        alive = idx[~hit]
        t[alive] += d[~hit]
        active[alive[t[alive] > max_range]] = False
    return out

