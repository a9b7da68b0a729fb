"""Pose files: one 3x4 row-major rigid transform (sensor->world) per line.

Blank lines and '#' comments are skipped; a line holding nan or inf is
malformed, and so is a rotation block with a negative determinant (a
reflection, which R·Rᵀ = I does not rule out: it would mirror the scans)
or of rank below 3 (a singular block has no unique nearest rotation).
Rotation blocks that drift from orthonormality by more than 1e-3 are
re-orthonormalized via SVD with a warning; smaller drift is left
untouched.
"""

import warnings

import numpy as np

from .errors import MalformedLine

ORTHO_TOL = 1e-3


def _orthonormalize(r):
    u, _, vt = np.linalg.svd(r)
    fixed = u @ vt
    if np.linalg.det(fixed) < 0:  # keep it a rotation, not a reflection
        u[:, -1] *= -1.0
        fixed = u @ vt
    return fixed


def load_poses(path):
    """Read a pose file; returns a list of (3, 4) float64 transforms."""
    poses = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 12:
                raise MalformedLine(lineno, f"expected 12 floats, got {len(parts)}")
            try:
                vals = np.array([float(p) for p in parts])
            except ValueError:
                raise MalformedLine(lineno, "non-numeric value") from None
            if not np.isfinite(vals).all():
                raise MalformedLine(lineno, "non-finite value (nan or inf)")
            pose = vals.reshape(3, 4)
            r = pose[:, :3]
            if np.linalg.matrix_rank(r) < 3:
                raise MalformedLine(lineno, "rotation block is singular")
            if np.linalg.det(r) < 0:
                raise MalformedLine(lineno, "rotation block is a reflection")
            err = np.abs(r @ r.T - np.eye(3)).max()
            if err > ORTHO_TOL:
                warnings.warn(
                    f"{path} line {lineno}: rotation deviates from orthonormal "
                    f"by {err:.2e}; re-orthonormalizing"
                )
                pose[:, :3] = _orthonormalize(r)
            poses.append(pose)
    return poses


def save_poses(path, poses):
    with open(path, "w") as fh:
        for pose in poses:
            fh.write(" ".join(f"{v:.12g}" for v in np.asarray(pose).reshape(12)) + "\n")
