"""Sparse Adam over decoder parameters and touched grid rows.

Grid vertices keep per-row first/second moment buffers; a step only
touches rows that received gradient, everything else stays bitwise
unchanged. One global step counter, held by the caller, drives bias
correction for both the decoder and the grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .decoder import PARAM_NAMES
from .kernels.scatter import adam_update, adam_update_rows


@dataclass
class AdamConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if not self.lr < np.inf:
            raise ValueError("lr must be finite")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.eps < np.inf:
            raise ValueError("eps must be finite")


@dataclass
class GradientStore:
    """Gradients of one loss evaluation.

    decoder: name -> dense gradient array.
    level_rows: per grid level, unique touched vertex rows (int64).
    level_grads: per grid level, gradient rows aligned with level_rows.
    """

    decoder: dict
    level_rows: list = field(default_factory=list)
    level_grads: list = field(default_factory=list)


def adam_step(grads: GradientStore, grid, decoder, cfg: AdamConfig, step: int):
    """Apply the Adam update numbered `step` (1-based) in place."""
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step

    for name in PARAM_NAMES:
        adam_update(
            decoder.params[name], decoder.adam_m[name], decoder.adam_v[name],
            grads.decoder[name], cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, bc1, bc2,
        )

    for lvl, rows, g in zip(grid.levels, grads.level_rows, grads.level_grads):
        if rows.size == 0:
            continue
        adam_update_rows(
            lvl.features, lvl.adam_m, lvl.adam_v, g, rows,
            cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, bc1, bc2,
        )
