"""Neural signed-distance field: sparse feature grid + MLP decoder.

predict() runs grid interpolation and the decoder, and sdf() does the
same without the training cache, for reads such as meshing; backward_mse()
produces the gradients adam_step() consumes; spatial_gradient() is the
analytic d(sdf)/d(position) that the Fisher accumulation reads.

sdf() and spatial_gradient() read any number of points, so they locate
them once and then interpolate and decode them in `row_blocks`: their
intermediates follow one block, not the input, and the rows come out
bitwise those of one call over all points.
"""

from typing import NamedTuple

import numpy as np

from .adam import GradientStore
from .decoder import SdfDecoder, row_blocks
from .grid import FeatureGrid, cell_of, trilinear_weight_gradients
from .kernels.scatter import scatter_add_rows


class FieldCache(NamedTuple):
    preds: np.ndarray
    record: "InterpRecord"  # grid rows/weights per level
    dec_cache: object


class NeuralSdfField:
    def __init__(self, grid: FeatureGrid, decoder: SdfDecoder):
        self.grid = grid
        self.decoder = decoder

    def predict(self, points, record=None):
        """(n, 3) world points -> ((n,) sdf, cache). Raises UnallocatedQuery.

        A record of these points (see `FeatureGrid.locate`) skips
        the corner lookups and weights and gathers the current features.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        feats, record = self.grid.interpolate(pts, record)
        preds, dec_cache = self.decoder.forward(feats)
        return preds, FieldCache(preds, record, dec_cache)

    def sdf(self, points, record=None):
        """(n, 3) world points -> (n,) sdf; `predict`'s values, bitwise,
        without its cache. Raises UnallocatedQuery."""
        pts, record = self._located(points, record)
        out = np.empty(pts.shape[0])
        for s, e, rec in _blocks(record, pts.shape[0]):
            out[s:e] = self.decoder.values(self.grid.interpolate(pts[s:e], rec)[0])
        return out

    def _located(self, points, record):
        """Points as (n, 3) float64 and their record, checked whole so that
        an error names the point a single `interpolate` would."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if record is None:
            record = self.grid.locate(pts)
        self.grid.require_allocated(pts, record)
        return pts, record

    def backward_mse(self, cache: FieldCache, labels):
        """MSE loss and its gradients w.r.t. decoder params and grid rows."""
        labels = np.asarray(labels, dtype=np.float64)
        n = cache.preds.shape[0]
        resid = cache.preds - labels
        loss = float(resid @ resid) / n
        dec_grads, dfeat = self.decoder.backward(cache.dec_cache, 2.0 * resid / n)

        store = GradientStore(decoder=dec_grads)
        for li in range(self.grid.n_levels):
            w = cache.record.weights[:, li]  # (n, 8)
            contrib = (w[:, :, None] * dfeat[:, None, :]).reshape(-1, dfeat.shape[1])
            # every cell holds a point, so its rows are exactly the touched rows
            cells = cache.record.cells[li]  # (m, 8)
            uniq, inv = np.unique(cells.ravel(), return_inverse=True)
            inv = np.take(inv.reshape(cells.shape), cache.record.cell_index[:, li],
                          axis=0).ravel()
            g = np.zeros((uniq.shape[0], dfeat.shape[1]))
            scatter_add_rows(g, inv, contrib)
            store.level_rows.append(uniq)
            store.level_grads.append(g)
        return loss, store

    def spatial_gradient(self, points, record=None):
        """Analytic d(sdf)/d(position) (n, 3) at the given points.

        A record of these points (see `FeatureGrid.locate`) skips the
        corner lookups. The decoder runs only up to its last hidden layer.
        Raises UnallocatedQuery.
        """
        pts, record = self._located(points, record)
        grad = np.empty((pts.shape[0], 3))
        for s, e, rec in _blocks(record, pts.shape[0]):
            grad[s:e] = self._block_gradient(pts[s:e], rec)
        return grad

    def _block_gradient(self, pts, record):
        feats, _, corners = self.grid.interpolate(pts, record, with_corners=True)
        _, dfeat = self.decoder.backward(
            self.decoder.hidden(feats), np.ones(pts.shape[0]), with_param_grads=False
        )
        grad = np.zeros((pts.shape[0], 3))
        for lvl, corner_feats in zip(self.grid.levels, corners):
            # scalar contribution of each corner to the decoder input grad
            s_c = np.einsum("ncd,nd->nc", corner_feats, dfeat)
            frac = cell_of(pts, lvl.voxel_size)[1]
            dw = trilinear_weight_gradients(frac, lvl.voxel_size)
            grad += np.einsum("nc,nca->na", s_c, dw)
        return grad


def _blocks(record, n):
    """(start, stop, record of those rows) for each of `row_blocks(n)`."""
    for s, e in row_blocks(n):
        yield s, e, record if e - s == n else record.take(np.arange(s, e))
