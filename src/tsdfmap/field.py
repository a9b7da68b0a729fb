"""Neural signed-distance field: sparse feature grid + MLP decoder.

predict() runs grid interpolation and the decoder, and sdf() does the
same without the training cache, for reads such as meshing; backward_mse()
produces the gradients adam_step() consumes; spatial_gradient() is the
analytic d(sdf)/d(position) that the Fisher accumulation reads.
"""

from typing import NamedTuple

import numpy as np

from .adam import GradientStore
from .decoder import SdfDecoder
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
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return self.decoder.values(self.grid.interpolate(pts, record)[0])

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
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        feats, record = self.grid.interpolate(pts, record)
        n = pts.shape[0]
        _, dfeat = self.decoder.backward(
            self.decoder.hidden(feats), np.ones(n), with_param_grads=False
        )
        grad = np.zeros((n, 3))
        for li, lvl in enumerate(self.grid.levels):
            corner_feats = self.grid.corner_features(record, li)  # (n, 8, D)
            # scalar contribution of each corner to the decoder input grad
            s_c = np.einsum("ncd,nd->nc", corner_feats, dfeat)
            frac = cell_of(pts, lvl.voxel_size)[1]
            dw = trilinear_weight_gradients(frac, lvl.voxel_size)
            grad += np.einsum("nc,nca->na", s_c, dw)
        return grad
