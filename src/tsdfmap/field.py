"""Neural signed-distance field: sparse feature grid + MLP decoder.

Every read takes a located record (`FeatureGrid.locate`), not points.
predict() runs grid interpolation and the decoder, and sdf() does the
same without the training cache, for reads such as meshing; backward_mse()
produces the gradients adam_step() consumes; spatial_gradient() is the
analytic d(sdf)/d(position) that the Fisher accumulation reads.

sdf() and spatial_gradient() read any number of points, so they
interpolate and decode them in `row_blocks`: their intermediates follow
one block, not the input, and the rows come out bitwise those of one
call over all points.
"""

from typing import NamedTuple

import numpy as np

from .adam import GradientStore
from .decoder import SdfDecoder, row_blocks
from .grid import FeatureGrid, trilinear_weight_gradients, trilinear_weights
from .kernels.scatter import scatter_add_rows


class FieldCache(NamedTuple):
    preds: np.ndarray
    record: "InterpRecord"  # grid rows/fractions per level
    dec_cache: object


class NeuralSdfField:
    def __init__(self, grid: FeatureGrid, decoder: SdfDecoder):
        self.grid = grid
        self.decoder = decoder

    def predict(self, record):
        """Located points' record -> ((n,) sdf, cache); only the current
        features are gathered."""
        preds, dec_cache = self.decoder.forward(self.grid.interpolate(record)[0])
        return preds, FieldCache(preds, record, dec_cache)

    def sdf(self, record):
        """Located points' record -> (n,) sdf; `predict`'s values, bitwise,
        without its cache."""
        out = np.empty(len(record.frac))
        for s, e, rec in _blocks(record):
            out[s:e] = self.decoder.values(self.grid.interpolate(rec)[0])
        return out

    def backward_mse(self, cache: FieldCache, labels):
        """MSE loss and its gradients w.r.t. decoder params and grid rows; consumes `cache`."""
        labels = np.asarray(labels, dtype=np.float64)
        n = cache.preds.shape[0]
        resid = cache.preds - labels
        loss = float(resid @ resid) / n
        dec_grads, dfeat = self.decoder.backward(cache.dec_cache, 2.0 * resid / n)

        store = GradientStore(decoder=dec_grads)
        for li in range(self.grid.n_levels):
            w = trilinear_weights(cache.record.frac[:, li])  # (n, 8)
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

    def spatial_gradient(self, record):
        """Analytic d(sdf)/d(position) (n, 3) of located points."""
        grad = np.empty((len(record.frac), 3))
        for s, e, rec in _blocks(record):
            grad[s:e] = self._block_gradient(rec)
        return grad

    def _block_gradient(self, record):
        feats, corners = self.grid.interpolate(record)
        dfeat = self.decoder.input_gradient(feats)
        grad = np.zeros((feats.shape[0], 3))
        for li, (lvl, corner_feats) in enumerate(zip(self.grid.levels, corners)):
            # scalar contribution of each corner to the decoder input grad
            s_c = np.einsum("ncd,nd->nc", corner_feats, dfeat)
            dw = trilinear_weight_gradients(record.frac[:, li], lvl.voxel_size)
            grad += np.einsum("nc,nca->na", s_c, dw)
        return grad


def _blocks(record):
    """(start, stop, record of those rows) for each of `row_blocks` over the record's rows."""
    n = len(record.frac)
    for s, e in row_blocks(n):
        yield s, e, record if e - s == n else record.take(np.arange(s, e))
