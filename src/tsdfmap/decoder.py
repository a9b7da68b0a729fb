"""MLP decoder mapping an aggregated grid feature to a signed distance.

Two softplus hidden layers of equal width and a linear scalar head.
The decoder is shared by every spatial location; all spatial structure
lives in the feature grid.

softplus(x) = log(1 + e^x) is evaluated as max(x, 0) + log1p(e^-|x|).
The exponent is never positive, so it cannot overflow, and the form runs
on numpy's vectorized exp and log1p loops, in place, one cache-sized
block of rows at a time. Like `np.logaddexp(0, x)` it is within one ulp
of the exact value; the two forms differ in a few percent of entries, by
at most 8.9e-16, so losses differ from those of the logaddexp form in
the last bits.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import expit

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


# rows per softplus block: 1 MB at 32 hidden units, so a block's buffers stay in L2
BLOCK_ROWS = 4096


def row_blocks(n: int):
    """(start, stop) pairs that cover rows [0, n) in order, BLOCK_ROWS at a time.

    The last block runs to n, so it holds BLOCK_ROWS to 2 * BLOCK_ROWS - 1
    rows, and fewer than 2 * BLOCK_ROWS rows stay one block. Decoding in
    these blocks gives bitwise the rows of one call: every product's tail
    stays where a whole call puts it. A short last block would not, since
    the scalar head's gemv and the backward's transposed products give a
    short call's rows other last bits.
    """
    if n <= 0:
        return []
    starts = list(range(0, max(n - BLOCK_ROWS, 0) + 1, BLOCK_ROWS))
    return list(zip(starts, starts[1:] + [n]))


def softplus(x, out=None):
    """Elementwise softplus of a float64 array, BLOCK_ROWS rows at a time.

    The result goes to `out`, a new buffer by default; `out=x` writes it
    over the input. Each element sees the same operations in the same
    order whatever the blocking, so every block size gives the same bits.
    """
    if out is None:
        out = np.empty(x.shape)
    scratch = np.empty((min(len(x), BLOCK_ROWS),) + x.shape[1:])
    for s in range(0, len(x), BLOCK_ROWS):
        xb, ob = x[s : s + BLOCK_ROWS], out[s : s + BLOCK_ROWS]
        pos = np.maximum(xb, 0.0, out=scratch[: len(xb)])  # read before ob overwrites xb
        np.abs(xb, out=ob)
        np.negative(ob, out=ob)
        with np.errstate(under="ignore"):  # e^-|x| below the smallest double is 0
            np.exp(ob, out=ob)
        np.log1p(ob, out=ob)
        ob += pos
    return out


class DecoderCache(NamedTuple):
    """Forward activations needed by the backward pass."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray


class SdfDecoder:
    def __init__(self, feature_dim: int, hidden_units: int, rng):
        self.feature_dim = int(feature_dim)
        self.hidden_units = int(hidden_units)

        def xavier(fan_in, fan_out):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-lim, lim, size=(fan_in, fan_out))

        d, h = self.feature_dim, self.hidden_units
        self.params = {
            "w1": xavier(d, h),
            "b1": np.zeros(h),
            "w2": xavier(h, h),
            "b2": np.zeros(h),
            "w3": xavier(h, 1),
            "b3": np.zeros(1),
        }
        self.adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def hidden(self, feats):
        """(n, feature_dim) features -> (x, z1, a1, z2), the forward pass up
        to the last hidden layer's pre-activation."""
        p = self.params
        x = np.asarray(feats, dtype=np.float64)
        z1 = x @ p["w1"]
        z1 += p["b1"]
        a1 = softplus(z1)
        z2 = a1 @ p["w2"]
        z2 += p["b2"]
        return x, z1, a1, z2

    def values(self, feats):
        """(n, feature_dim) features -> (n,) sdf, without the training cache.

        The same products as `forward` on the same whole batch, with each
        bias and softplus applied in place, so the values are bitwise
        `forward`'s and no activation outlives the next layer.
        """
        p = self.params
        z = np.asarray(feats, dtype=np.float64) @ p["w1"]
        z += p["b1"]
        z = softplus(z, out=z) @ p["w2"]
        z += p["b2"]
        return (softplus(z, out=z) @ p["w3"])[:, 0] + p["b3"][0]

    def forward(self, feats):
        """(n, feature_dim) features -> ((n,) sdf, cache)."""
        x, z1, a1, z2 = self.hidden(feats)
        a2 = softplus(z2)
        s = (a2 @ self.params["w3"])[:, 0] + self.params["b3"][0]
        return s, DecoderCache(x, z1, a1, z2, a2)

    def backward(self, cache, dout):
        """Backprop d(loss)/d(sdf) through the MLP.

        Returns (param_grads, d(loss)/d(features) (n, feature_dim)). The
        cache is consumed: its z1 and z2 are overwritten with dz1 and dz2.
        """
        ds = np.asarray(dout, dtype=np.float64)[:, None]  # (n, 1)
        dz1, dz2, dx = self._backprop_hidden(cache.z1, cache.z2, ds @ self.params["w3"].T)
        grads = {
            "w1": cache.x.T @ dz1,
            "b1": dz1.sum(axis=0),
            "w2": cache.a1.T @ dz2,
            "b2": dz2.sum(axis=0),
            "w3": cache.a2.T @ ds,
            "b3": ds.sum(axis=0),
        }
        return grads, dx

    def input_gradient(self, feats):
        """d(sdf)/d(features), bitwise `backward(forward(feats)[1], ones)[1]`: ones @ w3.T
        is w3's row, so the chain takes that row broadcast; only z1 and z2 outlive `hidden`."""
        z1, z2 = self.hidden(feats)[1::2]
        return self._backprop_hidden(z1, z2, self.params["w3"].T)[2]

    def _backprop_hidden(self, z1, z2, da2):
        """d(loss)/d(a2), (n, h) or one (1, h) row -> (dz1, dz2, dx), in z1's and z2's buffers."""
        dz2 = expit(z2, out=z2)
        dz2 *= da2
        dz1 = expit(z1, out=z1)
        dz1 *= dz2 @ self.params["w2"].T
        return dz1, dz2, dz1 @ self.params["w1"].T
