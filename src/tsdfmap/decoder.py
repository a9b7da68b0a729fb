"""MLP decoder mapping an aggregated grid feature to a signed distance.

Two softplus hidden layers of equal width and a linear scalar head.
The decoder is shared by every spatial location; all spatial structure
lives in the feature grid.
"""

import numpy as np
from scipy.special import expit

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def softplus(x):
    return np.logaddexp(0.0, x)


class DecoderCache:
    """Forward activations needed by the backward pass."""

    __slots__ = ("x", "z1", "a1", "z2", "a2")

    def __init__(self, x, z1, a1, z2, a2):
        self.x = x
        self.z1 = z1
        self.a1 = a1
        self.z2 = z2
        self.a2 = a2


class SdfDecoder:
    def __init__(self, feature_dim: int = 8, hidden_units: int = 32, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
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

    def forward(self, feats):
        """(n, feature_dim) features -> ((n,) sdf, cache)."""
        p = self.params
        x = np.asarray(feats, dtype=np.float64)
        z1 = x @ p["w1"] + p["b1"]
        a1 = softplus(z1)
        z2 = a1 @ p["w2"] + p["b2"]
        a2 = softplus(z2)
        s = (a2 @ p["w3"])[:, 0] + p["b3"][0]
        return s, DecoderCache(x, z1, a1, z2, a2)

    def backward(self, cache, dout, with_param_grads: bool = True):
        """Backprop d(loss)/d(sdf) through the MLP.

        Returns (param_grads_or_None, d(loss)/d(features) (n, feature_dim)).
        """
        p = self.params
        ds = np.asarray(dout, dtype=np.float64)[:, None]  # (n, 1)
        da2 = ds @ p["w3"].T
        dz2 = da2 * expit(cache.z2)
        da1 = dz2 @ p["w2"].T
        dz1 = da1 * expit(cache.z1)
        dx = dz1 @ p["w1"].T
        if not with_param_grads:
            return None, dx
        grads = {
            "w1": cache.x.T @ dz1,
            "b1": dz1.sum(axis=0),
            "w2": cache.a1.T @ dz2,
            "b2": dz2.sum(axis=0),
            "w3": cache.a2.T @ ds,
            "b3": ds.sum(axis=0),
        }
        return grads, dx
