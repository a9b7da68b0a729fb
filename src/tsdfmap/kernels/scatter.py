"""Row scatter-add and sparse Adam row updates.

Scatter order is fixed (sequential over contributions) so gradient
accumulation is deterministic in both lanes.
"""

import numpy as np

from . import JIT_ENABLED, njit


@njit(cache=True)
def scatter_add_rows_numba(out, rows, contrib):
    for i in range(rows.shape[0]):
        r = rows[i]
        for d in range(contrib.shape[1]):
            out[r, d] += contrib[i, d]


def scatter_add_rows_numpy(out, rows, contrib):
    # bincount is the fast exact scatter-add; np.add.at is far slower. One
    # bincount over element (r, d) at r * D + d sums each element's
    # contributions in row order, then adds the sums to out.
    width = contrib.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    out += np.bincount(flat, weights=contrib.ravel(), minlength=out.size).reshape(out.shape)


@njit(cache=True)
def adam_update_rows_numba(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    # grad is compact: grad[i] belongs to row rows[i]; rows are unique.
    for i in range(rows.shape[0]):
        r = rows[i]
        for d in range(param.shape[1]):
            g = grad[i, d]
            m[r, d] = beta1 * m[r, d] + (1.0 - beta1) * g
            v[r, d] = beta2 * v[r, d] + (1.0 - beta2) * g * g
            m_hat = m[r, d] / bc1
            v_hat = v[r, d] / bc2
            param[r, d] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _row_items(a):
    """A C-contiguous (n, D) array as (n,) items of one whole row each."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(a.shape[0])


def adam_update_rows_numpy(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    # Rows are gathered and written back whole; in between, the numba
    # loop's arithmetic runs in its order on the gathered block.
    m_r = np.take(m, rows, axis=0)
    m_r *= beta1
    m_r += (1.0 - beta1) * grad
    v_r = np.take(v, rows, axis=0)
    v_r *= beta2
    v_r += (1.0 - beta2) * grad * grad
    _row_items(m)[rows] = _row_items(m_r)
    _row_items(v)[rows] = _row_items(v_r)
    step = m_r / bc1
    step *= lr
    den = v_r / bc2
    np.sqrt(den, out=den)
    den += eps
    step /= den
    p_r = np.take(param, rows, axis=0)
    p_r -= step
    _row_items(param)[rows] = _row_items(p_r)


if JIT_ENABLED:
    scatter_add_rows = scatter_add_rows_numba
    adam_update_rows = adam_update_rows_numba
else:
    scatter_add_rows = scatter_add_rows_numpy
    adam_update_rows = adam_update_rows_numpy
