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
    # bincount is the fast exact scatter-add; np.add.at is far slower.
    minlength = out.shape[0]
    for d in range(contrib.shape[1]):
        out[:, d] += np.bincount(rows, weights=contrib[:, d], minlength=minlength)


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


def adam_update_rows_numpy(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    m_r = beta1 * m[rows] + (1.0 - beta1) * grad
    v_r = beta2 * v[rows] + (1.0 - beta2) * grad * grad
    m[rows] = m_r
    v[rows] = v_r
    param[rows] -= lr * (m_r / bc1) / (np.sqrt(v_r / bc2) + eps)


if JIT_ENABLED:
    scatter_add_rows = scatter_add_rows_numba
    adam_update_rows = adam_update_rows_numba
else:
    scatter_add_rows = scatter_add_rows_numpy
    adam_update_rows = adam_update_rows_numpy
