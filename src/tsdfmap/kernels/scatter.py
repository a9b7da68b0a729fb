"""Row scatter-add and sparse Adam row updates.

Both are deterministic: scatter-add sums each element's contributions in
row order before adding them to the buffer, and sparse Adam runs the
element-wise update's arithmetic in its order on whole rows.
"""

import numpy as np


def scatter_add_rows(out, rows, contrib):
    # bincount is the fast exact scatter-add; np.add.at is far slower. One
    # bincount over element (r, d) at r * D + d sums each element's
    # contributions in row order, then adds the sums to out.
    width = contrib.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    out += np.bincount(flat, weights=contrib.ravel(), minlength=out.size).reshape(out.shape)


def _row_items(a):
    """A C-contiguous (n, D) array as (n,) items of one whole row each."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(a.shape[0])


def adam_update_rows(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    # grad is compact: grad[i] belongs to row rows[i]; rows are unique.
    # Rows are gathered and written back whole; in between, the
    # element-wise update's arithmetic runs in its order on the block.
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
