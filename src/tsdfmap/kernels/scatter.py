"""Row scatter-add and sparse Adam row updates.

Both are deterministic: scatter-add sums each element's contributions in
row order before adding them to the buffer, and sparse Adam runs
`adam_update`, the update the decoder's dense arrays take, on whole rows.
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


def adam_update(param, m, v, grad, lr, beta1, beta2, eps, bc1, bc2):
    """One Adam update of whole arrays, in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    step = m / bc1
    step *= lr
    den = v / bc2
    np.sqrt(den, out=den)
    den += eps
    step /= den
    param -= step


def adam_update_rows(param, m, v, grad, rows, lr, beta1, beta2, eps, bc1, bc2):
    # grad is compact: grad[i] belongs to row rows[i]; rows are unique.
    # Rows are gathered, updated as one block and written back whole.
    arrays = (param, m, v)
    blocks = [np.take(a, rows, axis=0) for a in arrays]
    adam_update(*blocks, grad, lr, beta1, beta2, eps, bc1, bc2)
    for a, b in zip(arrays, blocks):
        _row_items(a)[rows] = _row_items(b)
