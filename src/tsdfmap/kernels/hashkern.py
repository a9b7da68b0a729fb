"""Open-addressing probes for the int64 voxel-key hash tables.

Tables are power-of-two sized with linear probing and a splitmix64-style
bit mixer. Keys are non-negative packed coordinate triples; the empty
slot sentinel is -1. `insert_rows` only places keys: its caller passes
distinct keys that are absent from the table, and `VoxelHash` owns
deduplication, lookup of present keys and row numbering. The compiled
lane probes key by key; the numpy lane advances every pending key one
slot per round. Both lanes return the same rows, but insertion may
leave keys in different slots. Either lane's lookup works on a table
either lane filled: a key always sits after an unbroken run of occupied
slots from its home slot.
"""

import numpy as np

from . import JIT_ENABLED, njit

EMPTY = np.int64(-1)

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


@njit(cache=True)
def _mix_scalar(key):
    z = np.uint64(key) + np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_B)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C)
    return z ^ (z >> np.uint64(31))


def _mix_u64(z):
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = z + np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_B)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C)
    return z ^ (z >> np.uint64(31))


@njit(cache=True)
def lookup_rows_numba(table_keys, table_vals, keys):
    n = keys.shape[0]
    mask = np.uint64(table_keys.shape[0] - 1)
    rows = np.full(n, -1, np.int64)
    for i in range(n):
        k = keys[i]
        j = np.int64(_mix_scalar(k) & mask)
        while True:
            cur = table_keys[j]
            if cur == k:
                rows[i] = table_vals[j]
                break
            if cur == EMPTY:
                break
            j = np.int64((np.uint64(j) + np.uint64(1)) & mask)
    return rows


def lookup_rows_numpy(table_keys, table_vals, keys):
    n = keys.shape[0]
    mask = np.uint64(table_keys.shape[0] - 1)
    rows = np.full(n, -1, np.int64)
    slots = (_mix_u64(keys.astype(np.uint64)) & mask).astype(np.int64)
    pending = np.arange(n)
    while pending.size:
        cur = table_keys[slots[pending]]
        hit = cur == keys[pending]
        if hit.any():
            found = pending[hit]
            rows[found] = table_vals[slots[found]]
        alive = ~(hit | (cur == EMPTY))
        pending = pending[alive]
        if pending.size:
            slots[pending] = ((slots[pending].astype(np.uint64) + np.uint64(1)) & mask).astype(np.int64)
    return rows


@njit(cache=True)
def insert_rows_numba(table_keys, table_vals, keys, rows, next_row):
    mask = np.uint64(table_keys.shape[0] - 1)
    for i in range(keys.shape[0]):
        j = np.int64(_mix_scalar(keys[i]) & mask)
        while table_keys[j] != EMPTY:
            j = np.int64((np.uint64(j) + np.uint64(1)) & mask)
        table_keys[j] = keys[i]
        table_vals[j] = next_row
        rows[i] = next_row
        next_row += 1
    return next_row


def insert_rows_numpy(table_keys, table_vals, keys, rows, next_row):
    """Vectorized twin of insert_rows_numba: the same rows and next_row.

    The keys must be distinct and absent from the table; key i gets row
    next_row + i. Keys are placed in probe rounds, as in
    lookup_rows_numpy: when several reach the same empty slot in one
    round, the lowest index takes it and the rest probe on. The slot
    layout may therefore differ from the compiled lane's.
    """
    rows[:] = next_row + np.arange(keys.shape[0])
    _place_numpy(table_keys, table_vals, keys, rows)
    return next_row + keys.shape[0]


def _place_numpy(table_keys, table_vals, keys, vals):
    """Write distinct absent keys; the lower index wins a contested slot."""
    mask = np.int64(table_keys.shape[0] - 1)
    slots = (_mix_u64(keys.astype(np.uint64)) & np.uint64(mask)).astype(np.int64)
    pending = np.arange(keys.shape[0])
    while pending.size:
        free = np.flatnonzero(table_keys[slots[pending]] == EMPTY)
        # np.unique reports first occurrences, i.e. the lowest pending index
        _, first = np.unique(slots[pending[free]], return_index=True)
        won = pending[free[first]]
        table_keys[slots[won]] = keys[won]
        table_vals[slots[won]] = vals[won]
        keep = np.ones(pending.size, dtype=bool)
        keep[free[first]] = False
        pending = pending[keep]
        slots[pending] = (slots[pending] + 1) & mask


if JIT_ENABLED:
    lookup_rows = lookup_rows_numba
    insert_rows = insert_rows_numba
else:
    lookup_rows = lookup_rows_numpy
    insert_rows = insert_rows_numpy
