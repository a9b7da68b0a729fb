"""Open-addressing probes for the int64 voxel-key hash tables.

Tables are power-of-two sized with linear probing and a splitmix64-style
bit mixer. Keys are non-negative packed coordinate triples; the empty
slot sentinel is -1. `insert_rows` only places keys: its caller passes
distinct keys that are absent from the table, and `VoxelHash` owns
deduplication, lookup of present keys and row numbering. Both probes
advance every pending key one slot per round. A key always sits after an
unbroken run of occupied slots from its home slot, which is what lookup
relies on, so a table filled by any linear-probe insert reads back the
same rows.
"""

import numpy as np

EMPTY = np.int64(-1)

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


def _mix_u64(z):
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = z + np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_B)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C)
    return z ^ (z >> np.uint64(31))


def lookup_rows(table_keys, table_vals, keys):
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


def insert_rows(table_keys, table_vals, keys, rows, next_row):
    """Place distinct absent keys; key i gets row next_row + i.

    Returns the next free row. Keys are placed in probe rounds, as in
    lookup_rows: when several reach the same empty slot in one round,
    the lowest index takes it and the rest probe on.
    """
    rows[:] = next_row + np.arange(keys.shape[0])
    mask = np.int64(table_keys.shape[0] - 1)
    slots = (_mix_u64(keys.astype(np.uint64)) & np.uint64(mask)).astype(np.int64)
    pending = np.arange(keys.shape[0])
    while pending.size:
        free = np.flatnonzero(table_keys[slots[pending]] == EMPTY)
        # np.unique reports first occurrences, i.e. the lowest pending index
        _, first = np.unique(slots[pending[free]], return_index=True)
        won = pending[free[first]]
        table_keys[slots[won]] = keys[won]
        table_vals[slots[won]] = rows[won]
        keep = np.ones(pending.size, dtype=bool)
        keep[free[first]] = False
        pending = pending[keep]
        slots[pending] = (slots[pending] + 1) & mask
    return next_row + keys.shape[0]
