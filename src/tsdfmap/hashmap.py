"""Exact sparse voxel hash: packed integer triples -> dense row indices.

Coordinates are packed losslessly into a single int64 (21 bits per
axis, offset-binary), so lookups are collision-exact rather than
Instant-NGP-style lossy hashing. Rows index the caller's dense payload
arrays (features, Fisher accumulators, ...) and are assigned in
first-seen insertion order, which keeps serialization and rebuilds
deterministic. Keys are non-negative; -1 marks an empty slot, so a
negative key is rejected. `VoxelHash` alone looks up the present keys,
deduplicates the missing ones and numbers the new ones; the kernel only
places distinct new keys. The table is sized by the distinct new keys,
so a batch that repeats keys (8 corners per sample, shared between
neighbours) does not inflate it. Slot layout is an internal detail and
is never serialized.
"""

import numpy as np

from .kernels import hashkern

PACK_BITS = 21
PACK_OFFSET = np.int64(1 << (PACK_BITS - 1))
PACK_SPAN = np.int64(1 << PACK_BITS)
COORD_LIMIT = int(PACK_OFFSET)  # packable coordinates are in [-COORD_LIMIT, COORD_LIMIT)


def pack_coords(coords):
    """Pack an (n, 3) int array of grid coordinates into int64 keys."""
    c = np.asarray(coords, dtype=np.int64)
    if c.ndim == 1:
        c = c[None, :]
    if np.any((c < -COORD_LIMIT) | (c >= COORD_LIMIT)):
        raise ValueError("grid coordinate outside packable range")
    return ((c[..., 0] + PACK_OFFSET) * PACK_SPAN + (c[..., 1] + PACK_OFFSET)) * PACK_SPAN + (
        c[..., 2] + PACK_OFFSET
    )


def unpack_key(keys):
    """Inverse of pack_coords; returns an (n, 3) int64 array."""
    k = np.asarray(keys, dtype=np.int64)
    z = k % PACK_SPAN - PACK_OFFSET
    k = k // PACK_SPAN
    y = k % PACK_SPAN - PACK_OFFSET
    x = k // PACK_SPAN - PACK_OFFSET
    return np.stack([x, y, z], axis=-1)


def _as_keys(keys):
    """Flat contiguous int64 keys; a negative key would alias the empty slot."""
    keys = np.ascontiguousarray(keys, dtype=np.int64).ravel()
    if keys.size and keys.min() < 0:
        raise ValueError("voxel keys must be non-negative")
    return keys


class VoxelHash:
    """Open-addressed int64 key -> dense row map with linear probing."""

    def __init__(self, capacity: int = 1024):
        capacity = max(8, int(2 ** np.ceil(np.log2(capacity))))
        self._table_keys = np.full(capacity, hashkern.EMPTY, dtype=np.int64)
        self._table_vals = np.zeros(capacity, dtype=np.int64)
        self._stored = np.empty(capacity, dtype=np.int64)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    @property
    def keys(self):
        """Stored keys in row order (row i holds key keys[i])."""
        return self._stored[: self.size]

    def _grow(self):
        new_cap = self._table_keys.shape[0] * 2
        self._table_keys = np.full(new_cap, hashkern.EMPTY, dtype=np.int64)
        self._table_vals = np.zeros(new_cap, dtype=np.int64)
        rows = np.empty(self.size, dtype=np.int64)
        # Reinserting in row order reproduces the existing row assignment.
        hashkern.insert_rows(self._table_keys, self._table_vals, self._stored[: self.size], rows, 0)
        if self._stored.shape[0] < new_cap:
            stored = np.empty(new_cap, dtype=np.int64)
            stored[: self.size] = self._stored[: self.size]
            self._stored = stored

    def _ensure(self, incoming: int):
        while (self.size + incoming) > 0.6 * self._table_keys.shape[0]:
            self._grow()

    def insert(self, keys):
        """Insert keys (existing ones are found, new ones get fresh rows).

        Rows are those of inserting the keys one by one: a new key gets
        the next free row at its first occurrence. Every key is looked up
        first; only the distinct new keys reach the table, and only they
        count towards its growth.
        """
        keys = _as_keys(keys)
        rows = hashkern.lookup_rows(self._table_keys, self._table_vals, keys)
        miss = np.flatnonzero(rows < 0)
        if miss.size:
            uniq, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
            order = np.argsort(first)
            distinct = uniq[order]  # first-seen order
            self._ensure(distinct.size)
            new_rows = np.empty(distinct.size, dtype=np.int64)
            self.size = int(hashkern.insert_rows(
                self._table_keys, self._table_vals, distinct, new_rows, self.size))
            self._stored[new_rows] = distinct
            uniq_rows = np.empty(uniq.size, dtype=np.int64)
            uniq_rows[order] = new_rows
            rows[miss] = uniq_rows[inverse.ravel()]
        return rows

    def lookup(self, keys):
        """Rows for each key, -1 where absent."""
        keys = _as_keys(keys)
        return hashkern.lookup_rows(self._table_keys, self._table_vals, keys)

    @classmethod
    def from_keys(cls, keys):
        """Rebuild a map whose row order equals the given key order."""
        keys = np.asarray(keys, dtype=np.int64)
        out = cls(capacity=max(8, int(keys.shape[0] / 0.5)))
        out.insert(keys)
        if out.size != keys.shape[0]:
            raise ValueError("duplicate keys in serialized voxel map")
        return out
