import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdfmap.hashmap import COORD_LIMIT, VoxelHash, pack_coords, unpack_key
from tsdfmap.kernels import hashkern


def test_pack_unpack_roundtrip(rng):
    coords = rng.integers(-COORD_LIMIT, COORD_LIMIT, size=(1000, 3))
    keys = pack_coords(coords)
    assert np.array_equal(unpack_key(keys), coords)


def test_pack_is_injective_on_distinct_coords(rng):
    coords = rng.integers(-100, 100, size=(5000, 3))
    uniq_c = np.unique(coords, axis=0)
    uniq_k = np.unique(pack_coords(uniq_c))
    assert uniq_k.size == uniq_c.shape[0]


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_coords(np.array([[COORD_LIMIT, 0, 0]]))
    with pytest.raises(ValueError):
        pack_coords(np.array([[0, -COORD_LIMIT - 1, 0]]))


def test_insert_assigns_rows_in_first_seen_order():
    h = VoxelHash()
    keys = np.array([10, 20, 10, 30, 20, 40], dtype=np.int64)
    rows = h.insert(keys)
    assert rows.tolist() == [0, 1, 0, 2, 1, 3]
    assert h.size == 4
    assert h.keys.tolist() == [10, 20, 30, 40]


def test_negative_keys_are_rejected():
    # -1 marks an empty slot, so a negative key would alias another row
    h = VoxelHash()
    with pytest.raises(ValueError, match="non-negative"):
        h.lookup(np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError, match="non-negative"):
        h.insert(np.array([5, -1], dtype=np.int64))
    assert h.size == 0
    assert h.lookup(np.array([5], dtype=np.int64)).tolist() == [-1]


def test_lookup_missing_is_minus_one():
    h = VoxelHash()
    h.insert(np.array([5, 7], dtype=np.int64))
    out = h.lookup(np.array([5, 6, 7, 8], dtype=np.int64))
    assert out.tolist() == [0, -1, 1, -1]


def test_growth_preserves_rows(rng):
    h = VoxelHash(capacity=8)
    keys = rng.choice(10_000_000, size=5000, replace=False).astype(np.int64)
    rows = h.insert(keys)
    assert np.array_equal(rows, np.arange(5000))
    # lookups after many growths still agree
    assert np.array_equal(h.lookup(keys), np.arange(5000))
    assert np.array_equal(h.keys, keys)


def test_from_keys_preserves_order(rng):
    keys = rng.choice(1_000_000, size=300, replace=False).astype(np.int64)
    h = VoxelHash.from_keys(keys)
    assert np.array_equal(h.lookup(keys), np.arange(300))


def test_from_keys_rejects_duplicates():
    with pytest.raises(ValueError):
        VoxelHash.from_keys(np.array([1, 2, 1], dtype=np.int64))


def test_incremental_matches_bulk(rng):
    keys = rng.integers(0, 500, size=2000).astype(np.int64)
    bulk = VoxelHash()
    bulk.insert(keys)
    inc = VoxelHash()
    for part in np.array_split(keys, 13):
        inc.insert(part)
    assert np.array_equal(bulk.keys, inc.keys)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000),
                          st.integers(-1000, 1000)), min_size=1, max_size=200))
def test_insert_lookup_agree(coord_list):
    keys = pack_coords(np.asarray(coord_list, dtype=np.int64))
    h = VoxelHash()
    rows = h.insert(keys)
    assert np.array_equal(h.lookup(keys), rows)
    # rows index the stored key order
    assert np.array_equal(h.keys[rows], keys)


def _reference_insert(table, keys):
    """Sequential dict reference: a new key takes the next row."""
    return [table.setdefault(k, len(table)) for k in keys.tolist()]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(0, 300), max_size=120), min_size=1, max_size=6))
def test_insert_matches_sequential_reference(batches):
    # small key range: batches repeat keys within themselves and keys
    # earlier batches stored, and 300 keys outgrow capacity=8 many times
    h = VoxelHash(capacity=8)
    ref = {}
    for batch in batches:
        keys = np.asarray(batch, dtype=np.int64)
        rows = h.insert(keys)
        assert rows.dtype == np.int64
        assert rows.tolist() == _reference_insert(ref, keys)
        assert h.keys.tolist() == list(ref)
        assert h.size == len(ref) <= 0.6 * h._table_keys.size
    probe = np.arange(302, dtype=np.int64)  # keys are non-negative; -1 marks empty slots
    assert h.lookup(probe).tolist() == [ref.get(k, -1) for k in probe.tolist()]


def test_repeated_keys_do_not_inflate_the_table(rng):
    keys = rng.choice(10_000_000, size=1000, replace=False).astype(np.int64)
    h = VoxelHash()
    rows = h.insert(np.tile(keys, 8))
    assert np.array_equal(rows, np.tile(np.arange(1000), 8))
    assert h.size / h._table_keys.size >= 0.25


def unique_first_insert(h, keys):
    """Reference: insert by deduplicating every key first, then looking up
    the distinct keys and placing the missing ones in first-seen order."""
    keys = np.ascontiguousarray(keys, dtype=np.int64).ravel()
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    distinct = uniq[order]
    found = hashkern.lookup_rows(h._table_keys, h._table_vals, distinct)
    miss = np.flatnonzero(found < 0)
    if miss.size:
        h._ensure(miss.size)
        new_rows = np.empty(miss.size, dtype=np.int64)
        h.size = int(hashkern.insert_rows(h._table_keys, h._table_vals, distinct[miss],
                                          new_rows, h.size))
        found[miss] = new_rows
        h._stored[new_rows] = distinct[miss]
    rows = np.empty(uniq.size, dtype=np.int64)
    rows[order] = found
    return rows[inverse.ravel()]


def assert_same_table(a, b):
    assert a.size == b.size
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a._table_keys, b._table_keys)  # same slots, same growth points
    assert np.array_equal(a._table_vals, b._table_vals)


def test_lookup_first_insert_matches_per_key_insert_and_the_unique_first_layout(rng):
    fresh = 100 + rng.choice(1_000_000, size=60, replace=False).astype(np.int64)
    batches = [
        np.array([7, 3, 7, 7, 11, 3], dtype=np.int64),  # repeats
        np.array([], dtype=np.int64),  # empty
        np.array([11, 5, 3, 5, 2], dtype=np.int64),  # present and new keys
        np.array([3, 7, 11], dtype=np.int64),  # present keys only
        np.concatenate([[2, 5], fresh[:40], fresh[:40:3], [7]]),  # grows the table mid-batch
        np.tile(fresh[40:], 3),
    ]
    got, want = VoxelHash(capacity=8), VoxelHash(capacity=8)
    ref = {}
    slots = []
    for keys in batches:
        rows = got.insert(keys)
        assert rows.dtype == np.int64
        assert rows.tolist() == _reference_insert(ref, keys)
        assert np.array_equal(rows, unique_first_insert(want, keys))
        assert_same_table(got, want)
        slots.append(got._table_keys.size)
    assert slots[4] > slots[3]

    keys = rng.choice(1_000_000, size=700, replace=False).astype(np.int64)  # all new
    built, want = VoxelHash.from_keys(keys), VoxelHash(capacity=max(8, int(keys.size / 0.5)))
    assert np.array_equal(unique_first_insert(want, keys), np.arange(keys.size))
    assert_same_table(built, want)
