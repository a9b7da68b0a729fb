import io
import re
import struct
import zipfile

import numpy as np
import pytest

from tsdfmap.checkpoint import load_checkpoint, save_checkpoint
from tsdfmap.cli import main
from tsdfmap.decoder import PARAM_NAMES
from tsdfmap.errors import MalformedFile, UnsupportedFormat
from tsdfmap.pool import _COLUMNS as POOL_COLUMNS
from tsdfmap.sampler import Scan
from tsdfmap.trainer import Mapper, TrainConfig


def cfg():
    return TrainConfig(iterations=4, batch_size=128, n_uncertain=32, seed=21)


def make_scan(frame, seed=0):
    r = np.random.default_rng([seed, frame])
    n = 150
    pts = np.column_stack([r.uniform(-3, 3, n), r.uniform(-3, 3, n),
                           np.zeros(n)])
    return Scan(np.array([0.0, 0.0, 2.0]), pts, frame)


def assert_mappers_equal(a: Mapper, b: Mapper):
    assert a.frames_done == b.frames_done
    assert a.adam_steps == b.adam_steps
    for n in PARAM_NAMES:
        np.testing.assert_array_equal(a.decoder.params[n], b.decoder.params[n])
        np.testing.assert_array_equal(a.decoder.adam_m[n], b.decoder.adam_m[n])
        np.testing.assert_array_equal(a.decoder.adam_v[n], b.decoder.adam_v[n])
    for la, lb in zip(a.grid.levels, b.grid.levels):
        np.testing.assert_array_equal(la.vertices.keys, lb.vertices.keys)
        np.testing.assert_array_equal(la.features, lb.features)
        np.testing.assert_array_equal(la.adam_m, lb.adam_m)
        np.testing.assert_array_equal(la.adam_v, lb.adam_v)
    np.testing.assert_array_equal(a.perturb.vertices.keys,
                                  b.perturb.vertices.keys)
    np.testing.assert_array_equal(a.perturb.fisher, b.perturb.fisher)
    for col, _, _ in POOL_COLUMNS:
        np.testing.assert_array_equal(getattr(a.pool, col),
                                      getattr(b.pool, col))
    assert a.pool._next_seq == b.pool._next_seq
    assert a.pool.cfg == b.pool.cfg


def test_save_load_restores_state(tmp_path):
    mapper = Mapper(cfg())
    for f in range(2):
        mapper.process_frame(make_scan(f))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    back = load_checkpoint(path)
    assert_mappers_equal(mapper, back)
    assert back.cfg == mapper.cfg


def test_resume_is_bitwise_identical_to_uninterrupted(tmp_path):
    straight = Mapper(cfg())
    losses_straight = []
    for f in range(4):
        losses_straight.extend(straight.process_frame(make_scan(f)).losses)

    first = Mapper(cfg())
    for f in range(2):
        first.process_frame(make_scan(f))
    path = tmp_path / "mid.npz"
    save_checkpoint(path, first)
    resumed = load_checkpoint(path)
    losses_resumed = []
    for f in range(2, 4):
        losses_resumed.extend(resumed.process_frame(make_scan(f)).losses)

    assert losses_straight[8:] == losses_resumed
    assert_mappers_equal(straight, resumed)


def test_version_mismatch_rejected(tmp_path):
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    data = dict(np.load(path))
    data["version"] = np.int64(999)
    np.savez_compressed(path, **data)
    with pytest.raises(UnsupportedFormat):
        load_checkpoint(path)


def test_checkpoint_is_self_describing(tmp_path):
    c = cfg()
    c.pool.capacity = 33
    mapper = Mapper(c)
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    back = load_checkpoint(path)
    assert back.cfg.pool.capacity == 33
    assert back.pool.capacity == 33


def test_checkpoint_array_names_are_pinned(tmp_path):
    # the on-disk layout of FORMAT_VERSION 2; renaming or reordering an
    # array here breaks reading older checkpoints
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    with np.load(path) as data:
        names = list(data.files)
    expect = ["version", "config_json", "frames_done", "adam_step", "pool_next_seq"]
    for n in ("w1", "b1", "w2", "b2", "w3", "b3"):
        expect += [f"dec_{n}", f"dec_m_{n}", f"dec_v_{n}"]
    for i in (0, 1):  # the default two grid levels
        expect += [f"grid{i}_keys", f"grid{i}_feat", f"grid{i}_m", f"grid{i}_v"]
    expect += ["perturb_keys", "perturb_fisher",
               "pool_pos", "pool_label", "pool_ray_len", "pool_cos_inc",
               "pool_mse", "pool_frame_id", "pool_seq", "pool_bucket"]
    assert names == expect


class _Unwritable:
    """Raises when numpy converts it, after earlier arrays were written."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("disk full")


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path):
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, mapper)
    mapper.process_frame(make_scan(1))
    mapper.pool.mse = _Unwritable()  # the pool columns are written last
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(path, mapper)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]
    assert load_checkpoint(path).frames_done == 1


def test_save_to_a_file_object(tmp_path):
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    buf = io.BytesIO()
    save_checkpoint(buf, mapper)
    buf.seek(0)
    assert_mappers_equal(mapper, load_checkpoint(buf))
    assert list(tmp_path.iterdir()) == []


def _saved_arrays(tmp_path, frames=1):
    mapper = Mapper(cfg())
    for f in range(frames):
        mapper.process_frame(make_scan(f))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    return path, dict(np.load(path))


def _rejects(path, data, match):
    np.savez_compressed(path, **data)
    with pytest.raises(MalformedFile, match=match):
        load_checkpoint(path)


def test_missing_array_rejected(tmp_path):
    path, data = _saved_arrays(tmp_path)
    del data["grid1_m"]
    _rejects(path, data, "no array 'grid1_m'")


def test_grid_features_must_match_keys_and_feature_dim(tmp_path):
    path, data = _saved_arrays(tmp_path)
    good = data["grid0_feat"]
    _rejects(path, {**data, "grid0_feat": good[:-1]}, "'grid0_feat'")
    _rejects(path, {**data, "grid0_feat": good[:, :-1]}, "'grid0_feat'")


def test_negative_grid_key_rejected(tmp_path):
    path, data = _saved_arrays(tmp_path)
    keys = data["grid0_keys"].copy()
    keys[1] = -1
    _rejects(path, {**data, "grid0_keys": keys}, "'grid0_keys'.*non-negative")


def test_fisher_must_match_its_keys(tmp_path):
    path, data = _saved_arrays(tmp_path)
    _rejects(path, {**data, "perturb_fisher": data["perturb_fisher"][1:]},
             "'perturb_fisher'")


def test_pool_columns_must_agree_in_length_and_dtype(tmp_path):
    path, data = _saved_arrays(tmp_path)
    _rejects(path, {**data, "pool_label": data["pool_label"][:-1]}, "'pool_label'")
    _rejects(path, {**data, "pool_frame_id": data["pool_frame_id"].astype(np.int64)},
             "'pool_frame_id'")


@pytest.mark.parametrize("name", ["frames_done", "adam_step", "pool_next_seq"])
def test_negative_counter_rejected(tmp_path, name):
    path, data = _saved_arrays(tmp_path, frames=0)  # an empty pool bounds no seq
    _rejects(path, {**data, name: np.int64(-5)}, f"'{name}' is -5, expected at least 0$")


def test_pool_next_seq_must_be_above_every_stored_seq(tmp_path):
    path, data = _saved_arrays(tmp_path)
    top = int(data["pool_seq"].max())
    assert int(data["pool_next_seq"]) == top + 1
    for bad in (top, top - 1):
        _rejects(path, {**data, "pool_next_seq": np.int64(bad)},
                 f"'pool_next_seq' is {bad}, expected at least {top + 1}$")


@pytest.mark.parametrize("raw, match", [
    (b"\xff\xfe{}", "can't decode byte"),  # not UTF-8
    (b"{iterations: 4", "Expecting property name"),  # not JSON
    (b'{"bogus": 1}', "unknown config key bogus"),
    (b'{"iterations": 0}', "iterations must be >= 1"),
    (b'{"pool": {"capacity": "many"}}', "pool.capacity: expected an integer"),
    (b"[1, 2]", "expected a mapping"),
])
def test_bad_config_json_names_the_member(tmp_path, raw, match):
    path, data = _saved_arrays(tmp_path)
    _rejects(path, {**data, "config_json": np.frombuffer(raw, dtype=np.uint8)},
             f"^checkpoint array 'config_json' is not UTF-8 JSON of a TrainConfig: .*{match}")


def test_members_are_stored_not_deflated(tmp_path):
    # the float64 payloads barely deflate, and deflating them cost about a
    # second per save
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    buf = io.BytesIO()
    save_checkpoint(buf, mapper)
    for source in (path, buf):
        with zipfile.ZipFile(source) as zf:
            infos = zf.infolist()
        assert len(infos) == 41  # the arrays test_checkpoint_array_names_are_pinned lists
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)


def test_deflated_checkpoint_still_loads(tmp_path):
    # the writer of 0.2.0 and earlier: np.savez_compressed
    mapper = Mapper(cfg())
    for f in range(2):
        mapper.process_frame(make_scan(f))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist())
    assert_mappers_equal(mapper, load_checkpoint(path))


def test_loaded_arrays_are_writable_and_share_no_memory(tmp_path):
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    back = load_checkpoint(path)
    dec = back.decoder
    arrays = [store[n] for store in (dec.params, dec.adam_m, dec.adam_v)
              for n in PARAM_NAMES]
    arrays += [getattr(back.pool, name) for name, _, _ in POOL_COLUMNS]
    assert all(a.flags.writeable for a in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def _damaged(tmp_path, damage):
    """A checkpoint file cut in half, with a damaged member, or empty, or a
    file that is no .npz archive at all."""
    mapper = Mapper(cfg())
    mapper.process_frame(make_scan(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, mapper)
    if damage == "bad-deflate-block":  # deflated, as 0.2.0 wrote it
        with np.load(path) as data:
            np.savez_compressed(path, **{name: data[name] for name in data.files})
    raw = bytearray(path.read_bytes())
    if damage == "truncated":
        raw = raw[:len(raw) // 2]
    elif damage in ("flipped", "bad-deflate-block"):
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("grid0_v.npy")
        # the member's data follows its local header and that header's name and extra
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        if damage == "flipped":
            raw[start + info.compress_size // 2] ^= 0xFF
        else:
            raw[start] |= 0x06  # deflate block type 3 is reserved
    elif damage == "empty":
        raw = b""
    elif damage == "npy":
        buf = io.BytesIO()
        np.save(buf, np.arange(3))
        raw = buf.getvalue()
    else:
        raw = b"frames_done: 3\n"
    path.write_bytes(raw)
    return path


DAMAGE = {
    "truncated": "not a readable .npz archive: File is not a zip file",
    "flipped": "array 'grid0_v' is unreadable: Bad CRC-32 for file 'grid0_v.npy'",
    "bad-deflate-block": "array 'grid0_v' is unreadable: .*invalid block type",
    "empty": "not a readable .npz archive: No data left in file",
    "npy": "a single .npy array, not an .npz archive",
    "text": "not a readable .npz archive: .*pickled",
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_file_raises_malformed_file(tmp_path, damage):
    with pytest.raises(MalformedFile, match=DAMAGE[damage]):
        load_checkpoint(_damaged(tmp_path, damage))


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_mesh_command_reports_a_damaged_checkpoint(tmp_path, capsys, damage):
    out = tmp_path / "mesh.ply"
    rc = main(["mesh", str(_damaged(tmp_path, damage)), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoint ")
    assert re.search(DAMAGE[damage], err[0])
    assert not out.exists()
