import numpy as np
import pytest

from tsdfmap.checkpoint import load_checkpoint, save_checkpoint
from tsdfmap.decoder import PARAM_NAMES
from tsdfmap.errors import UnsupportedFormat
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
    for col in ("pos", "label", "ray_len", "cos_inc", "mse", "frame_id",
                "seq", "bucket"):
        np.testing.assert_array_equal(getattr(a.pool, col),
                                      getattr(b.pool, col))
    assert a.pool._next_seq == b.pool._next_seq


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
