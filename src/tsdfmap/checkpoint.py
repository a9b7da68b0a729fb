"""Checkpointing: full mapper state in a single compressed .npz.

Saves everything needed to resume mid-sequence and produce bitwise
identical results vs. the uninterrupted run: grid vertex keys +
features + Adam moments per level, decoder weights + moments, Fisher
accumulators, the replay pool columns, and the step/frame counters.
The `TrainConfig` fields of the mapper's config ride along as JSON, so a
checkpoint is self-describing.
"""

import dataclasses
import json

import numpy as np

from .config import build_dataclass, config_to_dict
from .decoder import PARAM_NAMES
from .errors import UnsupportedFormat
from .hashmap import VoxelHash
from .trainer import Mapper, TrainConfig

FORMAT_VERSION = 2


def save_checkpoint(path, mapper: Mapper) -> None:
    cfg = config_to_dict(mapper.cfg)
    train_cfg = {f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)}
    arrays = {
        "version": np.int64(FORMAT_VERSION),
        "config_json": np.frombuffer(json.dumps(train_cfg).encode(), dtype=np.uint8),
        "frames_done": np.int64(mapper.frames_done),
        "adam_step": np.int64(mapper.adam_steps),
        "pool_next_seq": np.int64(mapper.pool._next_seq),
    }
    for name in PARAM_NAMES:
        arrays[f"dec_{name}"] = mapper.decoder.params[name]
        arrays[f"dec_m_{name}"] = mapper.decoder.adam_m[name]
        arrays[f"dec_v_{name}"] = mapper.decoder.adam_v[name]
    for i, lvl in enumerate(mapper.grid.levels):
        arrays[f"grid{i}_keys"] = lvl.vertices.keys
        arrays[f"grid{i}_feat"] = lvl.features
        arrays[f"grid{i}_m"] = lvl.adam_m
        arrays[f"grid{i}_v"] = lvl.adam_v
    arrays["perturb_keys"] = mapper.perturb.vertices.keys
    arrays["perturb_fisher"] = mapper.perturb.fisher
    pool = mapper.pool
    arrays["pool_pos"] = pool.pos
    arrays["pool_label"] = pool.label
    arrays["pool_ray_len"] = pool.ray_len
    arrays["pool_cos_inc"] = pool.cos_inc
    arrays["pool_mse"] = pool.mse
    arrays["pool_frame_id"] = pool.frame_id
    arrays["pool_seq"] = pool.seq
    arrays["pool_bucket"] = pool.bucket
    np.savez_compressed(path, **arrays)


def load_checkpoint(path) -> Mapper:
    with np.load(path) as data:
        version = int(data["version"])
        if version != FORMAT_VERSION:
            raise UnsupportedFormat(
                f"checkpoint format version {version} (reader supports {FORMAT_VERSION})"
            )
        cfg = build_dataclass(TrainConfig, json.loads(bytes(data["config_json"]).decode()))
        mapper = Mapper(cfg)
        mapper.frames_done = int(data["frames_done"])
        mapper.adam_steps = int(data["adam_step"])
        for name in PARAM_NAMES:
            mapper.decoder.params[name] = data[f"dec_{name}"].copy()
            mapper.decoder.adam_m[name] = data[f"dec_m_{name}"].copy()
            mapper.decoder.adam_v[name] = data[f"dec_v_{name}"].copy()
        for i, lvl in enumerate(mapper.grid.levels):
            keys = data[f"grid{i}_keys"]
            lvl.vertices = VoxelHash.from_keys(keys)
            lvl.ensure_rows(keys.size)
            lvl.features[:] = data[f"grid{i}_feat"]
            lvl.adam_m[:] = data[f"grid{i}_m"]
            lvl.adam_v[:] = data[f"grid{i}_v"]
        pkeys = data["perturb_keys"]
        mapper.perturb.vertices = VoxelHash.from_keys(pkeys)
        mapper.perturb._ensure_rows(pkeys.size)
        mapper.perturb.fisher[:] = data["perturb_fisher"]
        pool = mapper.pool
        pool.pos = data["pool_pos"].copy()
        pool.label = data["pool_label"].copy()
        pool.ray_len = data["pool_ray_len"].copy()
        pool.cos_inc = data["pool_cos_inc"].copy()
        pool.mse = data["pool_mse"].copy()
        pool.frame_id = data["pool_frame_id"].copy()
        pool.seq = data["pool_seq"].copy()
        pool.bucket = data["pool_bucket"].copy()
        pool._next_seq = int(data["pool_next_seq"])
    return mapper
