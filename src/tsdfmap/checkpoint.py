"""Checkpointing: full mapper state in a single .npz archive.

Saves everything needed to resume mid-sequence and produce bitwise
identical results vs. the uninterrupted run: grid vertex keys +
features + Adam moments per level, decoder weights + moments, Fisher
accumulators, the replay pool columns, and the step/frame counters.
The `TrainConfig` fields of the mapper's config ride along as JSON, so a
checkpoint is self-describing.

Members are stored, not deflated: the float64 payloads that make up most
of the bytes shrink by 5% or less under zlib, which costs about a second
per save. Zip's per-member CRC-32 still guards every array. Deflated
archives (the writer of 0.2.0 and earlier) load the same way.
"""

import dataclasses
import json
import os
import tempfile
import zipfile
import zlib

import numpy as np

from .config import build_dataclass, config_to_dict
from .decoder import PARAM_NAMES
from .errors import MalformedFile, UnsupportedFormat
from .hashmap import VoxelHash
from .pool import _COLUMNS as POOL_COLUMNS
from .trainer import Mapper, TrainConfig

FORMAT_VERSION = 2

# what np.load and a member read raise on a truncated, corrupt or non-npz file
_UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, ValueError)


def save_checkpoint(path, mapper: Mapper) -> None:
    """Write the mapper's state to `path` (a file name or a binary file).

    A file name is written atomically: the archive goes to a temporary
    file in the same directory, which then replaces `path`, so an
    interrupted save leaves any previous checkpoint intact. As with
    `np.savez`, which writes the archive with stored members, a name
    without the `.npz` suffix gets it.
    """
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
    for name, _, _ in POOL_COLUMNS:
        arrays[f"pool_{name}"] = getattr(mapper.pool, name)
    if not isinstance(path, (str, os.PathLike)):
        np.savez(path, **arrays)
        return
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read(data, name, dtype, shape):
    """Array `name`, checked against a dtype and a shape (None: any size)."""
    if name not in data.files:
        raise MalformedFile(f"checkpoint has no array {name!r}")
    try:
        arr = data[name]  # a fresh, writable array: nothing else holds it
    except _UNREADABLE as exc:
        raise MalformedFile(f"checkpoint array {name!r} is unreadable: {exc}") from None
    if arr.dtype != dtype or arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)):
        raise MalformedFile(
            f"checkpoint array {name!r} is {arr.dtype} of shape {arr.shape}, "
            f"expected {np.dtype(dtype)} of shape {shape}"
        )
    return arr


def _read_count(data, name, least=0):
    """Int64 scalar `name`, checked to be at least `least`."""
    value = int(_read(data, name, np.int64, ()))
    if value < least:
        raise MalformedFile(f"checkpoint array {name!r} is {value}, expected at least {least}")
    return value


def _read_hash(data, name):
    keys = _read(data, name, np.int64, (None,))
    try:
        return VoxelHash.from_keys(keys), keys.size
    except ValueError as exc:
        raise MalformedFile(f"checkpoint array {name!r}: {exc}") from None


def load_checkpoint(path) -> Mapper:
    """Rebuild a mapper from `save_checkpoint` output.

    Raises MalformedFile when the file is not a readable .npz archive
    (empty, truncated, or an array that fails its CRC), when an array
    is missing or its shape or dtype disagrees with the embedded config
    or with the arrays it pairs with, when `config_json` is not a valid
    `TrainConfig` as UTF-8 JSON, or when a counter is negative or
    `pool_next_seq` is not above every stored pool `seq`.
    """
    try:
        data = np.load(path)
    except _UNREADABLE as exc:
        raise MalformedFile(f"checkpoint is not a readable .npz archive: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise MalformedFile("checkpoint is a single .npy array, not an .npz archive")
    with data:
        version = int(_read(data, "version", np.int64, ()))
        if version != FORMAT_VERSION:
            raise UnsupportedFormat(
                f"checkpoint format version {version} (reader supports {FORMAT_VERSION})"
            )
        raw = bytes(_read(data, "config_json", np.uint8, (None,)))
        try:  # JSON and Unicode decode errors are ValueErrors too
            config = build_dataclass(TrainConfig, json.loads(raw.decode()))
        except ValueError as exc:
            raise MalformedFile(f"checkpoint array 'config_json' is not UTF-8 JSON of a "
                                f"TrainConfig: {exc}") from None
        mapper = Mapper(config)
        mapper.frames_done = _read_count(data, "frames_done")
        mapper.adam_steps = _read_count(data, "adam_step")
        for name in PARAM_NAMES:
            shape = mapper.decoder.params[name].shape
            for prefix, store in (("dec_", mapper.decoder.params),
                                  ("dec_m_", mapper.decoder.adam_m),
                                  ("dec_v_", mapper.decoder.adam_v)):
                store[name] = _read(data, f"{prefix}{name}", np.float64, shape)
        for i, lvl in enumerate(mapper.grid.levels):
            lvl.vertices, n = _read_hash(data, f"grid{i}_keys")
            lvl.ensure_rows(n)
            shape = (n, lvl.feature_dim)
            lvl.features[:] = _read(data, f"grid{i}_feat", np.float64, shape)
            lvl.adam_m[:] = _read(data, f"grid{i}_m", np.float64, shape)
            lvl.adam_v[:] = _read(data, f"grid{i}_v", np.float64, shape)
        mapper.perturb.vertices, n = _read_hash(data, "perturb_keys")
        mapper.perturb.ensure_rows(n)
        mapper.perturb.fisher[:] = _read(data, "perturb_fisher", np.float64, (n, 3))
        n = None  # pool rows, set by the first column
        for name, dtype, shape in POOL_COLUMNS:
            column = _read(data, f"pool_{name}", dtype, (n, *shape))
            n = column.shape[0]
            setattr(mapper.pool, name, column)
        # new rows are numbered past every stored row
        mapper.pool._next_seq = _read_count(data, "pool_next_seq",
                                            int(mapper.pool.seq.max(initial=-1)) + 1)
    return mapper
