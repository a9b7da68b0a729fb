"""Run configuration: a YAML file of nested sections, strictly parsed.

The mapping settings are the trainer's own `TrainConfig` fields at the
top level of the file; `RunConfig` adds only the `mesh`, `eval` and
`sim` sections. Each section's dataclass sits beside the code that reads
it, and a library default names a config rather than repeat one of its
numbers, so every setting is declared once. Unknown keys are
rejected (typos should fail loudly, not silently run defaults), value
ranges are checked while parsing, every omitted field takes its
documented default, and serializing a parsed config materializes all
defaults, so a dumped config reproduces the run exactly.
"""

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import get_type_hints

import yaml

from .mesher import MeshConfig
from .metrics import EvalConfig
from .sim import LidarModel
from .trainer import TrainConfig


@dataclass
class SimConfig:
    n_frames: int = 50
    orbit_radius: float = 4.5
    orbit_height: float = 3.0
    azimuth_count: int = 256
    elevation_count: int = 32
    elevation_min_deg: float = -45.0
    elevation_max_deg: float = 45.0
    max_range: float = 30.0
    beta: float = 0.0
    scene: list = dc_field(default_factory=list)  # primitive dicts

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not (math.isfinite(self.orbit_radius) and math.isfinite(self.orbit_height)):
            raise ValueError("orbit_radius and orbit_height must be finite")
        self.lidar()  # the ray model checks its own values

    def lidar(self, seed: int = 0) -> LidarModel:
        """The simulated sensor these settings describe."""
        return LidarModel(
            azimuth_count=self.azimuth_count,
            elevation_count=self.elevation_count,
            elevation_min_deg=self.elevation_min_deg,
            elevation_max_deg=self.elevation_max_deg,
            max_range=self.max_range,
            beta=self.beta,
            seed=seed,
        )


@dataclass
class RunConfig(TrainConfig):
    mesh: MeshConfig = dc_field(default_factory=MeshConfig)
    eval: EvalConfig = dc_field(default_factory=EvalConfig)
    sim: SimConfig = dc_field(default_factory=SimConfig)


def _coerce(value, hint, path):
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {path}: expected a number")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config key {path}: expected an integer")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ValueError(f"config key {path}: expected true/false")
        return value
    if hint is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {path}: expected a list")
        return tuple(value)
    if hint is list:
        if not isinstance(value, list):
            raise ValueError(f"config key {path}: expected a list")
        return value
    return value


def build_dataclass(cls, data, path=""):
    """Construct a (possibly nested) config dataclass from plain dicts."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"config section {path or cls.__name__}: expected a mapping")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ValueError(f"unknown config key {path}{key}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = build_dataclass(hint, data[f.name], f"{path}{f.name}.")
        else:
            kwargs[f.name] = _coerce(data[f.name], hint, f"{path}{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as e:  # a range check in the section's __post_init__
        if not path:
            raise
        raise ValueError(f"config section {path[:-1]}: {e}") from None


def _plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(v) for v in obj]
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def config_to_dict(cfg) -> dict:
    """All fields, defaults materialized, as YAML/JSON-ready plain types."""
    return _plain(cfg)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return build_dataclass(RunConfig, data)


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)
