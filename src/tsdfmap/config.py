"""Run configuration: a YAML file of nested sections, strictly parsed.

The mapping settings are the trainer's own `TrainConfig` fields at the
top level of the file; `RunConfig` adds only the `mesh`, `eval` and
`sim` sections. Each section's dataclass sits beside the code that reads
it, and a library default names a config rather than repeat one of its
numbers, so every setting is declared once. Unknown keys are
rejected (typos should fail loudly, not silently run defaults), value
ranges and `sim.scene` entries are checked while parsing, every omitted
field takes its documented default, and serializing a parsed config
materializes all defaults, so a dumped config reproduces the run exactly.
"""

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import get_type_hints

import yaml

from .mesher import MeshConfig
from .metrics import EvalConfig
from .sim import Box, LidarModel, Plane, RayModel, Scene, Sphere, room
from .trainer import TrainConfig


class ConfigError(ValueError):
    """A rejected config value, its message naming the key or section."""


@dataclass
class SimConfig(RayModel):
    n_frames: int = 50
    orbit_radius: float = 4.5
    orbit_height: float = 3.0
    scene: list = dc_field(default_factory=list)  # entries as written: {type: ..., ...}

    def __post_init__(self):
        super().__post_init__()
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not (math.isfinite(self.orbit_radius) and math.isfinite(self.orbit_height)):
            raise ValueError("orbit_radius and orbit_height must be finite")
        self._primitives = [prim for i, entry in enumerate(self.scene)
                            for prim in _scene_entry(entry, f"sim.scene[{i}]")]

    def lidar(self, seed: int = 0) -> LidarModel:
        """The simulated sensor these settings describe."""
        ray = {f.name: getattr(self, f.name) for f in dataclasses.fields(RayModel)}
        return LidarModel(**ray, seed=seed)

    def build_scene(self) -> Scene:
        """The scene the `scene` entries describe, each room as its six walls."""
        return Scene(self._primitives)


@dataclass
class RunConfig(TrainConfig):
    mesh: MeshConfig = dc_field(default_factory=MeshConfig)
    eval: EvalConfig = dc_field(default_factory=EvalConfig)
    sim: SimConfig = dc_field(default_factory=SimConfig)


def _coerce(value, hint, path):
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {path}: expected a number")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {path}: expected an integer")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {path}: expected true/false")
        return value
    if hint in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config key {path}: expected a list")
        for i, v in enumerate(value):
            if isinstance(v, bool):
                raise ConfigError(f"config key {path}[{i}]: true/false is not a list element")
        return hint(value)
    return value


def build_dataclass(cls, data, path=""):
    """Construct a (possibly nested) config dataclass from plain dicts."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path[:-1] or cls.__name__}: expected a mapping")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown config key {path}{key}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing config key {path}{f.name}")
            continue
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = build_dataclass(hint, data[f.name], f"{path}{f.name}.")
        else:
            kwargs[f.name] = _coerce(data[f.name], hint, f"{path}{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as e:  # a range check in the section's __post_init__
        if not path or isinstance(e, ConfigError):  # top level, or a scene entry's own
            raise
        raise ConfigError(f"config section {path[:-1]}: {e}") from None


def _scene_entry(entry, path):
    """The primitives one `sim.scene` entry describes, parsed strictly."""
    types = {"sphere": Sphere, "box": Box, "plane": Plane, "room": Box}  # a room: its 6 walls
    if not isinstance(entry, dict):
        raise ConfigError(f"config section {path}: expected a mapping")
    kind = entry.get("type")
    if not isinstance(kind, str) or kind not in types:
        raise ConfigError(f"config key {path}.type: {kind!r} is not one of {', '.join(types)}")
    prim = build_dataclass(types[kind], {k: v for k, v in entry.items() if k != "type"},
                           f"{path}.")
    return room(prim.min, prim.max) if kind == "room" else [prim]


def config_to_dict(cfg):
    """All fields, defaults materialized, as YAML/JSON-ready plain types."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}
    if isinstance(cfg, (tuple, list)):
        return [config_to_dict(v) for v in cfg]
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            reason = " ".join(str(e).split())  # one line: the CLI prints one error line
            raise ConfigError(f"config file {path}: malformed YAML: {reason}") from None
    return build_dataclass(RunConfig, data)


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)
