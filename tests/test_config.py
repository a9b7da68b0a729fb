import re
from pathlib import Path

import pytest
import yaml

from tsdfmap.config import (
    RunConfig,
    build_dataclass,
    config_to_dict,
    dump_config,
    load_config,
)
from tsdfmap.trainer import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_match_engine_settings():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert tuple(cfg.voxel_sizes) == (0.3, 0.45)
    assert cfg.feature_dim == 8
    assert cfg.iterations == 15
    assert cfg.batch_size == 16384
    assert cfg.n_uncertain == 1000
    assert cfg.sampler.trunc_dist == 0.3
    assert cfg.sampler.n_front == 3
    assert cfg.sampler.n_behind == 1
    assert cfg.sampler.n_free == 2
    assert cfg.pool.capacity == 256
    assert cfg.pool.prune_radius == 50.0
    assert cfg.uncertainty.threshold == 0.98
    assert cfg.adam.lr == 0.01
    assert cfg.mesh.spacing == 0.10
    assert cfg.eval.threshold == 0.10


def test_yaml_roundtrip_is_semantically_identical(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 7\niterations: 5\npool:\n  capacity: 64\n")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.iterations == 5
    assert cfg.pool.capacity == 64
    # untouched sections keep defaults
    assert cfg.adam.lr == 0.01

    text = dump_config(cfg)
    path2 = tmp_path / "resolved.yaml"
    path2.write_text(text)
    cfg2 = load_config(path2)
    assert config_to_dict(cfg) == config_to_dict(cfg2)
    # serialization materializes every default
    data = yaml.safe_load(text)
    assert data["batch_size"] == 16384
    assert data["uncertainty"]["gamma"] == 1.0


def test_unknown_key_rejected_with_path(tmp_path):
    path = tmp_path / "bad.yaml"
    cases = [
        ("sampler:\n  n_frontz: 5\n", "sampler.n_frontz"),
        # keys of the former nested layout and of copies now derived
        ("field:\n  feature_dim: 4\n", "field"),
        ("train:\n  iterations: 5\n", "train"),
        ("pool:\n  voxel_size: 0.45\n", "pool.voxel_size"),
        ("uncertainty:\n  grid_size: 0.45\n", "uncertainty.grid_size"),
        ("adam:\n  step: 500\n", "adam.step"),
    ]
    for text, key in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"unknown config key {re.escape(key)}$"):
            load_config(path)


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("sede: 3\n")
    with pytest.raises(ValueError, match="sede"):
        load_config(path)


def test_type_errors_are_loud():
    with pytest.raises(ValueError, match="expected an integer"):
        build_dataclass(RunConfig, {"seed": 1.5})
    with pytest.raises(ValueError, match="expected a number"):
        build_dataclass(RunConfig, {"pool": {"capacity": 4, "alpha": "x"}})
    with pytest.raises(ValueError, match="expected true/false"):
        build_dataclass(RunConfig, {"active_sampling": 1})
    with pytest.raises(ValueError, match="expected a mapping"):
        build_dataclass(RunConfig, {"pool": [1, 2]})


def test_bool_not_accepted_as_int():
    with pytest.raises(ValueError):
        build_dataclass(RunConfig, {"seed": True})


def test_int_accepted_as_float():
    cfg = build_dataclass(RunConfig, {"pool": {"prune_radius": 10}})
    assert cfg.pool.prune_radius == 10.0
    assert isinstance(cfg.pool.prune_radius, float)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert config_to_dict(cfg) == config_to_dict(RunConfig())


def test_train_config_dict_roundtrip():
    tc = TrainConfig(batch_size=512, n_uncertain=128, voxel_sizes=(0.2, 0.6))
    back = build_dataclass(TrainConfig, config_to_dict(tc))
    assert back == tc
    assert back.batch_size == 512


def test_validation_happens_at_parse_time():
    for data, match in (
        ({"adam": {"lr": -0.5}}, "^config section adam: lr must be positive$"),
        ({"sampler": {"n_front": -1}}, "^config section sampler: sample counts"),
        ({"sampler": {"trunc_dist": 0}}, "^config section sampler: trunc_dist must be positive$"),
        ({"pool": {"prune_radius": 0}}, "^config section pool: prune_radius must be positive$"),
        ({"pool": {"alpha": -1}}, "^config section pool: alpha must be positive$"),
        ({"voxel_sizes": []}, "^voxel_sizes must be"),
    ):
        with pytest.raises(ValueError, match=match):
            build_dataclass(RunConfig, data)


def test_readme_quick_start_config_parses(tmp_path):
    m = re.search(r"cat > run\.yaml <<'EOF'\n(.*?)\nEOF\n", README.read_text(), re.S)
    assert m, "README has no run.yaml heredoc"
    path = tmp_path / "run.yaml"
    path.write_text(m.group(1))
    cfg = load_config(path)
    assert cfg.batch_size == 4096
    assert cfg.sim.scene
