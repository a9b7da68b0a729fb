import re
from pathlib import Path

import pytest
import yaml

from tsdfmap.config import (
    RunConfig,
    SimConfig,
    build_dataclass,
    config_to_dict,
    dump_config,
    load_config,
)
from tsdfmap.sim import LidarModel, Plane, Sphere
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


def test_bool_not_accepted_in_a_number_list():
    with pytest.raises(ValueError, match=r"^config key voxel_sizes\[0\]: true/false is not"):
        build_dataclass(RunConfig, {"voxel_sizes": [True, 0.45]})


def test_bool_not_accepted_in_a_scene_coordinate():
    entry = {"type": "sphere", "center": [0, 0, 0], "radius": 1}
    with pytest.raises(ValueError, match=r"^config key sim\.scene\[1\]\.center\[0\]: true/false"):
        build_dataclass(RunConfig, {"sim": {"scene": [entry, {**entry, "center": [True, 0, 3]}]}})


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


def leaves(tree):
    if isinstance(tree, dict):
        return [leaf for v in tree.values() for leaf in leaves(v)]
    return [tree]


def test_validation_happens_at_parse_time():
    for data, match in (
        ({"adam": {"lr": -0.5}}, "^config section adam: lr must be positive$"),
        ({"sampler": {"n_front": -1}}, "^config section sampler: sample counts"),
        ({"sampler": {"trunc_dist": 0}}, "^config section sampler: trunc_dist must be positive$"),
        ({"pool": {"prune_radius": 0}}, "^config section pool: prune_radius must be positive$"),
        ({"pool": {"alpha": -1}}, "^config section pool: alpha must be positive$"),
        ({"voxel_sizes": []}, "^voxel_sizes must be"),
        ({"voxel_sizes": [0.3, float("inf")]}, "^voxel_sizes must be .* positive finite"),
        ({"batch_size": 0, "n_uncertain": 0}, "^batch_size must be >= 1$"),
        ({"feature_dim": 0}, "^feature_dim and hidden_units must be >= 1$"),
        ({"hidden_units": 0}, "^feature_dim and hidden_units must be >= 1$"),
        ({"sampler": {"normal_k": 0}}, "^config section sampler: normal_k must be >= 1$"),
        ({"sampler": {"cos_eps": 0}}, r"^config section sampler: cos_eps must lie in \(0, 1\]$"),
        ({"sampler": {"cos_eps": 1.5}}, r"^config section sampler: cos_eps must lie in \(0, 1\]$"),
        ({"sampler": {"downsample_voxel": -0.1}},
         "^config section sampler: downsample_voxel must be finite and nonnegative"),
        ({"uncertainty": {"gamma": float("inf")}},
         "^config section uncertainty: gamma must be positive and finite$"),
        ({"sim": {"n_frames": 0}}, "^config section sim: n_frames must be >= 1$"),
        ({"sim": {"max_range": 0}}, "^config section sim: max_range must be positive$"),
        ({"sim": {"max_range": -5}}, "^config section sim: max_range must be positive$"),
        ({"sim": {"azimuth_count": 0}}, "^config section sim: ray counts must be >= 1$"),
        ({"sim": {"elevation_count": 0}}, "^config section sim: ray counts must be >= 1$"),
        ({"sim": {"elevation_min_deg": 10, "elevation_max_deg": -10}},
         "^config section sim: elevation_min_deg must be <= elevation_max_deg$"),
        ({"sim": {"beta": -0.1}}, "^config section sim: beta must be nonnegative$"),
        ({"sim": {"orbit_radius": float("nan")}},
         "^config section sim: orbit_radius and orbit_height must be finite$"),
        ({"sim": {"orbit_height": float("inf")}},
         "^config section sim: orbit_radius and orbit_height must be finite$"),
        ({"sim": {"beta": float("nan")}}, "^config section sim: beta must be finite$"),
        ({"sim": {"elevation_min_deg": float("nan")}},
         "^config section sim: elevation_min_deg and elevation_max_deg must be finite$"),
        ({"sim": {"max_range": float("inf")}}, "^config section sim: max_range must be finite$"),
        ({"seed": -1}, "^seed must be >= 0$"),
        ({"eval": {"seed": -3}}, "^config section eval: seed must be >= 0$"),
        ({"adam": {"lr": float("inf")}}, "^config section adam: lr must be finite$"),
        ({"sampler": {"trunc_dist": float("inf")}},
         "^config section sampler: trunc_dist must be finite$"),
        ({"sampler": {"min_range": float("inf")}},
         "^config section sampler: min_range must be finite$"),
        ({"adam": {"eps": float("inf")}}, "^config section adam: eps must be finite$"),
        ({"eval": {"threshold": float("inf")}}, "^config section eval: threshold must be finite$"),
    ):
        with pytest.raises(ValueError, match=match):
            build_dataclass(RunConfig, data)
    # zero downsampling is off: it stays allowed
    cfg = build_dataclass(RunConfig, {"sampler": {"downsample_voxel": 0}})
    assert cfg.sampler.downsample_voxel == 0.0
    assert len(leaves(config_to_dict(RunConfig()))) == 40


@pytest.mark.parametrize("spacing", ["0", "-0.1", ".nan", ".inf"])
def test_bad_mesh_spacing_rejected_with_path(tmp_path, spacing):
    path = tmp_path / "run.yaml"
    path.write_text(f"mesh:\n  spacing: {spacing}\n")
    with pytest.raises(ValueError,
                       match="^config section mesh: spacing must be positive and finite$"):
        load_config(path)


def test_readme_quick_start_config_parses(tmp_path):
    m = re.search(r"cat > run\.yaml <<'EOF'\n(.*?)\nEOF\n", README.read_text(), re.S)
    assert m, "README has no run.yaml heredoc"
    path = tmp_path / "run.yaml"
    path.write_text(m.group(1))
    cfg = load_config(path)
    assert cfg.batch_size == 4096
    assert cfg.sim.scene


def test_lidar_model_defaults_are_the_sim_configs():
    assert LidarModel() == SimConfig().lidar()
    assert SimConfig(beta=0.01).lidar(seed=4) == LidarModel(beta=0.01, seed=4)


def test_sim_scene_entries_build_the_scene():
    cfg = build_dataclass(RunConfig, {"sim": {"scene": [
        {"type": "sphere", "center": [0, 0, 1], "radius": 2},
        {"type": "room", "min": [-3, -3, 0], "max": [3, 3, 4]},
        {"type": "box", "min": [1, 1, 0], "max": [2, 2, 1]},
        {"type": "plane", "normal": [0, 0, 2], "offset": 1},
    ]}})
    scene = cfg.sim.build_scene()
    assert len(scene.primitives) == 1 + 6 + 1 + 1
    assert scene.primitives[0] == Sphere((0, 0, 1), 2.0)
    assert scene.primitives[-1] == Plane((0, 0, 2), 1.0)
    # inside the sphere; then nearest the plane z = 0.5 (box, walls and sphere are farther)
    assert scene.sdf([[0.0, 0.0, 1.0], [2.5, 2.5, 0.4]]) == pytest.approx([-2.0, -0.1])
    # entries serialize as written, so a dumped config reproduces the scene
    assert config_to_dict(cfg)["sim"]["scene"][1] == {
        "type": "room", "min": [-3, -3, 0], "max": [3, 3, 4]}


@pytest.mark.parametrize("entry, match", [
    ({"type": "sphere", "center": [0, 0, 0], "raduis": 1},
     r"^unknown config key sim\.scene\[1\]\.raduis$"),
    ({"type": "sphere", "center": [0, 0, 0], "radius": -1},
     r"^config section sim\.scene\[1\]: radius must be positive and finite$"),
    ({"type": "box", "min": [0, 0, 0], "max": [1, -1, 1]},
     r"^config section sim\.scene\[1\]: min must be below max on every axis$"),
    ({"type": "room", "min": [0, 0, 3], "max": [4, 4, 3]},
     r"^config section sim\.scene\[1\]: min must be below max on every axis$"),
    ({"type": "sphere"}, r"^missing config key sim\.scene\[1\]\.center$"),
    ({"type": "sphere", "center": [0, 0, 0]}, r"^missing config key sim\.scene\[1\]\.radius$"),
    ("sphere", r"^config section sim\.scene\[1\]: expected a mapping$"),
    ({"type": "sphere", "center": 5, "radius": 1},
     r"^config key sim\.scene\[1\]\.center: expected a list$"),
    ({"type": "sphere", "center": [0, 0], "radius": 1},
     r"^config section sim\.scene\[1\]: center must be 3 finite numbers$"),
    ({"type": "sphere", "center": ["a", 0, 0], "radius": 1},
     r"^config section sim\.scene\[1\]: center must be 3 finite numbers$"),
    ({"type": "plane", "normal": [0, 0, 0], "offset": 1},
     r"^config section sim\.scene\[1\]: normal must be nonzero$"),
    ({"type": "torus"},
     r"^config key sim\.scene\[1\]\.type: 'torus' is not one of sphere, box, plane, room$"),
    ({"center": [0, 0, 0], "radius": 1}, r"^config key sim\.scene\[1\]\.type: None is not"),
    ({"type": ["sphere"]}, r"^config key sim\.scene\[1\]\.type: \['sphere'\] is not"),
])
def test_bad_scene_entries_fail_at_parse_time_naming_the_entry(entry, match):
    ok = {"type": "sphere", "center": [0, 0, 0], "radius": 1}
    with pytest.raises(ValueError, match=match):
        build_dataclass(RunConfig, {"sim": {"scene": [ok, entry]}})


@pytest.mark.parametrize("text", [b"seed: [1\n", b"sim:\n  n_frames: 1\n bad: 2\n", b"a: b: c\n",
                                  b"seed: 1\n\x00\n", b"seed: 1\n\xff\n"])
def test_malformed_yaml_names_the_file(tmp_path, text):
    path = tmp_path / "broken.yaml"
    path.write_bytes(text)
    with pytest.raises(ValueError) as err:
        load_config(path)
    message = str(err.value)
    assert message.startswith(f"config file {path}: malformed YAML: ")
    assert "\n" not in message
