import json
import os
import platform

import numpy as np
import pytest

from tsdfmap.cli import main
from tsdfmap.plyio import load_ply, write_mesh_ply, write_points_ply

RUN_YAML = """\
seed: 3
voxel_sizes: [0.3, 0.45]
iterations: 10
batch_size: 1024
n_uncertain: 256
sampler:
  normal_k: 12
mesh:
  spacing: 0.15
sim:
  n_frames: 6
  orbit_radius: 2.2
  orbit_height: 1.4
  azimuth_count: 120
  elevation_count: 16
  elevation_min_deg: -40.0
  elevation_max_deg: 40.0
  beta: 0.001
  scene:
    - type: room
      min: [-3.0, -3.0, 0.0]
      max: [3.0, 3.0, 3.0]
    - type: sphere
      center: [0.0, 0.0, 1.2]
      radius: 0.8
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg = root / "run.yaml"
    cfg.write_text(RUN_YAML)
    return root


@pytest.fixture(scope="module")
def sim_dir(workdir):
    out = workdir / "scans"
    rc = main(["sim", "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    return out


def test_sim_outputs(sim_dir):
    frames = sorted(sim_dir.glob("frame_*.ply"))
    assert len(frames) == 6
    assert (sim_dir / "poses.txt").exists()
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["seed"] == 3
    assert manifest["config"]["sim"]["n_frames"] == 6
    pts = load_ply(frames[0])["points"]
    assert pts.shape[0] > 200


@pytest.fixture(scope="module")
def map_dir(workdir, sim_dir):
    out = workdir / "maprun"
    rc = main([
        "map", "--scans", str(sim_dir), "--poses", str(sim_dir / "poses.txt"),
        "--config", str(workdir / "run.yaml"), "--out", str(out),
        "--mesh-every", "3",
    ])
    assert rc == 0
    return out


def test_map_outputs(map_dir):
    assert (map_dir / "checkpoint.npz").exists()
    reports = [json.loads(l) for l in
               (map_dir / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == 6
    assert all(len(r["losses"]) == 10 for r in reports)
    assert reports[-1]["pool_size"] > 0
    assert (map_dir / "mesh_00003.ply").exists()
    assert (map_dir / "mesh_00006.ply").exists()
    manifest = json.loads((map_dir / "manifest.json").read_text())
    assert manifest["n_scans"] == 6
    assert manifest["config"]["iterations"] == 10
    runtime = manifest["runtime"]
    assert runtime["numpy"] == np.__version__
    assert runtime["python"] == platform.python_version()
    assert set(runtime) == {"python", "numpy", "scipy", "cpu_count"}
    assert runtime["cpu_count"] == os.cpu_count()
    assert all(r["fisher_rows"] > 0 for r in reports)


def test_mesh_command(workdir, map_dir):
    out = workdir / "final.ply"
    rc = main(["mesh", str(map_dir / "checkpoint.npz"), "--out", str(out),
               "--spacing", "0.15"])
    assert rc == 0
    data = load_ply(out)
    assert data["points"].shape[0] > 500
    assert data["faces"].shape[0] > 500


def test_mesh_ascii_flag(workdir, map_dir):
    out = workdir / "final_ascii.ply"
    rc = main(["mesh", str(map_dir / "checkpoint.npz"), "--out", str(out),
               "--spacing", "0.3", "--ascii"])
    assert rc == 0
    assert out.read_bytes().startswith(b"ply\nformat ascii")


@pytest.mark.parametrize("spacing", ["0", "-0.1", "nan"])
def test_mesh_bad_spacing_fails_naming_it(workdir, map_dir, capsys, spacing):
    rc = main(["mesh", str(map_dir / "checkpoint.npz"), "--out",
               str(workdir / "bad_spacing.ply"), "--spacing", spacing])
    assert rc == 1
    assert "mesh spacing must be positive and finite" in capsys.readouterr().err
    assert not (workdir / "bad_spacing.ply").exists()


def test_eval_self_is_perfect(workdir, map_dir, capsys):
    mesh = workdir / "final.ply"
    rc = main(["eval", str(mesh), str(mesh), "--out",
               str(workdir / "evalout")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f1_pct"] == 100.0
    assert out["chamfer_l1_cm"] == 0.0
    saved = json.loads((workdir / "evalout" / "eval.json").read_text())
    assert saved == out
    csv = (workdir / "evalout" / "eval.csv").read_text().splitlines()
    assert csv[0].startswith("accuracy_cm,")


def test_eval_threshold_flag(workdir, map_dir, capsys):
    mesh = workdir / "final.ply"
    rc = main(["eval", str(mesh), str(mesh), "--threshold", "0.05"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["f1_pct"] == 100.0


def test_eval_seed_flag_sets_eval_seed(workdir, map_dir, capsys):
    cfg = workdir / "eval.yaml"
    cfg.write_text("eval:\n  n_points: 2000\n  seed: 2\n")
    meshes = [str(map_dir / "mesh_00003.ply"), str(map_dir / "mesh_00006.ply")]

    def accuracy(*flags):
        assert main(["eval", *meshes, "--config", str(cfg), *flags]) == 0
        return json.loads(capsys.readouterr().out)["accuracy_cm"]

    from_file = accuracy()
    assert accuracy("--seed", "2") == from_file
    assert accuracy("--seed", "1") != from_file


def test_eval_compares_point_cloud_plys(workdir, capsys):
    """A PLY without faces is evaluated as its own points, not sampled as a surface."""
    axis = 0.5 * np.arange(4)
    gt = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    write_points_ply(workdir / "gt_cloud.ply", gt)
    write_points_ply(workdir / "recon_cloud.ply", gt + [0.03, 0.0, 0.0])
    clouds = [str(workdir / "recon_cloud.ply"), str(workdir / "gt_cloud.ply")]
    assert main(["eval", *clouds]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy_cm"] == pytest.approx(3.0, rel=1e-5)
    assert out["completeness_cm"] == pytest.approx(3.0, rel=1e-5)
    assert out["f1_pct"] == 100.0
    assert main(["eval", *clouds, "--threshold", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["f1_pct"] == 0.0


def test_map_survives_a_far_return(workdir, sim_dir):
    scans = workdir / "far_scans"
    scans.mkdir()
    pts = load_ply(sorted(sim_dir.glob("frame_*.ply"))[0])["points"]
    pts = np.vstack([pts, [[1e6, 0.0, 0.0]]])
    xyzi = np.column_stack([pts, np.zeros(len(pts))]).astype("<f4")
    xyzi.tofile(scans / "frame_00000.bin")
    poses = (sim_dir / "poses.txt").read_text().splitlines()[:1]
    (scans / "poses.txt").write_text(poses[0] + "\n")
    out = workdir / "far_run"
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "reports.jsonl").read_text())
    assert report["out_of_range_points"] == 1
    assert report["pool_size"] > 0


def test_map_reports_nonfinite_and_far_returns(workdir, sim_dir, capsys):
    scans = workdir / "dirty_scans"
    scans.mkdir()
    pts = load_ply(sorted(sim_dir.glob("frame_*.ply"))[0])["points"]
    pts = np.vstack([pts, [[np.nan, 0.0, 0.0], [1e6, 0.0, 0.0]]])
    xyzi = np.column_stack([pts, np.zeros(len(pts))]).astype("<f4")
    xyzi.tofile(scans / "frame_00000.bin")
    poses = (sim_dir / "poses.txt").read_text().splitlines()[:1]
    (scans / "poses.txt").write_text(poses[0] + "\n")
    out = workdir / "dirty_run"
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "reports.jsonl").read_text())
    assert report["nonfinite_points"] == 1
    assert report["out_of_range_points"] == 1
    assert "dropped 1 non-finite and 1 out-of-range points" in capsys.readouterr().err


def test_map_skips_a_frame_that_leaves_the_pool_empty(workdir, sim_dir):
    """Returns at the sensor origin (a missing-return marker) give no samples."""
    scans = workdir / "zero_scans"
    scans.mkdir()
    np.zeros((64, 4), dtype="<f4").tofile(scans / "frame_00000.bin")
    pts = load_ply(sorted(sim_dir.glob("frame_*.ply"))[1])["points"]
    np.column_stack([pts, np.zeros(len(pts))]).astype("<f4").tofile(scans / "frame_00001.bin")
    poses = (sim_dir / "poses.txt").read_text().splitlines()[:2]
    (scans / "poses.txt").write_text("\n".join(poses) + "\n")
    out = workdir / "zero_run"
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == 2
    assert reports[0]["skipped"] and reports[0]["pool_size"] == 0
    assert not reports[1]["skipped"] and reports[1]["pool_size"] > 0
    assert reports[1]["losses"] and np.isfinite(reports[1]["losses"]).all()


def test_map_pose_count_mismatch(workdir, sim_dir, capsys):
    short = workdir / "short_poses.txt"
    lines = (sim_dir / "poses.txt").read_text().splitlines()[:-1]
    short.write_text("\n".join(lines) + "\n")
    rc = main(["map", "--scans", str(sim_dir), "--poses", str(short),
               "--out", str(workdir / "bad")])
    assert rc == 1
    assert "6 scans vs 5 poses" in capsys.readouterr().err


def test_map_reads_upper_case_scan_suffixes(workdir, sim_dir):
    scans = workdir / "upper_scans"
    scans.mkdir()
    frames = sorted(sim_dir.glob("frame_*.ply"))
    (scans / "F0.PLY").write_bytes(frames[0].read_bytes())
    pts = load_ply(frames[1])["points"]
    np.column_stack([pts, np.zeros(len(pts))]).astype("<f4").tofile(scans / "F1.BIN")
    poses = (sim_dir / "poses.txt").read_text().splitlines()[:2]
    (scans / "poses.txt").write_text("\n".join(poses) + "\n")
    out = workdir / "upper_run"
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == 2 and all(r["pool_size"] > 0 for r in reports)


def test_map_rejects_a_non_finite_pose(workdir, sim_dir, capsys):
    lines = (sim_dir / "poses.txt").read_text().splitlines()
    lines[3] = " ".join(["nan"] + lines[3].split()[1:])
    bad = workdir / "nan_poses.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["map", "--scans", str(sim_dir), "--poses", str(bad),
               "--out", str(workdir / "nan_run")])
    assert rc == 1
    assert "line 4: non-finite value" in capsys.readouterr().err
    assert not (workdir / "nan_run").exists()


def test_map_rejects_a_negative_mesh_every(workdir, sim_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "--scans", str(sim_dir), "--poses", str(sim_dir / "poses.txt"),
              "--out", str(workdir / "neg_run"), "--mesh-every", "-3"])
    assert exc.value.code == 2
    assert "--mesh-every: must be >= 0, got -3" in capsys.readouterr().err
    assert not (workdir / "neg_run").exists()


def test_unknown_config_key_fails(workdir, capsys):
    bad = workdir / "bad.yaml"
    bad.write_text("sedd: 3\n")
    rc = main(["sim", "--config", str(bad), "--out", str(workdir / "x")])
    assert rc == 1
    assert "sedd" in capsys.readouterr().err


def test_missing_scan_dir_fails(workdir, capsys):
    rc = main(["map", "--scans", str(workdir / "nope"), "--poses",
               str(workdir / "nope.txt"), "--out", str(workdir / "y")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_empty_scene_fails(workdir, capsys):
    cfg = workdir / "noscene.yaml"
    cfg.write_text("sim:\n  n_frames: 1\n")
    rc = main(["sim", "--config", str(cfg), "--out", str(workdir / "z")])
    assert rc == 1
    assert "scene" in capsys.readouterr().err


def test_seed_flag_overrides_config(workdir, sim_dir):
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    out = workdir / "scans_seed9"
    rc = main(["sim", "--config", str(workdir / "run.yaml"), "--out", str(out),
               "--seed", "9"])
    assert rc == 0
    m2 = json.loads((out / "manifest.json").read_text())
    assert m2["seed"] == 9
    a = load_ply(sorted(sim_dir.glob("frame_*.ply"))[0])["points"]
    b = load_ply(sorted(out.glob("frame_*.ply"))[0])["points"]
    assert not np.array_equal(a, b)  # noise stream differs with the seed


def _truncated_header_scans(workdir, sim_dir, name, n_bad):
    """Two sim frames in a new directory, the first `n_bad` cut inside the header."""
    scans = workdir / name
    scans.mkdir()
    for i, frame in enumerate(sorted(sim_dir.glob("frame_*.ply"))[:2]):
        raw = frame.read_bytes()
        (scans / frame.name).write_bytes(raw[:30] if i < n_bad else raw)
    poses = (sim_dir / "poses.txt").read_text().splitlines()[:2]
    (scans / "poses.txt").write_text("\n".join(poses) + "\n")
    return scans


def test_map_skips_an_unreadable_scan(workdir, sim_dir, capsys):
    scans = _truncated_header_scans(workdir, sim_dir, "cut_scans", 1)
    out = workdir / "cut_run"
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(out)])
    assert rc == 0
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert [r["frame_id"] for r in reports] == [0, 1]
    assert reports[0]["skipped"] and reports[0]["pool_size"] == 0
    assert not reports[1]["skipped"] and reports[1]["pool_size"] > 0
    assert [r["unreadable"] for r in reports] == [True, False]
    captured = capsys.readouterr()
    assert captured.err == ("frame_00000.ply: unreadable, mapped as an empty frame: "
                            f"{scans / 'frame_00000.ply'}: header line "
                            "'format binary_little_endia' lacks tokens\n")
    assert "(1 unreadable)" in captured.out


def test_map_fails_when_no_scan_is_readable(workdir, sim_dir, capsys):
    scans = _truncated_header_scans(workdir, sim_dir, "dead_scans", 2)
    rc = main(["map", "--scans", str(scans), "--poses", str(scans / "poses.txt"),
               "--config", str(workdir / "run.yaml"), "--out", str(workdir / "dead_run")])
    assert rc == 1
    assert "error: none of the 2 scans" in capsys.readouterr().err


def test_eval_names_a_mesh_with_an_out_of_range_index(workdir, capsys):
    bad = workdir / "bad_index.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                   "property float y\nproperty float z\nelement face 1\n"
                   "property list uchar int vertex_indices\nend_header\n"
                   "0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
    assert main(["eval", str(bad), str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: face index outside [0, 3)")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_names_a_non_finite_vertex_or_point(workdir, capsys, bad):
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=np.float64)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    good, broken, cloud = (workdir / f"{name}_{bad}.ply" for name in ("good", "broken", "cloud"))
    write_mesh_ply(good, square, faces)
    square[3, 2] = bad
    write_mesh_ply(broken, square, faces)
    write_points_ply(cloud, square)
    assert main(["eval", str(broken), str(good)]) == 1
    assert capsys.readouterr().err.startswith("error: recon: mesh vertex 3 is not finite")
    assert main(["eval", str(good), str(cloud)]) == 1
    assert capsys.readouterr().err.startswith("error: gt: point 3 is not finite")


@pytest.mark.parametrize("command", ["map", "eval"])
def test_negative_seed_flag_fails_naming_it(workdir, sim_dir, capsys, command):
    if command == "map":
        argv = ["map", "--scans", str(sim_dir), "--poses", str(sim_dir / "poses.txt"),
                "--out", str(workdir / "neg_seed_run"), "--seed", "-1"]
    else:
        cloud = workdir / "seed_cloud.ply"
        write_points_ply(cloud, np.eye(3))
        argv = ["eval", str(cloud), str(cloud), "--seed", "-3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (workdir / "neg_seed_run").exists()
