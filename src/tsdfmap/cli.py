"""Command-line entry points: sim, map, mesh, eval.

Flag precedence: command-line flags override config-file values, which
override defaults. Every `map` run writes a manifest.json holding the
fully resolved config, seed, package version and runtime (library
versions, CPU count), so any run can be reproduced bit-for-bit
from its output directory alone.
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_to_dict, load_config
from .errors import MalformedFile, MappingError, PoseCountMismatch, UnsupportedFormat
from .mesher import extract_map_mesh, load_mesh, write_mesh
from .metrics import evaluate, write_eval_csv, write_eval_json
from .plyio import SCAN_SUFFIXES, load_scan, write_points_ply
from .poses import load_poses, save_poses
from .sim import orbit_poses, scene_from_dicts, simulate_scan
from .trainer import Mapper


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "threshold", None) is not None:
        cfg.eval = dataclasses.replace(cfg.eval, threshold=args.threshold)
    if getattr(args, "eval_seed", None) is not None:
        cfg.eval = dataclasses.replace(cfg.eval, seed=args.eval_seed)
    return cfg


def _scan_paths(scans_dir) -> list:
    root = Path(scans_dir)
    if not root.is_dir():
        raise MappingError(f"scan directory not found: {root}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in SCAN_SUFFIXES)
    if not paths:
        raise MappingError(f"no {'/'.join(SCAN_SUFFIXES)} scans in {root}")
    return paths


def _write_manifest(out_dir: Path, cfg: RunConfig, extra: dict):
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_map(args) -> int:
    cfg = _load_run_config(args)
    scan_paths = _scan_paths(args.scans)
    poses = load_poses(args.poses)
    if len(scan_paths) != len(poses):
        raise PoseCountMismatch(f"{len(scan_paths)} scans vs {len(poses)} poses")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, {"command": "map", "n_scans": len(scan_paths)})

    mapper = Mapper(cfg)
    unreadable = 0
    with open(out / "reports.jsonl", "w") as log:
        for i, (path, pose) in enumerate(zip(scan_paths, poses)):
            try:
                points, failed = load_scan(path), False
            except (MalformedFile, UnsupportedFormat) as exc:
                # the frame gate skips the empty cloud; later frame ids stay aligned
                print(f"{path.name}: unreadable, mapped as an empty frame: {exc}", file=sys.stderr)
                points, failed = np.zeros((0, 3)), True
            report = mapper.run_sequence([points], [pose])[0]
            report.unreadable = failed
            unreadable += failed
            if report.nonfinite_points or report.out_of_range_points:
                print(f"{path.name}: dropped {report.nonfinite_points} non-finite and "
                      f"{report.out_of_range_points} out-of-range points", file=sys.stderr)
            log.write(json.dumps(report.to_dict()) + "\n")
            log.flush()
            if args.mesh_every and (i + 1) % args.mesh_every == 0:
                save_checkpoint(out / "checkpoint.npz", mapper)
                try:
                    mesh = extract_map_mesh(mapper.field, spacing=cfg.mesh.spacing,
                                            pad=cfg.mesh.pad)
                    write_mesh(mesh, out / f"mesh_{i + 1:05d}.ply",
                               binary=not cfg.mesh.ascii)
                except MappingError as exc:
                    print(f"mesh at frame {i + 1} skipped: {exc}", file=sys.stderr)
    if unreadable == len(scan_paths):
        raise MappingError(f"none of the {unreadable} scans in {args.scans} could be read")
    save_checkpoint(out / "checkpoint.npz", mapper)
    print(f"mapped {len(scan_paths)} scans ({unreadable} unreadable) -> {out / 'checkpoint.npz'}")
    return 0


def cmd_mesh(args) -> int:
    cfg = _load_run_config(args)
    mapper = load_checkpoint(args.checkpoint)
    spacing = args.spacing if args.spacing is not None else cfg.mesh.spacing
    mesh = extract_map_mesh(mapper.field, spacing=spacing, pad=cfg.mesh.pad)
    binary = not (args.ascii or cfg.mesh.ascii)
    write_mesh(mesh, args.out, binary=binary)
    print(f"{mesh.n_vertices} vertices, {mesh.n_faces} faces -> {args.out}")
    return 0


def _load_eval_input(path):
    mesh = load_mesh(path)
    return mesh if mesh.n_faces else mesh.vertices


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    recon = _load_eval_input(args.recon)
    gt = _load_eval_input(args.gt)
    result = evaluate(recon, gt, cfg.eval)
    print(json.dumps(result.to_dict(), indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_eval_json(result, out / "eval.json")
        write_eval_csv(result, out / "eval.csv")
    return 0


def cmd_sim(args) -> int:
    cfg = _load_run_config(args)
    s = cfg.sim
    if not s.scene:
        raise MappingError("sim config has an empty scene (add sphere/box/plane/room entries)")
    scene = scene_from_dicts(s.scene)
    model = s.lidar(cfg.seed)
    poses = orbit_poses(s.n_frames, s.orbit_radius, s.orbit_height, s.orbit_center)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, {"command": "sim", "n_scans": int(s.n_frames)})
    for i, pose in enumerate(poses):
        scan, _ = simulate_scan(pose, model, scene, frame_id=i)
        sensor = (scan.points - pose[:, 3]) @ pose[:, :3]
        write_points_ply(out / f"frame_{i:05d}.ply", sensor)
    save_poses(out / "poses.txt", poses)
    print(f"wrote {len(poses)} frames to {out}")
    return 0


def _non_negative_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsdfmap",
        description="Incremental neural signed-distance mapping from posed LiDAR scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="fold a scan sequence into a map checkpoint")
    p.add_argument("--scans", required=True, help="directory of .ply/.bin scans")
    p.add_argument("--poses", required=True, help="pose file (12 floats per line)")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--mesh-every", type=_non_negative_int, default=0, metavar="K",
                   help="write a checkpoint and mesh every K frames (0: never)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("mesh", help="extract a triangle mesh from a checkpoint")
    p.add_argument("checkpoint", help="checkpoint .npz from `map`")
    p.add_argument("--out", required=True, help="output .ply path")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--spacing", type=float, help="marching-cubes node spacing (m)")
    p.add_argument("--ascii", action="store_true", help="write ascii PLY")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("eval", help="compare a reconstruction against ground truth")
    p.add_argument("recon", help="reconstructed mesh or point cloud (.ply)")
    p.add_argument("gt", help="ground-truth mesh or point cloud (.ply)")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--threshold", type=float, metavar="M",
                   help="precision/recall distance threshold in meters")
    p.add_argument("--seed", type=int, dest="eval_seed",
                   help="override eval.seed (surface point sampling)")
    p.add_argument("--out", help="directory for eval.json / eval.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sim", help="render a synthetic LiDAR sequence")
    p.add_argument("--config", required=True, help="YAML config with a sim.scene section")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override config seed")
    p.set_defaults(func=cmd_sim)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MappingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
