"""The three workloads: inputs made from a seed, one timed pass, checks.

The seed drives only the generated scans (the LiDAR range noise); the
mapper gets the same TrainConfig every time and sees nothing but the
posed scans, so two seeds differ the way two recordings of one scene do.

desk-orbit    training-bound. The acceptance desk scene, mapped frame
              by frame over a prefix of its 50-pose orbit; the pool only
              grows (the 50 m window never evicts), so optimize + fisher
              dominate. Decoder, interpolation, scatter, Adam and the
              Fisher hash insert show here.
street-drive  ingest and streaming. A 64x512 spinning LiDAR drives down
              a corridor with alternating pillars. About 8x the desk's
              returns per frame, a 5 m window that plateaus the pool by
              the middle of the run, steady window and capacity
              evictions and new grid vertices every frame: sampler,
              allocate and pool carry a larger share.
mesh-query    the read path (`tsdfmap mesh` + `tsdfmap eval`). Set-up
              maps a short desk sequence and saves a checkpoint; each
              pass loads it, meshes it and scores it. It bypasses pool,
              uncertainty, backward, Adam and hash insert other than the
              rebuild on load, so a mapping-only change predicts no
              change in its read-path metrics.

A mapping pass ends the way `tsdfmap map` + `mesh` + `eval` do: the map
is saved to a checkpoint, loaded back, meshed at 0.10 m and scored. The
checkpoint lives in memory (io.BytesIO), so disk speed is not measured.
"""

import hashlib
import io
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

import stats
from gauge import Gauge
from tsdfmap import checkpoint, mesher, metrics
from tsdfmap.metrics import EvalConfig
from tsdfmap.pool import PoolConfig
from tsdfmap.sim import (Box, LidarModel, Scene, Sphere, ground_truth_mesh, orbit_poses,
                         room, simulate_scan)
from tsdfmap.trainer import Mapper, TrainConfig

MESH_SPACING = 0.10
GT_SPACING = 0.10  # planes are exact at any spacing; the sphere's chord error is < 1 mm
EVAL = EvalConfig(n_points=200_000, threshold=0.10, seed=0)
READ_REPEATS = 5
TRAIN_SEED = 7  # the acceptance desk seed; fixed, so --seed changes only the inputs

DESK_FRAMES = 10  # prefix of the 50-pose orbit: one pass fits the run time
DESK_ORBIT = (50, 4.5, 3.0)  # poses, radius m, height m
DESK_GT_BOUNDS = ((-6.2, -6.2, -0.2), (6.2, 6.2, 6.2))
QUERY_FRAMES = 6  # mesh-query's map: fewer frames leave no surface to mesh

STREET_FRAMES = 8
STREET_ADVANCE = 1.5  # m per frame
STREET_START = 3.0  # m from the closed end of the corridor
STREET_WINDOW = 5.0  # PoolConfig.prune_radius: the pool plateaus by frame 4 of 8
STREET_SIZE = (40.0, 4.0, 3.0)  # length, width, height (m)
STREET_PILLARS = (3.0, 0.6)  # spacing along the corridor, side (m)
STREET_SENSOR_Z = 1.35
STREET_SEEN = 0.2  # m: a ground-truth point counts as seen within this of a return


def _train_config(**pool):
    return TrainConfig(iterations=15, batch_size=4096, n_uncertain=1000, seed=TRAIN_SEED,
                       pool=PoolConfig(**pool))


def desk_scene():
    return Scene(room((-6.0, -6.0, 0.0), (6.0, 6.0, 6.0)) + [Sphere((0.0, 0.0, 3.0), 2.0)])


def desk_scans(seed, n_frames):
    lidar = LidarModel(azimuth_count=180, elevation_count=24, elevation_min_deg=-45.0,
                       elevation_max_deg=45.0, beta=0.002, seed=seed)
    scene = desk_scene()
    poses = orbit_poses(*DESK_ORBIT)[:n_frames]
    return [simulate_scan(p, lidar, scene, frame_id=i)[0] for i, p in enumerate(poses)]


def street_scene():
    length, width, height = STREET_SIZE
    every, side = STREET_PILLARS
    prims = room((0.0, -width / 2, 0.0), (length, width / 2, height))
    for i, x in enumerate(np.arange(every, length - 1.0, every)):
        y = -width / 2 if i % 2 == 0 else width / 2 - side
        prims.append(Box((x, y, 0.0), (x + side, y + side, height)))
    return Scene(prims)


def street_poses():
    poses = []
    for k in range(STREET_FRAMES):
        pose = np.zeros((3, 4))
        pose[:, :3] = np.eye(3)
        pose[:, 3] = (STREET_START + STREET_ADVANCE * k, 0.0, STREET_SENSOR_Z)
        poses.append(pose)
    return poses


# ------------------------------------------------------------ results


@dataclass
class Sequence:
    """Timings and checks of one frame-by-frame mapping run."""

    frame_s: list = field(default_factory=list)  # scaled to the nominal host speed
    frame_wall_s: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    stage_ms: dict = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0

    def loss_sha256(self):
        return hashlib.sha256(np.asarray(self.losses, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class Inputs:
    scans: list
    gt: object  # TriMesh, or an (n, 3) ground-truth cloud
    cfg: TrainConfig
    ckpt: bytes = None  # mesh-query: the checkpoint its passes read
    seq: Sequence = None  # mesh-query: the frames mapped to build it


@dataclass
class PassResult:
    wall_s: float = 0.0
    seq: Sequence = None
    # "ckpt_load_s", "mesh_s", "eval_s" -> [(wall seconds, scaled seconds)]
    timings: dict = field(default_factory=lambda: defaultdict(list))
    quality: object = None  # EvalResult
    mesh_sha256: str = None
    # the map a pass ends with, measured before the pass lets it go
    map_bytes: int = 0
    pool_rows: int = 0
    grid_vertices: int = 0
    load_factor: float = 0.0
    attempted: int = 0
    failed: int = 0

    def scaled(self, name):
        return stats.median(s for _, s in self.timings[name])

    def wall(self, name):
        return stats.median(w for w, _ in self.timings[name])


@dataclass
class Bench:
    """What the measurements of one run share: the host gauge and the
    checks that failed."""

    gauge: Gauge = field(default_factory=Gauge)
    problems: list = field(default_factory=list)

    def complain(self, message):
        self.problems.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    def time(self, timings, name, fn, *args, **kwargs):
        """Run fn, append its (wall, scaled) seconds to timings[name]."""
        result, wall, scaled = self.gauge.time(fn, *args, **kwargs)
        timings[name].append((wall, scaled))
        return result


def map_sequence(cfg, scans, bench):
    """Fold scans into a fresh Mapper one frame at a time.

    A frame that raises is counted as failed and mapping goes on. After
    every frame the losses must be finite and no pool bucket may hold
    more than the pool's capacity.
    """
    mapper = Mapper(cfg)
    seq = Sequence()
    for scan in scans:
        seq.attempted += 1
        try:
            report, wall, scaled = bench.gauge.time(mapper.process_frame, scan)
        except Exception:  # boundary: a failed frame is counted, not fatal
            seq.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        seq.frame_s.append(scaled)
        seq.frame_wall_s.append(wall)
        seq.losses.extend(report.losses)
        for stage, ms in report.stage_ms.items():
            seq.stage_ms[stage] += ms
        if not np.all(np.isfinite(report.losses)):
            bench.complain(f"frame {scan.frame_id}: non-finite loss")
        _, sizes = mapper.pool.bucket_sizes()
        if sizes.size and sizes.max() > mapper.pool.capacity:
            bench.complain(f"frame {scan.frame_id}: a bucket holds {sizes.max()} "
                           f"> capacity {mapper.pool.capacity}")
    return mapper, seq


def save_bytes(mapper):
    buf = io.BytesIO()
    checkpoint.save_checkpoint(buf, mapper)
    return buf.getvalue()


def read_path(ckpt, gt, result, bench):
    """load_checkpoint, extract_map_mesh, evaluate: what `tsdfmap mesh` +
    `tsdfmap eval` do. Fills the timings, quality and mesh digest.

    Loading and scoring are short next to meshing, so each runs
    READ_REPEATS times and the median is kept; the results are
    deterministic, so every repeat returns the same map and score.
    """
    result.attempted += 1
    timed = result.timings
    try:
        for _ in range(READ_REPEATS):
            loaded = bench.time(timed, "ckpt_load_s", checkpoint.load_checkpoint,
                                io.BytesIO(ckpt))
        mesh = bench.time(timed, "mesh_s", mesher.extract_map_mesh, loaded.field,
                          spacing=MESH_SPACING)
        for _ in range(READ_REPEATS):
            quality = bench.time(timed, "eval_s", metrics.evaluate, mesh, gt, EVAL)
    except Exception:  # boundary: a failed read pass is counted, not fatal
        result.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    result.quality = quality
    if mesh.n_faces == 0:
        bench.complain("empty mesh")
    digest = hashlib.sha256(mesh.vertices.tobytes())
    digest.update(mesh.faces.tobytes())
    result.mesh_sha256 = digest.hexdigest()
    return loaded


def _same_map(a, b):
    return (a.pool.n == b.pool.n and a.grid.n_vertices == b.grid.n_vertices
            and a.perturb.n_vertices == b.perturb.n_vertices
            and all(np.array_equal(a.decoder.params[k], b.decoder.params[k])
                    for k in a.decoder.params))


def _measure_map(result, mapper):
    result.map_bytes = stats.held_bytes(map_structures(mapper))
    result.pool_rows = mapper.pool.n
    result.grid_vertices = mapper.grid.n_vertices
    result.load_factor = hash_load_factor(mapper)


def mapping_pass(inputs, bench, tracer=None):
    """Map the scans, then read the map back; map_mb counts the mapped map."""
    result = PassResult()
    t0 = time.perf_counter()
    with tracer.record() if tracer else nullcontext():
        mapper, result.seq = map_sequence(inputs.cfg, inputs.scans, bench)
        loaded = read_path(save_bytes(mapper), inputs.gt, result, bench)
    result.wall_s = time.perf_counter() - t0
    if loaded is not None and not _same_map(mapper, loaded):
        bench.complain("checkpoint round trip changed the map")
    _measure_map(result, mapper)
    return result


def query_pass(inputs, bench, tracer=None):
    """Read the set-up's checkpoint; map_mb counts the loaded map."""
    result = PassResult()
    t0 = time.perf_counter()
    with tracer.record() if tracer else nullcontext():
        loaded = read_path(inputs.ckpt, inputs.gt, result, bench)
    result.wall_s = time.perf_counter() - t0
    if loaded is not None:
        _measure_map(result, loaded)
    return result


# ------------------------------------------------------------- set-up


def _desk_inputs(seed, n_frames):
    return Inputs(scans=desk_scans(seed, n_frames),
                  gt=ground_truth_mesh(desk_scene(), DESK_GT_BOUNDS, spacing=GT_SPACING),
                  cfg=_train_config())


def desk_setup(seed, bench, tracer=None):
    return _desk_inputs(seed, DESK_FRAMES)


def query_setup(seed, bench, tracer=None):
    """Desk scans and ground truth, then the map the passes read.

    With a tracer, the mapping and the checkpoint save are recorded; the
    simulation and ground-truth meshing never are.
    """
    inputs = _desk_inputs(seed, QUERY_FRAMES)
    with tracer.record() if tracer else nullcontext():
        mapper, inputs.seq = map_sequence(inputs.cfg, inputs.scans, bench)
        inputs.ckpt = save_bytes(mapper)
    return inputs


def street_setup(seed, bench, tracer=None):
    """Corridor scans plus a ground-truth cloud cropped to what was mapped.

    The windowed pool trains only within STREET_WINDOW of a pose, and
    pillars hide parts of the walls, so ground truth keeps the surface
    points that lie inside some pose's window and near some return.
    """
    length, width, height = STREET_SIZE
    lidar = LidarModel(azimuth_count=512, elevation_count=64, elevation_min_deg=-30.0,
                       elevation_max_deg=30.0, max_range=20.0, beta=0.002, seed=seed)
    scene = street_scene()
    poses = street_poses()
    scans = [simulate_scan(p, lidar, scene, frame_id=i)[0] for i, p in enumerate(poses)]
    far = min(length, poses[-1][0, 3] + STREET_WINDOW) + 0.2
    gt_mesh = ground_truth_mesh(scene, ((-0.2, -width / 2 - 0.2, -0.2),
                                        (far, width / 2 + 0.2, height + 0.2)),
                                spacing=GT_SPACING)
    rng = np.random.default_rng(np.random.SeedSequence([EVAL.seed, 0x5A]))
    cloud = metrics.sample_surface(gt_mesh, EVAL.n_points, rng)
    origins = np.array([p[:, 3] for p in poses])
    cloud = cloud[cKDTree(origins).query(cloud)[0] < STREET_WINDOW]
    returns = cKDTree(np.concatenate([s.points for s in scans]))
    cloud = cloud[returns.query(cloud)[0] < STREET_SEEN]
    return Inputs(scans=scans, gt=cloud, cfg=_train_config(prune_radius=STREET_WINDOW))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_pass: Callable
    setups: int  # set-ups per run; setup_s is their median
    max_chamfer_cm: float  # quality the benchmark requires of every pass
    min_f1_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-orbit", desk_setup, mapping_pass, setups=5,
                 max_chamfer_cm=10.0, min_f1_pct=85.0),
        Workload("street-drive", street_setup, mapping_pass, setups=3,
                 max_chamfer_cm=6.0, min_f1_pct=90.0),
        Workload("mesh-query", query_setup, query_pass, setups=1,
                 max_chamfer_cm=20.0, min_f1_pct=70.0),
    )
}


def map_structures(mapper):
    """Objects whose arrays make up map_mb: the pool columns, each grid
    level's buffers and vertex hash, the Fisher buffer and its hash."""
    levels = mapper.grid.levels
    return ([mapper.pool] + levels + [lvl.vertices for lvl in levels]
            + [mapper.perturb, mapper.perturb.vertices])


def hash_load_factor(mapper):
    """Stored keys over table slots, over every voxel hash of the map."""
    tables = [lvl.vertices for lvl in mapper.grid.levels] + [mapper.perturb.vertices]
    slots = [vars(t).get("_table_keys") for t in tables]
    if any(not isinstance(s, np.ndarray) for s in slots):
        return 0.0
    return sum(len(t) for t in tables) / sum(s.shape[0] for s in slots)
