"""Per-frame training orchestration.

Frame pipeline, in order: estimate normals, generate samples, allocate
grid voxels at the sample positions, insert into the replay pool, prune
the pool window, enforce bucket capacity, partition buckets by
uncertainty, then `iterations` rounds of draw batch / predict / MSE /
backward / Adam, and finally accumulate Fisher information over the
frame's trained samples (deduplicated) with the post-update weights.

Everything is seeded per (global seed, frame, purpose), so runs are
bitwise reproducible.
"""

import time
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from .adam import AdamConfig, adam_step
from .decoder import SdfDecoder
from .errors import NonFiniteLoss, PoseCountMismatch
from .field import NeuralSdfField
from .grid import FeatureGrid
from .pool import PoolConfig, ReplayPool
from .sampler import Scan, SamplerConfig, estimate_normals, generate_samples, voxel_downsample
from .uncertainty import PerturbField, UncertaintyConfig, draw_batch, partition_voxels

# rng stream tags (third SeedSequence word)
_TAG_SAMPLER = 1
_TAG_BATCH = 2
_DECODER_STREAM = 0x5DF


@dataclass
class TrainConfig:
    iterations: int = 15
    batch_size: int = 16384
    n_uncertain: int = 1000
    active_sampling: bool = True  # False: uniform pool draws (baseline)
    seed: int = 0
    voxel_sizes: tuple = (0.3, 0.45)
    feature_dim: int = 8
    hidden_units: int = 32
    sampler: SamplerConfig = dc_field(default_factory=SamplerConfig)
    pool: PoolConfig = dc_field(default_factory=PoolConfig)
    uncertainty: UncertaintyConfig = dc_field(default_factory=UncertaintyConfig)
    adam: AdamConfig = dc_field(default_factory=AdamConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        sizes = self.voxel_sizes
        if not (sizes and all(isinstance(v, (int, float)) and v > 0 for v in sizes)):
            raise ValueError("voxel_sizes must be a non-empty list of positive numbers")
        if not 0 <= self.n_uncertain <= self.batch_size:
            raise ValueError("need 0 <= n_uncertain <= batch_size")


@dataclass
class FrameReport:
    frame_id: int
    skipped: bool = False
    losses: list = dc_field(default_factory=list)
    pool_size: int = 0
    n_uncertain_voxels: int = 0
    n_certain_voxels: int = 0
    new_vertices: int = 0
    nonfinite_points: int = 0
    degenerate_normals: int = 0
    evicted_window: int = 0
    evicted_capacity: int = 0
    stage_ms: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def loss_mse(labels, predictions) -> float:
    """Mean squared residual between labels and predictions."""
    labels = np.asarray(labels, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if labels.shape != predictions.shape or labels.size == 0:
        raise ValueError("labels and predictions must be equal-length and non-empty")
    r = predictions - labels
    return float(r @ r) / r.size


class Mapper:
    """Holds all map state and folds scans into it."""

    def __init__(self, cfg: TrainConfig = None):
        self.cfg = cfg if cfg is not None else TrainConfig()
        c = self.cfg
        self.grid = FeatureGrid(voxel_sizes=c.voxel_sizes, feature_dim=c.feature_dim)
        self.decoder = SdfDecoder(
            feature_dim=c.feature_dim,
            hidden_units=c.hidden_units,
            rng=self._rng(_DECODER_STREAM),
        )
        self.field = NeuralSdfField(self.grid, self.decoder)
        # pool buckets and Fisher vertices share the coarsest level's lattice
        lattice = max(c.voxel_sizes)
        self.pool = ReplayPool(lattice, c.pool.capacity, c.pool.prune_radius)
        self.perturb = PerturbField(lattice, c.uncertainty.gamma)
        self.adam_steps = 0  # Adam updates applied so far (bias correction)
        self.frames_done = 0

    def _rng(self, *words):
        return np.random.default_rng(np.random.SeedSequence([self.cfg.seed, *words]))

    def process_frame(self, scan: Scan) -> FrameReport:
        cfg = self.cfg
        report = FrameReport(frame_id=scan.frame_id)
        if scan.points.shape[0] == 0:
            report.skipped = True
            report.pool_size = self.pool.n
            self.frames_done += 1
            return report

        t0 = time.perf_counter()
        if cfg.sampler.downsample_voxel > 0:
            scan = Scan(
                scan.origin,
                voxel_downsample(scan.points, cfg.sampler.downsample_voxel),
                scan.frame_id,
            )
        normals, degenerate = estimate_normals(scan, k=cfg.sampler.normal_k)
        report.degenerate_normals = int(degenerate.sum())
        rng_s = self._rng(scan.frame_id, _TAG_SAMPLER)
        batch = generate_samples(scan, normals, cfg.sampler, cfg.pool, rng_s)
        t1 = time.perf_counter()
        report.stage_ms["sample"] = 1e3 * (t1 - t0)

        report.new_vertices, report.nonfinite_points = self.grid.allocate(batch.pos)
        t2 = time.perf_counter()
        report.stage_ms["allocate"] = 1e3 * (t2 - t1)

        self.pool.insert(batch, scan.frame_id)
        report.evicted_window = self.pool.prune_window(scan.origin)
        report.evicted_capacity = self.pool.enforce_capacity()
        report.pool_size = self.pool.n
        t3 = time.perf_counter()
        report.stage_ms["pool"] = 1e3 * (t3 - t2)

        partition = None
        if cfg.active_sampling:
            partition = partition_voxels(self.pool, self.perturb, cfg.uncertainty.threshold)
            report.n_uncertain_voxels = int(partition.uncertain.size)
            report.n_certain_voxels = int(partition.certain.size)
        t4 = time.perf_counter()
        report.stage_ms["partition"] = 1e3 * (t4 - t3)

        rng_b = self._rng(scan.frame_id, _TAG_BATCH)
        drawn = []
        for _ in range(cfg.iterations):
            rows = draw_batch(self.pool, partition, cfg.batch_size, cfg.n_uncertain, rng_b)
            _, cache = self.field.predict(self.pool.pos[rows])
            loss, store = self.field.backward_mse(cache, self.pool.label[rows])
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"non-finite loss {loss} at frame {scan.frame_id}, "
                    f"iteration {len(report.losses)}"
                )
            self.adam_steps += 1
            adam_step(store, self.grid, self.decoder, cfg.adam, self.adam_steps)
            report.losses.append(loss)
            drawn.append(rows)
        t5 = time.perf_counter()
        report.stage_ms["optimize"] = 1e3 * (t5 - t4)

        # Fisher sees each trained sample once, with the updated weights.
        rows = np.unique(np.concatenate(drawn))
        grads = self.field.spatial_gradient(self.pool.pos[rows])
        self.perturb.accumulate(self.pool.pos[rows], grads)
        report.stage_ms["fisher"] = 1e3 * (time.perf_counter() - t5)

        self.frames_done += 1
        return report

    def run_sequence(self, point_clouds, poses) -> list:
        """Transform sensor-frame clouds to world scans and fold them in.

        poses are (3, 4) row-major rigid transforms (sensor -> world).
        """
        point_clouds = list(point_clouds)
        poses = list(poses)
        if len(point_clouds) != len(poses):
            raise PoseCountMismatch(
                f"{len(point_clouds)} scans vs {len(poses)} poses"
            )
        reports = []
        for cloud, pose in zip(point_clouds, poses):
            pose = np.asarray(pose, dtype=np.float64).reshape(3, 4)
            pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
            world = pts @ pose[:, :3].T + pose[:, 3]
            scan = Scan(origin=pose[:, 3], points=world, frame_id=self.frames_done)
            reports.append(self.process_frame(scan))
        return reports
