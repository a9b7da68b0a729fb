"""Per-frame training orchestration.

Frame pipeline, in order: the frame gate, the one owner of admission,
drops and counts returns that are non-finite, whose samples would leave
the packable grid range, or that lie at the sensor origin, and skips a
frame with none left; then estimate normals, generate samples, allocate
grid voxels at the sample positions, insert into the replay pool, prune
the pool window, enforce bucket capacity, partition buckets by
uncertainty and split the pool rows into uncertain and certain once.
Replay then draws all `iterations` batches from the frame's batch
stream, locates the union of drawn rows once (corner rows and in-cell
fractions), and runs `iterations` rounds of predict / MSE / backward /
Adam, each on its batch's slice of that record with the current
features. Finally Fisher information accumulates over the union, each
trained sample once, with the post-update weights: `spatial_gradient`
reads the union's record in the decoder's `row_blocks`, so its
intermediates follow one block, and the Fisher sums are scattered once
over the whole union. Within a frame the pool, the partition and the
grid vertices do not change, so this gives bitwise the results of
drawing and interpolating each batch on its own.

Everything is seeded per (global seed, frame, purpose), so runs are
bitwise reproducible.
"""

import time
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from .adam import AdamConfig, adam_step
from .decoder import SdfDecoder
from .errors import NonFiniteLoss
from .field import NeuralSdfField
from .grid import CELL_LIMIT, FeatureGrid
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if min(self.feature_dim, self.hidden_units) < 1:
            raise ValueError("feature_dim and hidden_units must be >= 1")
        sizes = self.voxel_sizes
        if not (sizes and all(isinstance(v, (int, float)) and 0 < v < np.inf for v in sizes)):
            raise ValueError("voxel_sizes must be a non-empty list of positive finite numbers")
        if not 0 <= self.n_uncertain <= self.batch_size:
            raise ValueError("need 0 <= n_uncertain <= batch_size")


@dataclass
class FrameReport:
    frame_id: int
    skipped: bool = False
    unreadable: bool = False  # the scan file could not be read; mapped as empty
    losses: list = dc_field(default_factory=list)
    pool_size: int = 0
    n_uncertain_voxels: int = 0
    n_certain_voxels: int = 0
    sigma_min: float | None = None  # raw sigma range over the partitioned buckets; None
    sigma_max: float | None = None  # when no partition ran (uniform draws, skipped frame)
    new_vertices: int = 0
    nonfinite_points: int = 0  # returns dropped as NaN or infinite
    out_of_range_points: int = 0  # finite returns whose samples would not pack
    zero_range_points: int = 0  # packable returns at the sensor origin (no ray)
    degenerate_normals: int = 0
    evicted_window: int = 0
    evicted_capacity: int = 0
    fisher_rows: int = 0  # distinct pool rows the Fisher pass accumulated
    stage_ms: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


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
        self.pool = ReplayPool(lattice, c.pool)
        self.perturb = PerturbField(lattice, c.uncertainty.gamma)
        self.adam_steps = 0  # Adam updates applied so far (bias correction)
        self.frames_done = 0

    def _rng(self, *words):
        return np.random.default_rng(np.random.SeedSequence([self.cfg.seed, *words]))

    def _gate(self, scan: Scan, report: FrameReport) -> Scan:
        """Admit a frame's returns: the one place its admission rules are stated.

        A return is kept only if it is finite, its samples would pack, and
        it lies off the sensor origin (no ray: no samples, no normal of its
        own); `process_frame` skips a frame with none left. A sample lies on
        the ray or at most trunc_dist past its return, so each coordinate
        stays within max(|origin|, |return|) + trunc_dist; that bound must
        keep the finest level's corner cells packable.
        """
        finite = np.isfinite(scan.points).all(axis=1)
        pts = scan.points[finite]
        limit = CELL_LIMIT * min(self.cfg.voxel_sizes)
        reach = np.maximum(np.abs(scan.origin), np.abs(pts)) + self.cfg.sampler.trunc_dist
        in_range = (reach < limit).all(axis=1)
        ranged = np.linalg.norm(pts - scan.origin, axis=1) > 0
        report.nonfinite_points = int((~finite).sum())
        report.out_of_range_points = int((~in_range).sum())
        report.zero_range_points = int((in_range & ~ranged).sum())
        return Scan(scan.origin, pts[in_range & ranged], scan.frame_id)

    def process_frame(self, scan: Scan) -> FrameReport:
        cfg = self.cfg
        report = FrameReport(frame_id=scan.frame_id)
        t0 = time.perf_counter()
        scan = self._gate(scan, report)
        if scan.points.shape[0] == 0:
            report.skipped = True
            report.pool_size = self.pool.n
            self.frames_done += 1
            return report

        if cfg.sampler.downsample_voxel > 0:
            scan = Scan(
                scan.origin,
                voxel_downsample(scan.points, cfg.sampler.downsample_voxel),
                scan.frame_id,
            )
        normals, degenerate = estimate_normals(scan, k=cfg.sampler.normal_k)
        report.degenerate_normals = int(degenerate.sum())
        rng_s = self._rng(scan.frame_id, _TAG_SAMPLER)
        batch = generate_samples(scan, normals, cfg.sampler, rng_s)
        t1 = time.perf_counter()
        report.stage_ms["sample"] = 1e3 * (t1 - t0)

        report.new_vertices, _ = self.grid.allocate(batch.pos)
        t2 = time.perf_counter()
        report.stage_ms["allocate"] = 1e3 * (t2 - t1)

        self.pool.insert(batch, scan.frame_id)
        report.evicted_window = self.pool.prune_window(scan.origin)
        report.evicted_capacity = self.pool.enforce_capacity()
        report.pool_size = self.pool.n
        t3 = time.perf_counter()
        report.stage_ms["pool"] = 1e3 * (t3 - t2)
        if self.pool.n == 0:  # nothing to partition or replay
            report.skipped = True
            self.frames_done += 1
            return report

        partition = None
        if cfg.active_sampling:
            partition = partition_voxels(self.pool, self.perturb, cfg.uncertainty.threshold)
            report.n_uncertain_voxels = int(partition.uncertain.size)
            report.n_certain_voxels = int(partition.certain.size)
            report.sigma_min = float(partition.sigma.min())
            report.sigma_max = float(partition.sigma.max())
        t4 = time.perf_counter()
        report.stage_ms["partition"] = 1e3 * (t4 - t3)

        self._replay(scan.frame_id, partition, report)
        self.frames_done += 1
        return report

    def _replay(self, frame_id, partition, report):
        """Optimize on the frame's batches, then accumulate Fisher over their union."""
        cfg = self.cfg
        t0 = time.perf_counter()
        rng_b = self._rng(frame_id, _TAG_BATCH)
        drawn = [draw_batch(self.pool, partition, cfg.batch_size, cfg.n_uncertain, rng_b)
                 for _ in range(cfg.iterations)]
        rows, inv = np.unique(np.concatenate(drawn), return_inverse=True)
        pos = np.take(self.pool.pos, rows, axis=0)
        union = self.grid.locate(pos)
        for batch, idx in zip(drawn, np.split(inv, len(drawn))):
            _, cache = self.field.predict(union.take(idx))
            loss, store = self.field.backward_mse(cache, self.pool.label[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"non-finite loss {loss} at frame {frame_id}, "
                    f"iteration {len(report.losses)}"
                )
            self.adam_steps += 1
            adam_step(store, self.grid, self.decoder, cfg.adam, self.adam_steps)
            report.losses.append(loss)
        t1 = time.perf_counter()
        report.stage_ms["optimize"] = 1e3 * (t1 - t0)

        # Fisher sees each trained sample once, with the updated weights.
        report.fisher_rows = int(rows.size)
        grads = self.field.spatial_gradient(union)
        self.perturb.accumulate(pos, grads)
        report.stage_ms["fisher"] = 1e3 * (time.perf_counter() - t1)

    def map_cloud(self, points, pose) -> FrameReport:
        """Fold in one sensor-frame cloud taken at `pose`, as frame `frames_done`.

        pose is a (3, 4) row-major rigid transform (sensor -> world).
        """
        pose = np.asarray(pose, dtype=np.float64).reshape(3, 4)
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        world = pts @ pose[:, :3].T + pose[:, 3]
        scan = Scan(origin=pose[:, 3], points=world, frame_id=self.frames_done)
        return self.process_frame(scan)
