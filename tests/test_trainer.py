import sys
from pathlib import Path

import numpy as np
import pytest

from tsdfmap.adam import adam_step
from tsdfmap.errors import NonFiniteLoss
from tsdfmap.pool import PoolConfig
from tsdfmap.sampler import SamplerConfig, Scan, voxel_downsample
from tsdfmap.trainer import _TAG_BATCH, Mapper, TrainConfig
from tsdfmap.uncertainty import UncertaintyConfig, draw_batch


def small_cfg(**kw):
    base = dict(iterations=3, batch_size=256, n_uncertain=64, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def plane_cloud(rng, n=200, z=0.0):
    return np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                            np.full(n, z)])


def identity_pose(t=(0.0, 0.0, 2.0)):
    pose = np.zeros((3, 4))
    pose[:, :3] = np.eye(3)
    pose[:, 3] = t
    return pose


def map_clouds(mapper, clouds, poses):
    return [mapper.map_cloud(cloud, pose) for cloud, pose in zip(clouds, poses)]


def test_empty_scan_is_skipped():
    mapper = Mapper(small_cfg())
    rep = mapper.process_frame(Scan(np.zeros(3), np.zeros((0, 3)), 0))
    assert rep.skipped
    assert rep.losses == []
    assert mapper.frames_done == 1


@pytest.mark.parametrize("active", [True, False])
def test_frame_that_leaves_the_pool_empty_is_skipped(rng, active):
    """Samples all past the pool window are evicted at once; the next frame still maps."""
    mapper = Mapper(small_cfg(active_sampling=active, sampler=SamplerConfig(n_free=0)))
    origin = np.array([0.0, 0.0, 2.0])
    rep = mapper.process_frame(Scan(origin, plane_cloud(rng, z=-100.0), 0))
    assert rep.skipped and rep.losses == [] and rep.pool_size == 0
    assert rep.evicted_window == 200 * 5 and rep.fisher_rows == 0
    assert mapper.frames_done == 1
    rep = mapper.process_frame(Scan(origin, plane_cloud(rng), 1))
    assert not rep.skipped and rep.pool_size > 0
    assert len(rep.losses) == 3 and np.isfinite(rep.losses).all()
    assert mapper.frames_done == 2


def test_nonfinite_and_far_returns_are_dropped_and_counted(rng):
    origin = np.array([0.0, 0.0, 2.0])
    clean = plane_cloud(rng)
    dirty = np.insert(clean, [40, 120], [[np.nan, 0.0, 0.0], [1e6, 0.0, 0.0]], axis=0)
    ref = Mapper(small_cfg()).process_frame(Scan(origin, clean, 0))
    rep = Mapper(small_cfg()).process_frame(Scan(origin, dirty, 0))
    assert rep.losses == ref.losses
    assert (rep.nonfinite_points, rep.out_of_range_points) == (1, 1)
    assert (ref.nonfinite_points, ref.out_of_range_points) == (0, 0)


def test_returns_at_the_sensor_origin_are_dropped_before_normals_and_counted(rng):
    origin = np.array([0.0, 0.0, 2.0])
    clean = plane_cloud(rng)
    dirty = np.insert(clean, np.arange(0, 200, 10).repeat(10), origin, axis=0)
    ref = Mapper(small_cfg()).process_frame(Scan(origin, clean, 0))
    rep = Mapper(small_cfg()).process_frame(Scan(origin, dirty, 0))
    assert (rep.zero_range_points, ref.zero_range_points) == (200, 0)
    assert rep.degenerate_normals == ref.degenerate_normals
    assert rep.losses == ref.losses and rep.pool_size == ref.pool_size


def test_origin_out_of_range_skips_the_frame(rng):
    mapper = Mapper(small_cfg())
    rep = mapper.process_frame(Scan(np.array([1e6, 0.0, 0.0]), plane_cloud(rng), 0))
    assert rep.skipped
    assert rep.out_of_range_points == 200
    assert mapper.pool.n == 0


def test_frame_report_fields(rng):
    mapper = Mapper(small_cfg())
    scan = Scan(np.array([0.0, 0.0, 2.0]), plane_cloud(rng), 0)
    rep = mapper.process_frame(scan)
    assert not rep.skipped
    assert len(rep.losses) == 3
    assert rep.pool_size == mapper.pool.n > 0
    assert rep.new_vertices > 0
    assert set(rep.stage_ms) == {"sample", "allocate", "pool", "partition",
                                 "optimize", "fisher"}
    # the distinct pool rows among 3 batches of 256 draws
    assert 0 < rep.fisher_rows <= min(3 * 256, rep.pool_size)
    # nothing accumulated before the first frame: every bucket reads the prior sigma
    assert rep.sigma_min == rep.sigma_max == pytest.approx(np.sqrt(3.0))
    d = rep.to_dict()
    assert d["frame_id"] == 0
    assert d["fisher_rows"] == rep.fisher_rows


def test_losses_decrease_over_frames(rng):
    mapper = Mapper(small_cfg(iterations=15))
    first = last = None
    for f in range(4):
        scan = Scan(np.array([0.0, 0.0, 2.0]), plane_cloud(rng), f)
        rep = mapper.process_frame(scan)
        if f == 0:
            first = rep.losses[0]
        last = rep.losses[-1]
    assert last < first * 0.1


def test_mapper_runs_deterministically(rng):
    clouds = [plane_cloud(np.random.default_rng(f), 150) for f in range(3)]
    poses = [identity_pose((0.0, 0.0, 2.0 + 0.1 * f)) for f in range(3)]
    m_a, m_b = Mapper(small_cfg()), Mapper(small_cfg())
    rep_a = map_clouds(m_a, clouds, poses)
    rep_b = map_clouds(m_b, clouds, poses)
    assert [r.frame_id for r in rep_a] == [0, 1, 2]
    for a, b in zip(rep_a, rep_b):
        assert a.losses == b.losses
    for la, lb in zip(m_a.grid.levels, m_b.grid.levels):
        assert np.array_equal(la.features, lb.features)


class PerIterationMapper(Mapper):
    """Reference: each iteration draws its batch and interpolates it afresh,
    and the Fisher pass interpolates the union of drawn rows again."""

    def _replay(self, frame_id, partition, report):
        cfg = self.cfg
        rng_b = self._rng(frame_id, _TAG_BATCH)
        drawn = []
        for _ in range(cfg.iterations):
            rows = draw_batch(self.pool, partition, cfg.batch_size, cfg.n_uncertain, rng_b)
            _, cache = self.field.predict(self.grid.locate(self.pool.pos[rows]))
            loss, store = self.field.backward_mse(cache, self.pool.label[rows])
            self.adam_steps += 1
            adam_step(store, self.grid, self.decoder, cfg.adam, self.adam_steps)
            report.losses.append(loss)
            drawn.append(rows)
        rows = np.unique(np.concatenate(drawn))
        report.fisher_rows = int(rows.size)
        grads = self.field.spatial_gradient(self.grid.locate(self.pool.pos[rows]))
        self.perturb.accumulate(self.pool.pos[rows], grads)


@pytest.mark.parametrize("active", [True, False])
def test_shared_batch_geometry_matches_per_iteration_loop(active):
    cfg = dict(iterations=4, batch_size=512, n_uncertain=128, active_sampling=active)
    mappers = Mapper(small_cfg(**cfg)), PerIterationMapper(small_cfg(**cfg))
    split_seen = False
    for f in range(3):
        scan = Scan(np.array([0.3 * f, 0.0, 2.0]),
                    plane_cloud(np.random.default_rng(f), 300), f)
        got, want = (m.process_frame(scan) for m in mappers)
        assert got.losses == want.losses
        assert got.fisher_rows == want.fisher_rows
        split_seen |= got.n_uncertain_voxels > 0 and got.n_certain_voxels > 0
    assert split_seen == active
    m, ref = mappers
    assert m.adam_steps == ref.adam_steps
    for name in m.decoder.params:
        assert np.array_equal(m.decoder.params[name], ref.decoder.params[name])
        assert np.array_equal(m.decoder.adam_m[name], ref.decoder.adam_m[name])
        assert np.array_equal(m.decoder.adam_v[name], ref.decoder.adam_v[name])
    for la, lb in zip(m.grid.levels, ref.grid.levels):
        assert np.array_equal(la.features, lb.features)
        assert np.array_equal(la.adam_m, lb.adam_m)
        assert np.array_equal(la.adam_v, lb.adam_v)
    assert np.array_equal(m.perturb.vertices.keys, ref.perturb.vertices.keys)
    assert np.array_equal(m.perturb.fisher, ref.perturb.fisher)


def test_downsample_voxel_matches_decimating_by_hand():
    """Input decimation inside process_frame equals feeding voxel_downsample's output."""
    on = Mapper(small_cfg(sampler=SamplerConfig(downsample_voxel=0.2)))
    off = Mapper(small_cfg())
    for f in range(3):
        origin = np.array([0.2 * f, 0.0, 2.0])
        pts = plane_cloud(np.random.default_rng(f), 4000, z=0.05 * f)
        kept = voxel_downsample(pts, 0.2)
        assert 0 < len(kept) < len(pts)
        got = on.process_frame(Scan(origin, pts, f))
        want = off.process_frame(Scan(origin, kept, f))
        assert got.losses == want.losses and len(got.losses) == 3
        assert got.pool_size == want.pool_size > 0
    for la, lb in zip(on.grid.levels, off.grid.levels):
        assert np.array_equal(la.features, lb.features)


def test_seed_changes_trajectory(rng):
    clouds = [plane_cloud(rng, 150)]
    poses = [identity_pose()]
    rep_a = map_clouds(Mapper(small_cfg(seed=1)), clouds, poses)
    rep_b = map_clouds(Mapper(small_cfg(seed=2)), clouds, poses)
    assert rep_a[0].losses != rep_b[0].losses


def test_map_cloud_transforms_to_world(rng):
    # sensor-frame points + pose translation: map bounds follow the pose
    cloud = plane_cloud(rng, 100, z=-2.0)  # sensor 2 m above the plane
    pose = identity_pose((10.0, 10.0, 2.0))
    mapper = Mapper(small_cfg())
    rep = mapper.map_cloud(cloud, pose)
    lo, hi = mapper.grid.bounds()
    assert lo[0] > 5.0  # allocations live near x,y ~ 10
    assert hi[0] < 15.0
    # the same frame, given in world coordinates to process_frame
    ref = Mapper(small_cfg()).process_frame(Scan(pose[:, 3], cloud + pose[:, 3], 0))
    assert rep.losses == ref.losses and mapper.frames_done == 1


def test_nonfinite_loss_aborts(rng):
    mapper = Mapper(small_cfg())
    scan = Scan(np.array([0.0, 0.0, 2.0]), plane_cloud(rng), 0)
    mapper.process_frame(scan)
    mapper.decoder.params["w1"][:] = 1e308  # force an overflow in forward
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        mapper.process_frame(Scan(np.array([0.0, 0.0, 2.0]),
                                  plane_cloud(rng), 1))


def test_uniform_baseline_skips_partition(rng):
    mapper = Mapper(small_cfg(active_sampling=False))
    scan = Scan(np.array([0.0, 0.0, 2.0]), plane_cloud(rng), 0)
    rep = mapper.process_frame(scan)
    assert rep.n_uncertain_voxels == 0 and rep.n_certain_voxels == 0
    assert len(rep.losses) == 3


def test_window_postcondition(rng):
    cfg = small_cfg()
    cfg.pool.prune_radius = 4.0
    mapper = Mapper(cfg)
    origin = np.array([0.0, 0.0, 2.0])
    mapper.process_frame(Scan(origin, plane_cloud(rng), 0))
    d = np.linalg.norm(mapper.pool.pos - origin, axis=1)
    assert (d < 4.0).all()


def test_capacity_postcondition(rng):
    cfg = small_cfg()
    cfg.pool.capacity = 5
    mapper = Mapper(cfg)
    for f in range(3):
        mapper.process_frame(Scan(np.array([0.0, 0.0, 2.0]),
                                  plane_cloud(rng, 400), f))
    _, counts = mapper.pool.bucket_sizes()
    assert counts.max() <= 5


def test_pool_and_perturb_share_coarsest_lattice():
    """Every part the Mapper builds takes its settings from the one config."""
    cfg = TrainConfig(voxel_sizes=(0.25, 0.7, 0.4), feature_dim=5, hidden_units=12,
                      pool=PoolConfig(capacity=99, prune_radius=12.0),
                      uncertainty=UncertaintyConfig(gamma=2.5))
    mapper = Mapper(cfg)
    assert [lvl.voxel_size for lvl in mapper.grid.levels] == [0.25, 0.7, 0.4]
    assert [lvl.feature_dim for lvl in mapper.grid.levels] == [5, 5, 5]
    assert [lvl.features.shape[1] for lvl in mapper.grid.levels] == [5, 5, 5]
    assert mapper.grid.feature_dim == 5
    dec = mapper.decoder
    assert (dec.feature_dim, dec.hidden_units) == (5, 12)
    assert {name: p.shape for name, p in dec.params.items()} == {
        "w1": (5, 12), "b1": (12,), "w2": (12, 12), "b2": (12,), "w3": (12, 1), "b3": (1,)}
    assert mapper.pool.voxel_size == mapper.perturb.grid_size == 0.7
    assert mapper.perturb.gamma == 2.5
    assert mapper.pool.cfg == cfg.pool
    assert mapper.pool.capacity == 99


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=10, n_uncertain=11)
    for sizes in ((), (0.3, 0.0), (0.3, -0.45)):
        with pytest.raises(ValueError):
            TrainConfig(voxel_sizes=sizes)


def test_traced_frame_counts_each_interpolated_row_once(rng):
    """perfbench's `grid.interpolate.points` probe reads `interpolate(...)[0].shape[0]`,
    so it counts rows only while the features lead the returned tuple: a bare
    (n, feature_dim) array would count feature_dim per call."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import tracing

    cfg = small_cfg()
    mapper = Mapper(cfg)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.record():
        report = mapper.process_frame(Scan(np.array([0.0, 0.0, 2.0]), plane_cloud(rng, 400), 0))
    points = tracing.span_metrics(tracer)["grid.interpolate.points"][0]
    assert report.fisher_rows > cfg.feature_dim
    assert points == cfg.iterations * cfg.batch_size + report.fisher_rows
