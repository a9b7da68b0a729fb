"""Checks of the benchmark's own arithmetic and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gauge  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tsdfmap import field as field_mod  # noqa: E402
from tsdfmap import hashmap, trainer, uncertainty  # noqa: E402
from tsdfmap.sim import LidarModel, simulate_scan  # noqa: E402
from tsdfmap.trainer import Mapper, TrainConfig  # noqa: E402


def _small_scans(n=2):
    lidar = LidarModel(azimuth_count=36, elevation_count=8, elevation_min_deg=-45.0,
                       elevation_max_deg=45.0, beta=0.002, seed=3)
    poses = workloads.orbit_poses(n, 4.5, 3.0)
    return [simulate_scan(p, lidar, workloads.desk_scene(), frame_id=i)[0]
            for i, p in enumerate(poses)]


def _small_cfg():
    return TrainConfig(iterations=2, batch_size=256, n_uncertain=32, seed=1)


# ------------------------------------------------------------- self time


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        (0.0, 10.0, -1),  # 0: root
        (1.0, 4.0, 0),  # 1: child of 0
        (2.0, 3.0, 1),  # 2: grandchild, does not count against 0
        (5.0, 9.0, 0),  # 3: child of 0
        (6.0, 7.5, 3),  # 4
        (7.0, 8.0, 3),  # 5: overlaps 4; their union is 2.0
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.0])


def test_self_times_of_a_subtree_add_up_to_its_duration():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0), (11.0, 12.0, -1)]
    selfs = stats.self_times(spans)
    assert stats.subtree(spans, 0) == [0, 1, 2, 3]
    assert sum(selfs[i] for i in stats.subtree(spans, 0)) == pytest.approx(10.0)


def test_covered_clips_to_the_parent_interval():
    assert stats.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert stats.covered([], 0.0, 10.0) == 0.0


def test_nested_insert_under_accumulate():
    """accumulate's self time excludes hashmap.insert, whose own self time
    excludes the kernel call and any table growth below it."""
    field = uncertainty.PerturbField(0.45, 1.0)
    rng = np.random.default_rng(0)
    pos = rng.uniform(-2.0, 2.0, size=(3000, 3))
    grads = rng.standard_normal((3000, 3))
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.record():
        field.accumulate(pos, grads)
    names = [s[0] for s in tracer.spans]
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in tracer.spans])
    acc = names.index("uncertainty.accumulate")
    ins = names.index("hashmap.insert")
    assert tracer.spans[ins][3] == acc
    assert tracer.tags[ins] == "fisher"

    def dur(i):
        return tracer.spans[i][2] - tracer.spans[i][1]

    def kids(i):
        return [j for j, s in enumerate(tracer.spans) if s[3] == i]

    assert "hashmap.grow" in [names[j] for j in kids(ins)]  # 24k keys outgrow 1024 slots
    assert selfs[acc] == pytest.approx(dur(acc) - sum(dur(j) for j in kids(acc)), abs=1e-12)
    assert selfs[ins] == pytest.approx(dur(ins) - sum(dur(j) for j in kids(ins)), abs=1e-12)
    assert sum(selfs[i] for i in stats.subtree(
        [(s[1], s[2], s[3]) for s in tracer.spans], acc)) == pytest.approx(dur(acc), abs=1e-12)
    assert tracer.counts["hashmap.insert.keys"] == 8 * 3000


# ------------------------------------------------------------ tail rule


def test_tail_is_the_median_below_21_samples():
    for n in range(1, 21):
        values = list(range(n))
        assert stats.tail(values) == (stats.median(values), 50.0, n)


@pytest.mark.parametrize("n", [21, 22, 40, 100, 1000])
def test_tail_keeps_exactly_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) * 1.5)
    value, pct, count = stats.tail(values)
    xs = sorted(values)
    assert count == n
    assert sum(x > value for x in xs) == 10
    # the next order statistic up would leave only nine beyond it
    assert sum(x > xs[xs.index(value) + 1] for x in xs) == 9
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert value >= stats.median(values)


def test_position_medians_take_each_frame_over_passes():
    assert stats.position_medians([[1, 10, 3], [2, 20, 1], [3, 30, 2]]) == [2, 20, 2]
    assert stats.position_medians([[], [4, 5]]) == [4, 5]


# ------------------------------------------------------------ host gauge


def test_scaled_time_cancels_host_speed():
    nominal = gauge.NOMINAL_S
    assert gauge.scale(2.0, nominal, nominal) == pytest.approx(2.0)
    # a host twice as slow doubles both the operation and its references
    assert gauge.scale(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    assert gauge.scale(3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_gauge_times_the_call_between_two_references():
    g = gauge.Gauge()
    result, wall, scaled = g.time(sorted, [3, 1, 2])
    assert result == [1, 2, 3]
    assert len(g.references) == 2
    assert scaled == pytest.approx(gauge.scale(wall, *g.references))


# ------------------------------------------------------- byte accounting


def test_held_bytes_counts_a_shared_buffer_once():
    class Holder:
        pass

    a, b = Holder(), Holder()
    buf = np.zeros(1000)
    a.x, a.y, a.n = buf, buf[:10], 7
    b.z = buf[500:]
    assert stats.held_bytes([a, b]) == 8000


def test_map_bytes_are_pool_grid_hash_and_fisher_arrays():
    mapper = Mapper(_small_cfg())
    for scan in _small_scans():
        mapper.process_frame(scan)
    pool = mapper.pool
    expected = 76 * pool.n  # pos 24 + five float64/int64 columns 40 + frame_id 4 + seq 8
    for lvl in mapper.grid.levels:
        expected += 3 * lvl._feat.shape[0] * lvl.feature_dim * 8
    tables = [lvl.vertices for lvl in mapper.grid.levels] + [mapper.perturb.vertices]
    for table in tables:
        expected += 8 * (2 * table._table_keys.shape[0] + table._stored.shape[0])
    expected += mapper.perturb._fisher.nbytes
    assert pool.n > 0
    assert stats.held_bytes(workloads.map_structures(mapper)) == expected
    assert tracing._row_bytes(pool) == 76


# -------------------------------------------------------------- tracing


def test_tracing_restores_every_function_and_changes_no_result():
    before = (trainer.draw_batch, field_mod.scatter_add_rows, hashmap.VoxelHash.insert,
              hashmap.VoxelHash.__dict__["from_keys"], trainer.Mapper.process_frame)
    scans = _small_scans()
    plain = Mapper(_small_cfg())
    losses = [plain.process_frame(s).losses for s in scans]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert trainer.draw_batch is not before[0]
        traced = Mapper(_small_cfg())
        with tracer.record():
            traced_losses = [traced.process_frame(s).losses for s in scans]
    after = (trainer.draw_batch, field_mod.scatter_add_rows, hashmap.VoxelHash.insert,
             hashmap.VoxelHash.__dict__["from_keys"], trainer.Mapper.process_frame)
    assert all(a is b for a, b in zip(before, after))
    assert traced_losses == losses
    total, parts = tracing.frame_breakdown(tracer)
    assert total > 0
    assert sum(parts.values()) == pytest.approx(total, rel=1e-9)
    metrics = tracing.span_metrics(tracer)
    assert metrics["trainer.process_frame.ms"][0] == pytest.approx(total)
    assert metrics["sampler.points"][0] == sum(s.points.shape[0] for s in scans)
    # grid allocation and Fisher accumulation insert; nothing is rebuilt
    assert set(tracer.tags.values()) == {"allocate", "fisher"}
    assert metrics["hashmap.insert.allocate.ms"][0] > 0
    assert metrics["hashmap.insert.rebuild.ms"][0] == 0


def test_wrappers_record_nothing_outside_record():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        Mapper(_small_cfg()).process_frame(_small_scans(1)[0])
    assert tracer.spans == []
