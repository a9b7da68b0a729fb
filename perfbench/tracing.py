"""Spans and counts around every call into tsdfmap's layers.

`installed(tracer)` replaces each probed function or method with a thin
wrapper for the duration of a `with` block and puts the originals back
afterwards; nothing under src/ changes. Module-level functions are
replaced in every tsdfmap module that bound them by name (trainer.py
imports `draw_batch` from uncertainty.py, for instance), methods on
their class. A wrapper records nothing unless the tracer is inside
`tracer.record()`, so simulation and ground truth stay out of the trace.

A span is [name, start, end, parent]: start and end from
time.perf_counter, parent the index of the enclosing span or -1. Counts
are taken after a call returns, inside a `trace.count` span that is a
sibling of the call's span, so counting cost is charged to no layer.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import stats

COUNT_SPAN = "trace.count"

# Which caller a hashmap.insert serves, by its nearest enclosing span.
INSERT_CONTEXTS = {
    "grid.allocate": "allocate",
    "uncertainty.accumulate": "fisher",
    "hashmap.from_keys": "rebuild",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.tags = {}
        self.counts = defaultdict(float)
        self.recording = False
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def add(self, key, value):
        self.counts[key] += float(value)

    def nearest(self, index, names):
        """Name of the closest enclosing span whose name is in names."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None

    @contextlib.contextmanager
    def record(self):
        previous, self.recording = self.recording, True
        try:
            yield self
        finally:
            self.recording = previous


# ------------------------------------------------------------ count hooks
# post(tracer, span, args, kwargs, result, state); state is what pre(args)
# returned before the call. args[0] is `self` for methods.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(args):
    return args[0].size


def _pool_rows(args):
    return args[0].n


def _row_bytes(pool):
    """Bytes one pool row occupies across all column arrays."""
    return sum(v.dtype.itemsize * int(np.prod(v.shape[1:]))
               for v in vars(pool).values() if isinstance(v, np.ndarray))


def _post_normals(t, i, args, kwargs, result, state):
    t.add("sampler.points", _arg(args, kwargs, 0, "scan").points.shape[0])


def _post_samples(t, i, args, kwargs, result, state):
    t.add("sampler.samples", len(result))


def _post_allocate(t, i, args, kwargs, result, state):
    t.add("grid.allocate.new_vertices", result[0])


def _post_insert(t, i, args, kwargs, result, state):
    keys = np.asarray(_arg(args, kwargs, 1, "keys")).ravel()
    t.tags[i] = INSERT_CONTEXTS.get(t.nearest(i, INSERT_CONTEXTS), "other")
    t.add("hashmap.insert.keys", keys.size)
    t.add("hashmap.insert.distinct", np.unique(keys).size)
    t.add("hashmap.insert.new", args[0].size - state)


def _post_lookup(t, i, args, kwargs, result, state):
    t.add("hashmap.lookup.keys", result.size)
    t.add("hashmap.lookup.hits", int((result >= 0).sum()))


def _post_grow(t, i, args, kwargs, result, state):
    t.add("hashmap.grow.count", 1)


def _post_pool_insert(t, i, args, kwargs, result, state):
    pool = args[0]
    # np.concatenate rewrites every column of the whole pool.
    t.add("pool.bytes_copied", pool.n * _row_bytes(pool))


def _pool_evict(kind):
    def post(t, i, args, kwargs, result, state):
        t.add(f"pool.evicted_{kind}", result)
        if result:  # _take rewrites the kept rows of every column
            t.add("pool.bytes_copied", (state - result) * _row_bytes(args[0]))
    return post


def _post_partition(t, i, args, kwargs, result, state):
    t.add("uncertainty.uncertain_voxels", result.uncertain.size)


def _post_draw(t, i, args, kwargs, result, state):
    pool = _arg(args, kwargs, 0, "pool")
    partition = _arg(args, kwargs, 1, "partition")
    t.add("uncertainty.batch_rows", result.size)
    if partition is not None:
        t.add("uncertainty.batch_uncertain_rows",
              int(np.isin(pool.bucket[result], partition.uncertain).sum()))


def _post_interpolate(t, i, args, kwargs, result, state):
    t.add("grid.interpolate.points", result[0].shape[0])


def _mlp_flops(decoder, rows):
    """Matrix-product flops of one forward pass over `rows` inputs."""
    d, h = decoder.feature_dim, decoder.hidden_units
    return 2 * rows * (d * h + h * h + h)


def _post_forward(t, i, args, kwargs, result, state):
    rows = result[0].shape[0]
    t.add("decoder.rows", rows)
    t.add("decoder.flops", _mlp_flops(args[0], rows))


def _post_backward(t, i, args, kwargs, result, state):
    rows = result[1].shape[0]
    with_params = args[3] if len(args) > 3 else kwargs.get("with_param_grads", True)
    # input gradients cost one forward's products, parameter gradients another
    t.add("decoder.flops", (2 if with_params else 1) * _mlp_flops(args[0], rows))


def _post_adam(t, i, args, kwargs, result, state):
    grads = _arg(args, kwargs, 0, "grads")
    t.add("adam.rows", sum(rows.size for rows in grads.level_rows))


def _post_scatter(t, i, args, kwargs, result, state):
    t.add("kernels.scatter_add_rows.rows", _arg(args, kwargs, 1, "rows").shape[0])


def _post_sdf_grid(t, i, args, kwargs, result, state):
    t.add("mesher.nodes", result.valid.size)
    t.add("mesher.valid_nodes", int(result.valid.sum()))


def _post_extract(t, i, args, kwargs, result, state):
    t.add("mesher.triangles", result.n_faces)


def _post_surface(t, i, args, kwargs, result, state):
    t.add("metrics.points", result.shape[0])


def _post_load(t, i, args, kwargs, result, state):
    source = _arg(args, kwargs, 0, "path")
    t.add("checkpoint.bytes", source.getbuffer().nbytes)


@dataclass(frozen=True)
class Probe:
    name: str  # span name, "<module>.<function>"
    module: str
    attr: str  # "function" or "Class.method"
    post: Optional[Callable] = None
    pre: Optional[Callable] = None
    optional: bool = False  # private hook that a refactor may remove


PROBES = (
    Probe("trainer.process_frame", "tsdfmap.trainer", "Mapper.process_frame"),
    Probe("sampler.estimate_normals", "tsdfmap.sampler", "estimate_normals", _post_normals),
    Probe("sampler.generate_samples", "tsdfmap.sampler", "generate_samples", _post_samples),
    Probe("grid.allocate", "tsdfmap.grid", "FeatureGrid.allocate", _post_allocate),
    Probe("grid.interpolate", "tsdfmap.grid", "FeatureGrid.interpolate", _post_interpolate),
    Probe("grid.voxels_allocated", "tsdfmap.grid", "FeatureGrid.voxels_allocated"),
    Probe("hashmap.insert", "tsdfmap.hashmap", "VoxelHash.insert", _post_insert, _size),
    Probe("hashmap.lookup", "tsdfmap.hashmap", "VoxelHash.lookup", _post_lookup),
    Probe("hashmap.grow", "tsdfmap.hashmap", "VoxelHash._grow", _post_grow, optional=True),
    Probe("hashmap.from_keys", "tsdfmap.hashmap", "VoxelHash.from_keys"),
    Probe("pool.insert", "tsdfmap.pool", "ReplayPool.insert", _post_pool_insert),
    Probe("pool.prune_window", "tsdfmap.pool", "ReplayPool.prune_window",
          _pool_evict("window"), _pool_rows),
    Probe("pool.enforce_capacity", "tsdfmap.pool", "ReplayPool.enforce_capacity",
          _pool_evict("capacity"), _pool_rows),
    Probe("uncertainty.partition_voxels", "tsdfmap.uncertainty", "partition_voxels",
          _post_partition),
    Probe("uncertainty.query_sigma", "tsdfmap.uncertainty", "PerturbField.query_sigma"),
    Probe("uncertainty.draw_batch", "tsdfmap.uncertainty", "draw_batch", _post_draw),
    Probe("uncertainty.accumulate", "tsdfmap.uncertainty", "PerturbField.accumulate"),
    Probe("field.predict", "tsdfmap.field", "NeuralSdfField.predict"),
    Probe("field.backward_mse", "tsdfmap.field", "NeuralSdfField.backward_mse"),
    Probe("field.spatial_gradient", "tsdfmap.field", "NeuralSdfField.spatial_gradient"),
    Probe("decoder.forward", "tsdfmap.decoder", "SdfDecoder.forward", _post_forward),
    Probe("decoder.backward", "tsdfmap.decoder", "SdfDecoder.backward", _post_backward),
    Probe("adam.adam_step", "tsdfmap.adam", "adam_step", _post_adam),
    Probe("kernels.scatter_add_rows", "tsdfmap.kernels.scatter", "scatter_add_rows",
          _post_scatter),
    Probe("kernels.adam_update_rows", "tsdfmap.kernels.scatter", "adam_update_rows"),
    Probe("kernels.insert_rows", "tsdfmap.kernels.hashkern", "insert_rows"),
    Probe("kernels.lookup_rows", "tsdfmap.kernels.hashkern", "lookup_rows"),
    Probe("kernels.classify_cells", "tsdfmap.kernels.march", "classify_cells"),
    Probe("kernels.emit", "tsdfmap.kernels.march", "emit"),
    Probe("mesher.eval_sdf_grid", "tsdfmap.mesher", "eval_sdf_grid", _post_sdf_grid),
    Probe("mesher.extract_mesh", "tsdfmap.mesher", "extract_mesh", _post_extract),
    Probe("mesher.extract_map_mesh", "tsdfmap.mesher", "extract_map_mesh"),
    Probe("metrics.evaluate", "tsdfmap.metrics", "evaluate"),
    Probe("metrics.sample_surface", "tsdfmap.metrics", "sample_surface", _post_surface),
    Probe("metrics.nn_distances", "tsdfmap.metrics", "nn_distances"),
    Probe("checkpoint.save", "tsdfmap.checkpoint", "save_checkpoint"),
    Probe("checkpoint.load", "tsdfmap.checkpoint", "load_checkpoint", _post_load),
)


# --------------------------------------------------------------- patching


def _wrap(tracer, probe, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        state = probe.pre(args) if probe.pre else None
        index = tracer.begin(probe.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if probe.post:
            count = tracer.begin(COUNT_SPAN)
            try:
                probe.post(tracer, index, args, kwargs, result, state)
            finally:
                tracer.end(count)
        return result

    return traced


def _patch(tracer, probe):
    """Install one probe; returns the (owner, attr, original) it replaced."""
    module = importlib.import_module(probe.module)
    if "." in probe.attr:
        cls_name, meth = probe.attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__.get(meth)
        if raw is None:
            if probe.optional:
                print(f"perfbench: {probe.module}.{probe.attr} is gone; "
                      f"{probe.name} reads 0", file=sys.stderr)
                return []
            raise AttributeError(f"{probe.module}.{probe.attr} not found")
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, probe, raw.__func__))
        else:
            wrapped = _wrap(tracer, probe, raw)
        setattr(cls, meth, wrapped)
        return [(cls, meth, raw)]
    original = getattr(module, probe.attr)
    wrapped = _wrap(tracer, probe, original)
    replaced = []
    for name, mod in list(sys.modules.items()):
        if name != "tsdfmap" and not name.startswith("tsdfmap."):
            continue
        if getattr(mod, probe.attr, None) is original:
            setattr(mod, probe.attr, wrapped)
            replaced.append((mod, probe.attr, original))
    return replaced


@contextlib.contextmanager
def installed(tracer, probes=PROBES):
    """Wrap every probe for the duration of the block, then restore."""
    patches = []
    try:
        for probe in probes:
            patches.extend(_patch(tracer, probe))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(tracer):
    """Per-layer metrics from the recorded spans and counts.

    For each probe: `<name>.ms` (inclusive time, summed over calls) and
    `<name>.self_ms` (minus the time its child spans cover). Times are
    milliseconds over everything recorded.
    """
    spans = tracer.spans
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    incl = defaultdict(float)
    own = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        incl[name] += 1e3 * (end - start)
        own[name] += 1e3 * selfs[i]
        if name == "hashmap.insert":
            incl[f"hashmap.insert.{tracer.tags.get(i, 'other')}"] += 1e3 * (end - start)
    c = tracer.counts
    out = {}
    for probe in PROBES:
        out[f"{probe.name}.ms"] = (incl[probe.name], "ms")
        out[f"{probe.name}.self_ms"] = (own[probe.name], "ms")
    for ctx in ("allocate", "fisher", "rebuild"):
        out[f"hashmap.insert.{ctx}.ms"] = (incl[f"hashmap.insert.{ctx}"], "ms")
    out["trace.count.ms"] = (incl[COUNT_SPAN], "ms")
    out.update({
        "sampler.points": (c["sampler.points"], "count"),
        "sampler.samples": (c["sampler.samples"], "count"),
        "grid.allocate.new_vertices": (c["grid.allocate.new_vertices"], "count"),
        "grid.interpolate.points": (c["grid.interpolate.points"], "count"),
        "hashmap.insert.keys": (c["hashmap.insert.keys"], "count"),
        "hashmap.insert.unique_ratio": (
            _ratio(c["hashmap.insert.distinct"], c["hashmap.insert.keys"]), "ratio"),
        "hashmap.insert.new_ratio": (
            _ratio(c["hashmap.insert.new"], c["hashmap.insert.keys"]), "ratio"),
        "hashmap.grow.count": (c["hashmap.grow.count"], "count"),
        "hashmap.lookup.keys": (c["hashmap.lookup.keys"], "count"),
        "hashmap.lookup.hit_ratio": (
            _ratio(c["hashmap.lookup.hits"], c["hashmap.lookup.keys"]), "ratio"),
        "pool.evicted_window": (c["pool.evicted_window"], "count"),
        "pool.evicted_capacity": (c["pool.evicted_capacity"], "count"),
        "pool.bytes_copied": (c["pool.bytes_copied"], "B"),
        "uncertainty.uncertain_voxels": (c["uncertainty.uncertain_voxels"], "count"),
        "uncertainty.batch_uncertain_frac": (
            _ratio(c["uncertainty.batch_uncertain_rows"], c["uncertainty.batch_rows"]),
            "ratio"),
        "decoder.rows": (c["decoder.rows"], "count"),
        "decoder.flops": (c["decoder.flops"], "flop"),
        "adam.rows": (c["adam.rows"], "count"),
        "kernels.scatter_add_rows.rows": (c["kernels.scatter_add_rows.rows"], "count"),
        "mesher.nodes": (c["mesher.nodes"], "count"),
        "mesher.valid_frac": (_ratio(c["mesher.valid_nodes"], c["mesher.nodes"]), "ratio"),
        "mesher.triangles": (c["mesher.triangles"], "count"),
        "metrics.points": (c["metrics.points"], "count"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "B"),
    })
    return out


def frame_breakdown(tracer):
    """Self time by layer under all trainer.process_frame spans.

    Returns (total_ms, {name: self_ms}); the values add up to total_ms,
    and the entry for trainer.process_frame itself is the residual that
    no layer span covers.
    """
    spans = tracer.spans
    triples = [(s[1], s[2], s[3]) for s in spans]
    selfs = stats.self_times(triples)
    total = 0.0
    parts = defaultdict(float)
    for root, span in enumerate(spans):
        if span[0] != "trainer.process_frame":
            continue
        total += 1e3 * (span[2] - span[1])
        for i in stats.subtree(triples, root):
            parts[spans[i][0]] += 1e3 * selfs[i]
    return total, dict(parts)
