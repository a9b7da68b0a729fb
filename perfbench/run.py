#!/usr/bin/env python3
"""tsdfmap benchmark: online-mapping latency, read-path time and map quality.

Run from the repository root:

    python3 perfbench/run.py --workload desk-orbit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

--workload  desk-orbit, street-drive, mesh-query, or all (one process)
--seed      makes the workload's scans; the same seed gives the same inputs
--seconds   time budget for timed passes: passes repeat while the next one
            is expected to fit, and at least one runs
--trace 0   end-to-end metrics, tracing off
--trace 1   per-layer metrics: one untraced and one traced pass, spans
            written to perfbench/out/

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those BENCHMARK.json declares. End-to-end times are wall times scaled to
a nominal host speed by gauge.py, which cancels the shared host's drift.
Lines before it show every metric with its unit, then a `detail` JSON
line with provenance, raw wall times, the tail percentile, loss-trace
hash and the checks. README.md in this directory explains each workload
and metric.
"""

import os

# One process, no worker threads: the BLAS pool is pinned before numpy
# loads, and recorded in the provenance block.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_program():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    if not (SRC / "tsdfmap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tsdfmap sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tsdfmap

    if Path(tsdfmap.__file__).resolve().parent != SRC / "tsdfmap":
        sys.exit(f"perfbench: imported tsdfmap from {tsdfmap.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gauge  # noqa: E402
import kernel_shapes  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tsdfmap import kernels  # noqa: E402


def declared():
    """BENCHMARK.json's metrics as {mode: {name: unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_commit():
    """HEAD of the checkout's git repository, read from .git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of every .py file under src/, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "kernel_lane": "numba" if kernels.JIT_ENABLED else "numpy",
        "jit_enabled": kernels.JIT_ENABLED,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def same_everywhere(values, what, bench):
    if len(set(values)) > 1:
        bench.complain(f"{what} differs between passes")


def frame_stats(sequences, field):
    """(position medians in ms, frames per second) of one frame-time field."""
    frame_ms = [1e3 * t for t in stats.position_medians(getattr(s, field) for s in sequences)]
    fps = stats.median(len(getattr(s, field)) / sum(getattr(s, field))
                       for s in sequences if getattr(s, field))
    return frame_ms, fps


def end_to_end(wl, seed, seconds, bench, detail):
    setup = defaultdict(list)
    seqs = []
    for _ in range(wl.setups):
        inputs = None  # let the previous set-up's inputs go first
        inputs = bench.time(setup, "setup_s", wl.setup, seed, bench)
        seqs.append(inputs.seq)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(inputs, bench))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break

    done = [p for p in passes if p.quality is not None]
    # mesh-query maps its frames in set-up, the other workloads in each pass
    sequences = [s for s in seqs if s] + [p.seq for p in passes if p.seq]
    if not done or not any(s.frame_s for s in sequences):
        raise RuntimeError("no pass or frame completed")
    frame_ms, fps = frame_stats(sequences, "frame_s")
    frame_wall_ms, fps_wall = frame_stats(sequences, "frame_wall_s")
    tail_ms, tail_pct, tail_n = stats.tail(frame_ms)
    quality = done[0].quality
    for p in done:
        if (p.quality.chamfer_l1_cm > wl.max_chamfer_cm or p.quality.f1_pct < wl.min_f1_pct):
            bench.complain(f"quality {p.quality.chamfer_l1_cm:.3f} cm, "
                           f"{p.quality.f1_pct:.2f}% outside the bounds "
                           f"{wl.max_chamfer_cm} cm / {wl.min_f1_pct}%")
    same_everywhere([s.loss_sha256() for s in sequences], "loss trace", bench)
    same_everywhere([p.mesh_sha256 for p in done], "mesh", bench)
    same_everywhere([p.quality.chamfer_l1_cm for p in done], "chamfer", bench)

    attempted = sum(s.attempted for s in sequences) + sum(p.attempted for p in passes)
    failed = sum(s.failed for s in sequences) + sum(p.failed for p in passes)
    read = ("mesh_s", "eval_s", "ckpt_load_s")
    detail.update({
        "passes": len(passes),
        "frames_per_sequence": len(frame_ms),
        "frame_ms_tail_percentile": tail_pct,
        "frame_ms_tail_samples": tail_n,
        "failed_pct": 100.0 * failed / attempted,
        "loss_trace_sha256": sequences[0].loss_sha256(),
        "host_speed": gauge.NOMINAL_S / stats.median(bench.gauge.references),
        "wall": {
            "setup_s": stats.median(w for w, _ in setup["setup_s"]),
            "frames_per_s": fps_wall,
            "frame_ms_p50": stats.median(frame_wall_ms),
            "frame_ms_tail": stats.tail(frame_wall_ms)[0],
            **{name: stats.median(p.wall(name) for p in done) for name in read},
        },
        "stage_ms_per_sequence": {k: stats.median(s.stage_ms[k] for s in sequences)
                                  for k in sequences[0].stage_ms},
        "pass_s": [p.wall_s for p in passes],
        "pool_rows": done[-1].pool_rows,
        "grid_vertices": done[-1].grid_vertices,
        "quality": quality.to_dict(),
    })
    metrics = {
        "setup_s": (stats.median(s for _, s in setup["setup_s"]), "s"),
        "frames_per_s": (fps, "1/s"),
        "frame_ms_p50": (stats.median(frame_ms), "ms"),
        "frame_ms_tail": (tail_ms, "ms"),
        **{name: (stats.median(p.scaled(name) for p in done), "s") for name in read},
        "chamfer_l1_cm": (quality.chamfer_l1_cm, "cm"),
        "f1_pct": (quality.f1_pct, "%"),
        "map_mb": (done[-1].map_bytes / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, attempted, failed


def per_layer(wl, seed, bench, detail):
    """An untraced set-up and pass, then a traced set-up and pass.

    Layer metrics come from the trace, in wall milliseconds; the frames
    (mapped in the pass, or in mesh-query's set-up) give the tracing
    overhead on frames_per_s.
    """
    metrics = kernel_shapes.measure(seed)
    inputs = wl.setup(seed, bench)
    plain = wl.run_pass(inputs, bench)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_inputs = wl.setup(seed, bench, tracer)
        traced = wl.run_pass(traced_inputs, bench, tracer)
    plain_seq = plain.seq or inputs.seq
    traced_seq = traced.seq or traced_inputs.seq

    metrics.update(tracing.span_metrics(tracer))
    for stage in ("sample", "allocate", "pool", "partition", "optimize", "fisher"):
        metrics[f"trainer.stage.{stage}.ms"] = (traced_seq.stage_ms[stage], "ms")
    metrics["pool.rows"] = (traced.pool_rows, "count")
    metrics["hashmap.load_factor"] = (traced.load_factor, "ratio")
    overhead = frame_stats([traced_seq], "frame_s")[1] - frame_stats([plain_seq], "frame_s")[1]
    metrics["trace.overhead_frames_per_s"] = (overhead, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s, "%")

    if plain_seq.loss_sha256() != traced_seq.loss_sha256():
        bench.complain("tracing changed the loss trace")
    if plain.mesh_sha256 != traced.mesh_sha256:
        bench.complain("tracing changed the mesh")
    total_ms, parts = tracing.frame_breakdown(tracer)
    if abs(sum(parts.values()) - total_ms) > 1e-6 * max(total_ms, 1.0):
        bench.complain("self times under process_frame do not add up")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"spans": tracer.spans, "tags": tracer.tags}))
    detail.update({
        "loss_trace_sha256": plain_seq.loss_sha256(),
        "traced_loss_trace_sha256": traced_seq.loss_sha256(),
        "process_frame_ms": total_ms,
        "process_frame_self_ms": dict(sorted(parts.items(), key=lambda kv: -kv[1])),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    })
    attempted = plain.attempted + traced.attempted + plain_seq.attempted + traced_seq.attempted
    failed = plain.failed + traced.failed + plain_seq.failed + traced_seq.failed
    return metrics, attempted, failed


def run_workload(name, seed, seconds, trace, spec):
    wl = workloads.WORKLOADS[name]
    bench = workloads.Bench()
    detail = {"provenance": provenance(name, seed, trace)}
    if trace:
        metrics, attempted, failed = per_layer(wl, seed, bench, detail)
    else:
        metrics, attempted, failed = end_to_end(wl, seed, seconds, bench, detail)
    computed = {k: unit for k, (_, unit) in metrics.items()}
    if computed != spec[trace]:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(computed.items()) ^ set(spec[trace].items()))}")
    detail["checks_failed"] = bench.problems
    print(f"{name}  seed {seed}  trace {trace}  lane {detail['provenance']['kernel_lane']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")
    if not trace:
        print(f"  {'failed_pct':<40} {detail['failed_pct']:>16.6g} % "
              f"({failed} of {attempted} operations)")
    print("detail " + json.dumps(detail))
    return {
        "correct": not bench.problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    spec = declared()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec["workloads"] + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sorted(spec["workloads"]) != sorted(workloads.WORKLOADS):
        raise RuntimeError("BENCHMARK.json and workloads.py name different workloads")
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
