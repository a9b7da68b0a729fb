#!/usr/bin/env python3
"""Print SHA-256 digests of the maps a checkout builds on perfbench's inputs.

Run from anywhere, naming a checkout (its root, holding src/ and
perfbench/) and the input seed:

    python3 tools/map_digests.py CHECKOUT --seed 1 [--frames N] [--workload desk-orbit]

For each workload, the checkout's own perfbench set-up makes the scans
and the TrainConfig, and the checkout's own `workloads.map_sequence`
maps the first N scans (all of them by default) frame by frame. Then
it prints one line per digest:

    loss_trace   the per-iteration losses, as `Sequence.loss_sha256` computes it
    fisher       the Fisher rows, then the Fisher field's vertex keys
    level<i>     level i's features, Adam first and second moments, and keys
    pool         every replay pool column, in `pool._COLUMNS` order
    decoder      each decoder parameter and its Adam first and second moments,
                 in `PARAM_NAMES` order, then the Adam step and frame counters
    mesh         `extract_map_mesh` at perfbench's spacing: vertices, then faces
    eval         that mesh scored against the workload's ground truth with
                 perfbench's `EVAL`: the six `EvalResult` floats, in field order

Two checkouts that train bitwise alike print the same lines, so running
it on both sides checks a bitwise claim on the loss, the Fisher sums, the
grid and decoder arrays the checkpoint stores, the replay pool, the mesh
and its scores, where
perfbench's detail line carries only the loss trace.
"""

import os

# One BLAS thread, as perfbench/run.py pins it, before numpy loads. A
# threaded BLAS splits each decoder call into per-thread row blocks, which
# can move node values in the last bits, so unpinned the mesh digest could
# follow the host's core count. Unpinned OpenBLAS
# workers also double a mapping pass's CPU time for the same wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def map_digests(workloads, mesher, pool_columns, param_names, name, seed, frames):
    """[(label, hex digest)] of one workload's map after `frames` scans (None: all)."""
    bench = workloads.Bench()
    inputs = workloads.WORKLOADS[name].setup(seed, bench)
    mapper, seq = workloads.map_sequence(inputs.cfg, inputs.scans[:frames], bench)
    if bench.problems or seq.failed:
        raise RuntimeError(f"{name}: mapping failed its checks: {bench.problems}")
    out = [("loss_trace", seq.loss_sha256()),
           ("fisher", sha256(mapper.perturb.fisher, mapper.perturb.vertices.keys))]
    for i, lvl in enumerate(mapper.grid.levels):
        out.append((f"level{i}", sha256(lvl.features, lvl.adam_m, lvl.adam_v,
                                        lvl.vertices.keys)))
    out.append(("pool", sha256(*(getattr(mapper.pool, col) for col, _, _ in pool_columns))))
    dec = mapper.decoder
    out.append(("decoder", sha256(*(store[p] for p in param_names
                                    for store in (dec.params, dec.adam_m, dec.adam_v)),
                                  np.int64(mapper.adam_steps), np.int64(mapper.frames_done))))
    mesh = mesher.extract_map_mesh(mapper.field, spacing=workloads.MESH_SPACING)
    out.append(("mesh", sha256(mesh.vertices, mesh.faces)))
    quality = workloads.metrics.evaluate(mesh, inputs.gt, workloads.EVAL)
    out.append(("eval", sha256(np.array(dataclasses.astuple(quality)))))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to map with")
    ap.add_argument("--seed", type=int, required=True, help="perfbench's input seed")
    ap.add_argument("--frames", type=int, default=None,
                    help="map only the first N scans of each workload")
    ap.add_argument("--workload", default="all", help="one workload name, or all")
    args = ap.parse_args(argv)
    if args.frames is not None and args.frames < 1:
        ap.error(f"--frames must be at least 1, got {args.frames}")
    root = args.checkout.resolve()
    # the checkout's program and benchmark, ahead of any other copy on the path
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from tsdfmap import mesher
    from tsdfmap.decoder import PARAM_NAMES
    from tsdfmap.pool import _COLUMNS

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    for name in names:
        frames = "all" if args.frames is None else args.frames
        for label, digest in map_digests(workloads, mesher, _COLUMNS, PARAM_NAMES, name,
                                          args.seed, args.frames):
            print(f"{name:<13} seed {args.seed}  frames {frames:<4} {label:<11} {digest}",
                  flush=True)


if __name__ == "__main__":
    main()
