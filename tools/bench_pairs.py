#!/usr/bin/env python3
"""Compare two checkouts on perfbench, in alternating pairs of runs.

Run from anywhere, naming the two checkouts and run.py's arguments:

    python3 tools/bench_pairs.py BASE CHANGE --pairs 10 -- \
        --workload desk-orbit --seed 1 --seconds 25 --trace 0

Each pair runs `python3 perfbench/run.py ARGS` once in each checkout's
root. Even pairs run BASE first and odd pairs CHANGE first, so a drift
of the host's speed favours neither side. Then, per workload and metric,
it prints each side's quartiles (q1, median, q3), the change of the
median, the pairs the change won, and whether the gap between medians,
in the metric's better direction, exceeds the base's interquartile
range. Metric directions come from this checkout's BENCHMARK.json.
Last, per workload, it prints whether every run on both sides reported
the same loss-trace SHA-256, so a claim of bitwise-identical training is
checked by the same runs that time it. Where the digests differ, it also
prints each side's median chamfer and F1 to 6 decimals and the move as a
share of the metric's bound, which the 4-digit table cannot resolve.
It also prints, per workload, whether every run on both sides reported
the same evaluation result (the detail line's `quality` block, every
field compared exactly) or which fields differ, so a claim of
bitwise-identical evaluation is checked the same way.

run.py scales its end-to-end times by a host-speed gauge. That scale can
swing between workloads of one run, so after the table it also prints,
per workload, each side's median of the raw wall times in the detail
line's `wall` block and the change of that median, and the same for the
detail line's `host_speed`, the gauge reading itself: a gain that the
raw wall times show but the scaled table does not is a gauge reading
that moved. The same follows for the detail line's
`stage_ms_per_sequence` (ms per mapped sequence in each frame stage:
sample, allocate, pool, partition, optimize, fisher), so a change can
show which stages moved and which stayed flat. Raw stage times carry
the host's drift, so it also prints each stage's share of its run's
summed stage time, as a median per side: a ratio within one run cancels
a drift that slows every stage alike.

If a run exits non-zero, it prints that run's pair, side, exit code and
the tail of its stderr, then the summary of the pairs already finished,
and exits 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import stats  # noqa: E402


def parse_run(stdout):
    """{workload: result} from one run.py output.

    Each workload prints a `detail {...}` line whose provenance block
    names it, then its one-line JSON result. The detail line's
    `loss_trace_sha256` (None if absent), `wall` block ({} if absent),
    `host_speed` (as the `gauge` block {"host_speed": ...}, {} if absent),
    `stage_ms_per_sequence` (as `stage_ms`, {} if absent) and `quality`
    block (None if absent) are kept in the result, with each stage's
    percentage of the summed stage times as `stage_share`.
    """
    results, detail = {}, None
    for line in stdout.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif line.startswith("{") and detail is not None:
            result = json.loads(line)
            result["loss_trace_sha256"] = detail.get("loss_trace_sha256")
            result["wall"] = detail.get("wall", {})
            speed = detail.get("host_speed")
            result["gauge"] = {} if speed is None else {"host_speed": speed}
            result["stage_ms"] = detail.get("stage_ms_per_sequence", {})
            total = sum(result["stage_ms"].values())
            result["stage_share"] = {k: 100.0 * v / total
                                     for k, v in result["stage_ms"].items()} if total else {}
            result["quality"] = detail.get("quality")
            results[detail["provenance"]["workload"]] = result
            detail = None
    return results


def quartiles(values):
    """(q1, median, q3); q1 and q3 are the medians of the lower and upper half."""
    xs = sorted(values)
    half = len(xs) // 2
    return stats.median(xs[:half] or xs), stats.median(xs), stats.median(xs[-half:] or xs)


def summarize(pairs, declared):
    """One row per workload and declared metric that both sides report.

    pairs: [(base results, change results)], each as `parse_run` gives it.
    declared: BENCHMARK.json metric entries (name, unit, better).
    """
    rows = []
    for workload in pairs[0][0]:
        for spec in declared:
            name = spec["name"]
            if any(name not in side.get(workload, {}).get("metrics", {})
                   for pair in pairs for side in pair):
                continue
            sign = 1.0 if spec["better"] == "higher" else -1.0
            base = [b[workload]["metrics"][name]["value"] for b, _ in pairs]
            change = [c[workload]["metrics"][name]["value"] for _, c in pairs]
            bq, cq = quartiles(base), quartiles(change)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "base": bq,
                "change": cq,
                "delta_pct": 100.0 * (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan"),
                "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                "pairs": len(pairs),
                "clear": sign * (cq[1] - bq[1]) > bq[2] - bq[0],
            })
    return rows


def failures(pairs):
    """{workload: (base failed, change failed, attempted, incorrect runs)}."""
    out = {}
    for workload in pairs[0][0]:
        sides = [[pair[k][workload] for pair in pairs] for k in (0, 1)]
        out[workload] = (sum(r["failed"] for r in sides[0]),
                         sum(r["failed"] for r in sides[1]),
                         sum(r["attempted"] for s in sides for r in s),
                         sum(not r["correct"] for s in sides for r in s))
    return out


def digests(pairs):
    """{workload: (distinct base digests, distinct change digests)} of the loss trace."""
    return {workload: tuple(tuple(sorted({pair[k][workload]["loss_trace_sha256"]
                                          for pair in pairs}, key=str)) for k in (0, 1))
            for workload in pairs[0][0]}


def quality_differences(pairs):
    """{workload: (runs, fields not equal in every run)} of the `quality` block.

    A field that some run lacks counts as differing. Workloads where no
    run reported a quality block are left out.
    """
    out = {}
    for workload in pairs[0][0]:
        blocks = [pair[k][workload]["quality"] for pair in pairs for k in (0, 1)]
        if all(b is None for b in blocks):
            continue
        blocks = [b or {} for b in blocks]
        names = sorted(set().union(*blocks))
        out[workload] = (len(blocks), [n for n in names
                                       if any(b.get(n) != blocks[0].get(n) for b in blocks)])
    return out


def block_medians(pairs, block):
    """[(workload, name, base median, change median, % change)] of a result's block.

    block: "wall" (raw wall times), "gauge" (the host-speed reading that
    scales the end-to-end times), "stage_ms" (ms per sequence in each
    frame stage) or "stage_share" (each stage's % of its run's summed
    stage time). One row per name in the block that every run of both
    sides reports.
    """
    rows = []
    for workload in pairs[0][0]:
        for name in pairs[0][0][workload][block]:
            if any(name not in side[workload][block] for pair in pairs for side in pair):
                continue
            base, change = (stats.median(pair[k][workload][block][name] for pair in pairs)
                            for k in (0, 1))
            pct = 100.0 * (change - base) / base if base else float("nan")
            rows.append((workload, name, base, change, pct))
    return rows


QUALITY = ("chamfer_l1_cm", "f1_pct")


def quality_moves(pairs, declared, workload):
    """[(metric, unit, bound, base median, change median, share)] for chamfer and F1.

    share is the move of the median in the metric's worse direction, as
    a fraction of its relative bound: 1.0 worsens it by the whole bound.
    """
    rows = []
    for spec in declared:
        name = spec["name"]
        if name not in QUALITY or any(name not in side[workload]["metrics"]
                                      for pair in pairs for side in pair):
            continue
        base, change = (stats.median(pair[k][workload]["metrics"][name]["value"]
                                     for pair in pairs) for k in (0, 1))
        worse = change - base if spec["better"] == "lower" else base - change
        share = worse / abs(base) / spec["bound"] if base else float("nan")
        rows.append((name, spec["unit"], spec["bound"], base, change, share))
    return rows


class RunFailed(Exception):
    """A perfbench run exited non-zero; keeps its exit code and stderr."""

    def __init__(self, returncode, stderr):
        super().__init__(f"exit code {returncode}")
        self.returncode = returncode
        self.stderr = stderr


def run(checkout, args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode:
        raise RunFailed(done.returncode, done.stderr)
    return parse_run(done.stdout)


def report(pairs, spec):
    """Print the per-metric table, failures and digests of the finished pairs."""
    print(f"{'workload':<13} {'metric':<16} {'base q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'median':>8} {'wins':>6}  gap > base IQR")
    for r in summarize(pairs, spec["end_to_end"] + spec["per_layer"]):
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{r['workload']:<13} {r['metric']:<16} {fmt(r['base']):>30} "
              f"{fmt(r['change']):>30} {r['delta_pct']:>+7.1f}% "
              f"{r['wins']:>3}/{r['pairs']:<2}  {'yes' if r['clear'] else 'no'}")
    for heading, block in (("wall time", "wall"), ("host speed", "gauge"),
                           ("stage ms/seq", "stage_ms"), ("stage share %", "stage_share")):
        rows = block_medians(pairs, block)
        if rows:
            print(f"{'workload':<13} {heading:<16} {'base median':>12} {'change median':>14} "
                  f"{'median':>8}")
        for workload, name, b, c, pct in rows:
            print(f"{workload:<13} {name:<16} {b:>12.4g} {c:>14.4g} {pct:>+7.1f}%")
    for workload, (fb, fc, attempted, incorrect) in failures(pairs).items():
        print(f"{workload}: failed base {fb}, change {fc} of {attempted} operations; "
              f"{incorrect} runs with a failed check")
    short = lambda ds: ", ".join(str(d)[:16] for d in ds)  # noqa: E731
    for workload, (base, change) in digests(pairs).items():
        if base == change and len(base) == 1 and base[0] is not None:
            print(f"{workload}: same loss-trace SHA-256 {short(base)} in all "
                  f"{2 * len(pairs)} runs")
        else:
            print(f"{workload}: loss-trace SHA-256 DIFFERS: base {short(base)}; "
                  f"change {short(change)}")
            for name, unit, bound, b, c, share in quality_moves(pairs, spec["end_to_end"],
                                                                workload):
                print(f"{workload}: {name} median base {b:.6f}, change {c:.6f} {unit} "
                      f"({c - b:+.6f}, {100 * share:+.4f}% of its {100 * bound:g}% bound; "
                      f"+ is worse)")
    for workload, (runs, differ) in quality_differences(pairs).items():
        if differ:
            print(f"{workload}: quality DIFFERS in {', '.join(differ)}")
        else:
            print(f"{workload}: same quality in all {runs} runs")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    run_args = argv[cut + 1:]  # for perfbench/run.py
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            try:
                got[side] = run(getattr(args, side), run_args)
            except RunFailed as e:
                tail = e.stderr.splitlines()[-20:]
                print(f"pair {i + 1}/{args.pairs}: the {side} run failed with exit code "
                      f"{e.returncode}; last {len(tail)} lines of its stderr:", file=sys.stderr)
                print("\n".join(tail), file=sys.stderr, flush=True)
                if pairs:
                    print(f"summary of the {len(pairs)} finished pairs:", flush=True)
                    report(pairs, spec)
                sys.exit(1)
        pairs.append((got["base"], got["change"]))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    report(pairs, spec)


if __name__ == "__main__":
    main()
