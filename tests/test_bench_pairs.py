"""Arithmetic of tools/bench_pairs.py on canned run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "frames_per_s", "unit": "1/s", "better": "higher"},
    {"name": "map_mb", "unit": "MB", "better": "lower"},
    {"name": "mesh_s", "unit": "s", "better": "lower"},  # reported by no run below
]


def run_output(fps, mb, failed=0, correct=True, digest="ab" * 32):
    """Two workloads, as `run.py --workload all` prints them; no digest if None."""
    lines = []
    for workload in ("desk-orbit", "street-drive"):
        detail = {"provenance": {"workload": workload}}
        if digest is not None:
            detail["loss_trace_sha256"] = digest
        lines += [f"{workload}  seed 1  trace 0  lane numpy",
                  f"  frames_per_s {fps}",
                  "detail " + json.dumps(detail),
                  json.dumps({"correct": correct, "attempted": 12, "failed": failed,
                              "metrics": {"frames_per_s": {"value": fps, "unit": "1/s"},
                                          "map_mb": {"value": mb, "unit": "MB"}}})]
    return "\n".join(lines) + "\n"


def test_parse_run_keys_results_by_the_detail_line_workload():
    got = bench_pairs.parse_run(run_output(1.5, 37.7, digest="cd" * 32))
    assert list(got) == ["desk-orbit", "street-drive"]
    assert got["street-drive"]["metrics"]["map_mb"]["value"] == 37.7
    assert got["street-drive"]["loss_trace_sha256"] == "cd" * 32


def test_parse_run_without_a_digest_keeps_none():
    got = bench_pairs.parse_run(run_output(1.5, 37.7, digest=None))
    assert got["desk-orbit"]["loss_trace_sha256"] is None


def test_quartiles_are_medians_of_the_halves():
    assert bench_pairs.quartiles([4, 1, 3, 2]) == (1.5, 2.5, 3.5)
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (1.5, 3, 4.5)
    assert bench_pairs.quartiles([7]) == (7, 7, 7)


def test_summarize_counts_wins_in_the_better_direction():
    base_fps = [1.20, 1.25, 1.30, 1.28, 1.22, 1.27]
    change_fps = [1.45, 1.50, 1.20, 1.48, 1.46, 1.49]  # loses pair 3
    pairs = [(bench_pairs.parse_run(run_output(b, 37.7)),
              bench_pairs.parse_run(run_output(c, 37.7 if i else 37.6, failed=i == 5)))
             for i, (b, c) in enumerate(zip(base_fps, change_fps))]
    rows = bench_pairs.summarize(pairs, DECLARED)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("desk-orbit", "frames_per_s"), ("desk-orbit", "map_mb"),
        ("street-drive", "frames_per_s"), ("street-drive", "map_mb")]
    fps, mb = rows[0], rows[1]
    assert fps["base"] == (1.22, 1.26, 1.28)
    assert fps["change"] == (1.45, 1.47, 1.49)
    assert fps["delta_pct"] == pytest.approx(100 * (1.47 - 1.26) / 1.26)
    assert (fps["wins"], fps["pairs"], fps["clear"]) == (5, 6, True)
    # lower is better: only pair 1 is smaller, and equal medians are no gain
    assert (mb["wins"], mb["clear"], mb["delta_pct"]) == (1, False, 0.0)
    assert bench_pairs.failures(pairs)["desk-orbit"] == (0, 1, 144, 0)


def test_summarize_flags_a_gain_inside_the_base_spread():
    pairs = [(bench_pairs.parse_run(run_output(b, 1.0)),
              bench_pairs.parse_run(run_output(c, 1.0)))
             for b, c in [(1.0, 1.1), (2.0, 2.1), (3.0, 3.1), (4.0, 4.1)]]
    fps = bench_pairs.summarize(pairs, DECLARED)[0]
    assert fps["wins"] == 4 and not fps["clear"]


def test_main_parses_run_arguments_after_the_separator(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, args):
        calls.append((checkout, args))
        return bench_pairs.parse_run(run_output(2.0 if checkout == "new" else 1.0, 5.0))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "2", "--", "--workload", "all", "--seed", "1"])
    assert [c for c, _ in calls] == ["old", "new", "new", "old"]
    assert all(a == ["--workload", "all", "--seed", "1"] for _, a in calls)
    out = capsys.readouterr().out
    assert "desk-orbit" in out and "2/2" in out


def test_digests_same_on_both_sides(monkeypatch, capsys):
    pairs = [(bench_pairs.parse_run(run_output(1.0, 5.0)),
              bench_pairs.parse_run(run_output(1.1, 5.0))) for _ in range(3)]
    assert bench_pairs.digests(pairs)["desk-orbit"] == (("ab" * 32,), ("ab" * 32,))
    monkeypatch.setattr(bench_pairs, "run",
                        lambda checkout, args: bench_pairs.parse_run(run_output(1.0, 5.0)))
    bench_pairs.main(["old", "new", "--pairs", "2"])
    out = capsys.readouterr().out
    assert f"desk-orbit: same loss-trace SHA-256 {'ab' * 8} in all 4 runs" in out
    assert "DIFFERS" not in out


def test_digests_differ_between_sides_or_within_one(monkeypatch, capsys):
    base = [bench_pairs.parse_run(run_output(1.0, 5.0, digest=d)) for d in ("aa", "aa")]
    change = [bench_pairs.parse_run(run_output(1.0, 5.0, digest=d)) for d in ("bb", "aa")]
    assert bench_pairs.digests(list(zip(base, change)))["street-drive"] == (("aa",),
                                                                            ("aa", "bb"))
    flaky = [bench_pairs.parse_run(run_output(1.0, 5.0, digest=d)) for d in ("aa", "cc")]
    assert bench_pairs.digests(list(zip(flaky, flaky)))["desk-orbit"] == (("aa", "cc"),
                                                                          ("aa", "cc"))

    def fake_run(checkout, args):
        return bench_pairs.parse_run(run_output(1.0, 5.0, digest="bb" if checkout == "new"
                                                else "aa"))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "2"])
    out = capsys.readouterr().out
    assert "desk-orbit: loss-trace SHA-256 DIFFERS: base aa; change bb" in out
    assert "same loss-trace" not in out
