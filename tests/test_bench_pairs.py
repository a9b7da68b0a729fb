"""Arithmetic of tools/bench_pairs.py on canned run.py output."""

import importlib.util
import json
import math
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


def run_output(fps, mb, failed=0, correct=True, digest="ab" * 32, quality=None, wall=None,
               block=None, stages=None, host_speed=None):
    """Two workloads, as `run.py --workload all` prints them; no digest if None.

    quality: (chamfer_l1_cm, f1_pct) to report as well, or None.
    wall: the detail line's `wall` block of raw wall times, or None for none.
    block: the detail line's `quality` block, or None for none.
    stages: the detail line's `stage_ms_per_sequence`, or None for none.
    host_speed: the detail line's gauge reading, or None for none.
    """
    lines = []
    for workload in ("desk-orbit", "street-drive"):
        detail = {"provenance": {"workload": workload}}
        if digest is not None:
            detail["loss_trace_sha256"] = digest
        if wall is not None:
            detail["wall"] = wall
        if block is not None:
            detail["quality"] = block
        if stages is not None:
            detail["stage_ms_per_sequence"] = stages
        if host_speed is not None:
            detail["host_speed"] = host_speed
        metrics = {"frames_per_s": {"value": fps, "unit": "1/s"},
                   "map_mb": {"value": mb, "unit": "MB"}}
        if quality is not None:
            metrics["chamfer_l1_cm"] = {"value": quality[0], "unit": "cm"}
            metrics["f1_pct"] = {"value": quality[1], "unit": "%"}
        lines += [f"{workload}  seed 1  trace 0  lane numpy",
                  f"  frames_per_s {fps}",
                  "detail " + json.dumps(detail),
                  json.dumps({"correct": correct, "attempted": 12, "failed": failed,
                              "metrics": metrics})]
    return "\n".join(lines) + "\n"


def test_parse_run_keys_results_by_the_detail_line_workload():
    got = bench_pairs.parse_run(run_output(1.5, 37.7, digest="cd" * 32))
    assert list(got) == ["desk-orbit", "street-drive"]
    assert got["street-drive"]["metrics"]["map_mb"]["value"] == 37.7
    assert got["street-drive"]["loss_trace_sha256"] == "cd" * 32


def test_parse_run_without_a_digest_keeps_none():
    got = bench_pairs.parse_run(run_output(1.5, 37.7, digest=None))
    assert got["desk-orbit"]["loss_trace_sha256"] is None


def test_wall_medians_sit_beside_the_scaled_table(monkeypatch, capsys):
    assert bench_pairs.parse_run(run_output(1.5, 37.7))["desk-orbit"]["wall"] == {}
    walls = {"old": [{"frames_per_s": 1.0, "mesh_s": 2.0}, {"frames_per_s": 1.2, "mesh_s": 2.0}],
             "new": [{"frames_per_s": 1.3, "mesh_s": 1.5}, {"frames_per_s": 1.5}]}

    def fake_run(checkout, args):
        return bench_pairs.parse_run(run_output(1.0, 5.0, wall=walls[checkout].pop(0)))

    pairs = [(fake_run("old", []), fake_run("new", [])) for _ in range(2)]
    rows = bench_pairs.block_medians(pairs, "wall")
    # mesh_s is missing from one change run, so only frames_per_s is compared
    assert [r[:2] for r in rows] == [("desk-orbit", "frames_per_s"),
                                     ("street-drive", "frames_per_s")]
    assert rows[0][2:4] == (1.1, 1.4)
    assert rows[0][4] == pytest.approx(100 * 0.3 / 1.1)

    walls.update(old=[{"frames_per_s": 1.0}] * 2, new=[{"frames_per_s": 1.25}] * 2)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "1"])
    out = capsys.readouterr().out
    assert "wall time" in out
    assert "street-drive  frames_per_s                1           1.25   +25.0%" in out


def test_host_speed_medians_follow_the_wall_medians(monkeypatch, capsys):
    assert bench_pairs.parse_run(run_output(1.5, 37.7))["desk-orbit"]["gauge"] == {}
    got = bench_pairs.parse_run(run_output(1.5, 37.7, host_speed=0.75))
    assert got["street-drive"]["gauge"] == {"host_speed": 0.75}
    # the change ran faster in wall time, but on a host the gauge read as faster too
    runs = {"old": [(1.0, 0.6), (1.0, 0.62), (1.1, 0.58)],
            "new": [(1.25, 0.76), (1.2, 0.75), (1.3, 0.8)]}

    def fake_run(checkout, args):
        fps, speed = runs[checkout].pop(0)
        return bench_pairs.parse_run(run_output(1.0, 5.0, wall={"frames_per_s": fps},
                                                host_speed=speed))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "3"])
    out = capsys.readouterr().out.splitlines()
    at = out.index("workload      host speed        base median  change median   median")
    assert out[at - 1] == "street-drive  frames_per_s                1           1.25   +25.0%"
    assert out[at + 1] == "desk-orbit    host_speed                0.6           0.76   +26.7%"
    assert out[at + 2] == "street-drive  host_speed                0.6           0.76   +26.7%"


def test_stage_medians_follow_the_wall_medians(monkeypatch, capsys):
    assert bench_pairs.parse_run(run_output(1.5, 37.7))["desk-orbit"]["stage_ms"] == {}
    stages = {"old": [{"sample": 300.0, "pool": 100.0, "optimize": 900.0},
                      {"sample": 340.0, "pool": 120.0, "optimize": 1000.0},
                      {"sample": 320.0, "pool": 90.0, "optimize": 950.0}],
              "new": [{"sample": 200.0, "optimize": 910.0},
                      {"sample": 260.0, "pool": 50.0, "optimize": 940.0},
                      {"sample": 210.0, "pool": 60.0, "optimize": 960.0}]}

    def fake_run(checkout, args):
        return bench_pairs.parse_run(run_output(1.0, 5.0, stages=stages[checkout].pop(0)))

    pairs = [(fake_run("old", []), fake_run("new", [])) for _ in range(3)]
    rows = bench_pairs.block_medians(pairs, "stage_ms")
    # pool is missing from one change run, so only sample and optimize are compared
    assert [r[:2] for r in rows] == [("desk-orbit", "sample"), ("desk-orbit", "optimize"),
                                     ("street-drive", "sample"), ("street-drive", "optimize")]
    assert rows[0][2:] == (320.0, 210.0, pytest.approx(100 * -110 / 320))
    assert rows[1][2:] == (950.0, 940.0, pytest.approx(100 * -10 / 950))

    stages.update(old=[{"sample": 300.0, "fisher": 800.0}] * 2,
                  new=[{"sample": 240.0, "fisher": 800.0}] * 2)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "1"])
    out = capsys.readouterr().out
    assert "workload      stage ms/seq      base median  change median   median" in out
    assert "street-drive  sample                    300            240   -20.0%" in out
    assert "street-drive  fisher                    800            800    +0.0%" in out
    assert "wall time" not in out  # no run reported a wall block


def test_stage_shares_cancel_a_drift_that_slows_every_stage(monkeypatch, capsys):
    assert bench_pairs.parse_run(run_output(1.5, 37.7))["desk-orbit"]["stage_share"] == {}
    got = bench_pairs.parse_run(run_output(1.0, 5.0, stages={"sample": 100.0, "fisher": 300.0}))
    assert got["street-drive"]["stage_share"] == {"sample": 25.0, "fisher": 75.0}
    # the change runs on a host 20% slower in every stage, and fisher is 40 ms
    # cheaper in one run: raw medians move, the shares' medians do not
    stages = {"old": [{"sample": 100.0, "fisher": 300.0}] * 3,
              "new": [{"sample": 120.0, "fisher": 360.0}, {"sample": 120.0, "fisher": 320.0},
                      {"sample": 120.0, "fisher": 360.0}]}

    def fake_run(checkout, args):
        return bench_pairs.parse_run(run_output(1.0, 5.0, stages=stages[checkout].pop(0)))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "3"])
    out = capsys.readouterr().out
    assert "street-drive  fisher                    300            360   +20.0%" in out
    assert "workload      stage share %     base median  change median   median" in out
    assert "street-drive  sample                     25             25    +0.0%" in out
    assert "street-drive  fisher                     75             75    +0.0%" in out


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


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_rejected(monkeypatch, capsys, pairs):
    def fake_run(checkout, args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["old", "new", "--pairs", pairs])
    assert exc.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err


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


def test_quality_moves_print_at_full_precision_when_digests_differ(monkeypatch, capsys):
    declared = [{"name": "chamfer_l1_cm", "unit": "cm", "better": "lower", "bound": 0.06},
                {"name": "f1_pct", "unit": "%", "better": "higher", "bound": 0.02}]
    base = (8.603124, 87.654321)
    change = (8.603125, 87.6543)  # chamfer and F1 both a little worse

    def fake_run(checkout, args):
        new = checkout == "new"
        return bench_pairs.parse_run(run_output(1.0, 5.0, digest="bb" if new else "aa",
                                                quality=change if new else base))

    pairs = [(fake_run("old", []), fake_run("new", []))] * 3
    rows = bench_pairs.quality_moves(pairs, declared, "desk-orbit")
    assert [r[:5] for r in rows] == [("chamfer_l1_cm", "cm", 0.06, 8.603124, 8.603125),
                                     ("f1_pct", "%", 0.02, 87.654321, 87.6543)]
    assert rows[0][5] == pytest.approx(1e-6 / 8.603124 / 0.06)
    assert rows[1][5] == pytest.approx(2.1e-5 / 87.654321 / 0.02)

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "2"])
    out = capsys.readouterr().out
    assert ("desk-orbit: chamfer_l1_cm median base 8.603124, change 8.603125 cm "
            "(+0.000001, +0.0002% of its 6% bound; + is worse)") in out
    assert ("street-drive: f1_pct median base 87.654321, change 87.654300 % "
            "(-0.000021, +0.0012% of its 2% bound; + is worse)") in out

    monkeypatch.setattr(bench_pairs, "run", lambda checkout, args: bench_pairs.parse_run(
        run_output(1.0, 5.0, quality=base)))
    bench_pairs.main(["old", "new", "--pairs", "2"])
    assert "median base" not in capsys.readouterr().out


QUALITY_BLOCK = {"accuracy_cm": 4.084858133078742, "completeness_cm": 13.12151941662857,
                 "chamfer_l1_cm": 8.603188774853656, "precision_pct": 95.19300000000001,
                 "recall_pct": 81.2215, "f1_pct": 87.65399952384867}


def test_quality_blocks_are_compared_exactly_across_all_runs(monkeypatch, capsys):
    assert bench_pairs.parse_run(run_output(1.0, 5.0))["desk-orbit"]["quality"] is None
    same = lambda checkout, args: bench_pairs.parse_run(  # noqa: E731
        run_output(1.0, 5.0, block=QUALITY_BLOCK))
    pairs = [(same("old", []), same("new", []))] * 3
    assert bench_pairs.quality_differences(pairs) == {"desk-orbit": (6, []),
                                                      "street-drive": (6, [])}
    monkeypatch.setattr(bench_pairs, "run", same)
    bench_pairs.main(["old", "new", "--pairs", "2"])
    out = capsys.readouterr().out
    assert "desk-orbit: same quality in all 4 runs" in out
    assert "quality DIFFERS" not in out

    # one run's recall moves in the last bit, another run lacks accuracy_cm
    moved = dict(QUALITY_BLOCK, recall_pct=math.nextafter(81.2215, 100.0))
    short = {k: v for k, v in QUALITY_BLOCK.items() if k != "accuracy_cm"}
    blocks = {"old": [QUALITY_BLOCK, QUALITY_BLOCK], "new": [moved, short]}

    def fake_run(checkout, args):
        return bench_pairs.parse_run(run_output(1.0, 5.0, block=blocks[checkout].pop(0)))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    bench_pairs.main(["old", "new", "--pairs", "2"])
    out = capsys.readouterr().out
    assert "desk-orbit: quality DIFFERS in accuracy_cm, recall_pct" in out
    assert "same quality" not in out

    # no run reports a quality block: nothing to compare, nothing printed
    monkeypatch.setattr(bench_pairs, "run",
                        lambda checkout, args: bench_pairs.parse_run(run_output(1.0, 5.0)))
    bench_pairs.main(["old", "new", "--pairs", "1"])
    assert "quality" not in capsys.readouterr().out


def test_a_failed_run_keeps_the_finished_pairs(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, args):
        calls.append(checkout)
        if len(calls) == 3:  # pair 2 runs the change first
            stderr = "".join(f"line {k}\n" for k in range(30)) + "check 4 failed"
            raise bench_pairs.RunFailed(3, stderr)
        return bench_pairs.parse_run(run_output(2.0 if checkout == "new" else 1.0, 5.0))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["old", "new", "--pairs", "4"])
    assert exit_info.value.code == 1
    assert calls == ["old", "new", "new"]
    out, err = capsys.readouterr()
    assert ("pair 2/4: the change run failed with exit code 3; "
            "last 20 lines of its stderr:\nline 11\n") in err
    assert err.rstrip().endswith("line 29\ncheck 4 failed")
    assert "line 10\n" not in err
    assert "summary of the 1 finished pairs:" in out
    assert "desk-orbit    frames_per_s" in out and "  1/1 " in out
    assert "desk-orbit: same loss-trace SHA-256" in out


def test_run_raises_with_the_exit_code_and_stderr(monkeypatch):
    class Done:
        returncode, stdout, stderr = 2, "", "Traceback\nboom\n"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done())
    with pytest.raises(bench_pairs.RunFailed) as info:
        bench_pairs.run(".", [])
    assert (info.value.returncode, info.value.stderr) == (2, "Traceback\nboom\n")
